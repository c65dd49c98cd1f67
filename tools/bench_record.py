"""Record the benchmark of a checkout in BENCH_<short-rev>.json at its root.

    python3 tools/bench_record.py [CHECKOUT]

CHECKOUT defaults to the repository holding this script. For each workload
and seeds 1, 2 and 3 the script runs
`bench/run.py --workload W --seed S --seconds 20` there, with the
interpreter that runs the script, and reads the JSON of its last output
line and the `env` block of the result file it writes. Then it times the
Tier-1 suite. The record holds, per workload, the median and the runs of
each end-to-end metric and the failed and attempted op counts; the
environment of the runs, without its seed; and the Tier-1 wall time with
pytest's summary line. Standard library only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("exact", "cover", "float")
SEEDS = (1, 2, 3)
SECONDS = 20


def run(root: Path, *cmd: str, env=None) -> str:
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          check=True).stdout


def bench(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    out = run(root, sys.executable, "bench/run.py", "--workload", workload,
              "--seed", str(seed), "--seconds", str(SECONDS))
    result = root / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(out.splitlines()[-1]), json.loads(result.read_text())["env"]


def tier1(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"],
                          cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "summary": lines[-1] if lines else "",
            "exit_code": proc.returncode}


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    record = {"rev": run(root, "git", "rev-parse", "HEAD").strip(),
              "seeds": list(SEEDS), "seconds": SECONDS, "workloads": {}}
    envs = []
    for workload in WORKLOADS:
        runs = [bench(root, workload, seed) for seed in SEEDS]
        envs += [env for _, env in runs]
        metrics = {}
        for name, m in runs[0][0]["metrics"].items():
            values = [res["metrics"][name]["value"] for res, _ in runs]
            metrics[name] = {"median": statistics.median(values), "unit": m["unit"],
                             "runs": values}
        record["workloads"][workload] = {
            "correct": all(res["correct"] for res, _ in runs),
            "failed": [res["failed"] for res, _ in runs],
            "attempted": [res["attempted"] for res, _ in runs],
            "metrics": metrics,
        }
    record["env"] = {k: v for k, v in envs[0].items() if k != "seed"}
    record["tier1"] = tier1(root)
    path = root / f"BENCH_{record['rev'][:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
