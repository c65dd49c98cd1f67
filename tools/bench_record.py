"""Record the benchmark of a checkout, or compare a revision with the working
tree in alternating pairs of runs.

    python3 tools/bench_record.py [CHECKOUT]
    python3 tools/bench_record.py --against REV [--trace 0|1]

Without `--against`, CHECKOUT defaults to the repository holding this
script. For each workload and seeds 1, 2 and 3 the script runs
`bench/run.py --workload W --seed S --seconds 20` there, with the
interpreter that runs the script, and reads the JSON of its last output
line and the `env` block of the result file it writes. Then it times the
Tier-1 suite. The record holds, per workload, the median and the runs of
each end-to-end metric and the failed and attempted op counts; the
environment of the runs, without its seed; and the Tier-1 wall time with
pytest's summary line. It is written to BENCH_<short-rev>.json.

With `--against REV`, REV and the working tree of the repository holding
this script (its tracked files, staged new files included, as
`git stash create` sees them) are unpacked by `git archive` into sibling
directories of a temporary folder. For each workload the script runs
`bench/run.py --seconds 20` on both sides in 10 pairs: the two runs
of pair i share seed i + 1, and REV runs first in even pairs, the working
tree in odd ones. For each metric it prints REV's median and quartiles,
the working tree's median, the change in per cent, and in how many pairs
the working tree was better, the direction read from BENCHMARK.json. A
metric whose bound there is narrower than REV's interquartile range, as a
fraction of REV's median, is marked unresolved unless every run of the
working tree beats every run of REV. With `--trace 1` the metrics are the
per-layer ones. The record, with every run, goes to
BENCH_against_<short-rev>_trace<0|1>.json at the repository root.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

WORKLOADS = ("exact", "cover", "float")
SEEDS = (1, 2, 3)
SECONDS = 20
PAIRS = 10
REPO = Path(__file__).resolve().parent.parent


def run(root: Path, *cmd: str, env=None) -> str:
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          check=True).stdout


def bench(root: Path, workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    out = run(root, sys.executable, "bench/run.py", "--workload", workload,
              "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace))
    result = root / "bench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
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


def record(root: Path) -> int:
    rec = {"rev": run(root, "git", "rev-parse", "HEAD").strip(),
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
        rec["workloads"][workload] = {
            "correct": all(res["correct"] for res, _ in runs),
            "failed": [res["failed"] for res, _ in runs],
            "attempted": [res["attempted"] for res, _ in runs],
            "metrics": metrics,
        }
    rec["env"] = {k: v for k, v in envs[0].items() if k != "seed"}
    rec["tier1"] = tier1(root)
    path = root / f"BENCH_{rec['rev'][:7]}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


# -- paired comparison ---------------------------------------------------


def unpack(rev: str, dest: Path) -> None:
    """The tree of `rev` in the repository, unpacked into `dest`."""
    tar = subprocess.run(["git", "archive", rev], cwd=REPO, capture_output=True,
                         check=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def spread(values: list[float]) -> dict:
    """Median and quartiles of the runs, and the runs."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    q1, median, q3 = quartiles
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None) -> dict:
    """Both sides' spreads, the change of the median in per cent, the pairs
    in which the change was strictly better, and whether the medians differ
    by more than REV's interquartile range. A metric with a `bound`, a
    fraction of REV's median, is unresolved where REV's interquartile range
    is wider than the bound, unless every run of the change is better than
    every run of REV: its runs spread too widely to tell a change within it."""
    wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
    a, b = spread(base), spread(change)
    pct = 100 * (b["median"] / a["median"] - 1) if a["median"] else None
    sweep = max(change) < min(base) if better == "lower" else min(change) > max(base)
    wide = bound is not None and a["q3"] - a["q1"] > bound * abs(a["median"])
    return {"better": better, "against": a, "change": b, "change_pct": pct,
            "better_in": wins, "pairs": len(base),
            "beyond_iqr": abs(b["median"] - a["median"]) > a["q3"] - a["q1"],
            "unresolved": wide and not sweep}


def metric_specs() -> dict:
    """Metric name: its entry in BENCHMARK.json, with `better` and, for the
    end-to-end metrics, `bound`."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def paired_runs(sides: dict, workload: str, trace: int) -> dict:
    """Side: its results, pair by pair; the two sides alternate in going first."""
    runs = {side: [] for side in sides}
    for i in range(PAIRS):
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            runs[side].append(bench(sides[side], workload, i + 1, trace))
        print(f"{workload} pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    return runs


def compare(rev: str, trace: int) -> int:
    head = run(REPO, "git", "rev-parse", "HEAD").strip()
    revs = {"against": run(REPO, "git", "rev-parse", rev).strip(),
            "change": run(REPO, "git", "stash", "create").strip() or head}
    specs = metric_specs()
    rec = {**revs, "head": head, "pairs": PAIRS, "seconds": SECONDS, "trace": trace,
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tmp:
        sides = {side: Path(tmp) / side for side in revs}
        for side, path in sides.items():
            unpack(revs[side], path)
        for workload in WORKLOADS:
            runs = paired_runs(sides, workload, trace)
            results = {side: [res for res, _ in rs] for side, rs in runs.items()}
            env = runs["change"][0][1]
            rec.setdefault("env", {k: v for k, v in env.items()
                                   if k not in ("seed", "git_rev", "git_dirty")})
            rec["workloads"][workload] = res = {
                key: {side: [r[key] for r in rs] for side, rs in results.items()}
                for key in ("correct", "failed", "attempted")
            }
            res["metrics"] = {
                name: verdict(*([r["metrics"][name]["value"] for r in results[side]]
                                for side in ("against", "change")),
                              specs.get(name, {}).get("better", "lower"),
                              specs.get(name, {}).get("bound"))
                for name in results["against"][0]["metrics"]
            }
            print_verdicts(workload, res)
    path = REPO / f"BENCH_against_{revs['against'][:7]}_trace{trace}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def print_verdicts(workload: str, res: dict) -> None:
    correct = {side: all(c) for side, c in res["correct"].items()}
    print(f"{workload}: correct {correct}")
    for name, v in res["metrics"].items():
        a, b = v["against"], v["change"]
        pct = "n/a" if v["change_pct"] is None else f"{v['change_pct']:+.1f} %"
        beyond = ", beyond the IQR" if v["beyond_iqr"] else ""
        unresolved = ", unresolved: the IQR exceeds the bound" if v["unresolved"] else ""
        print(f"  {name:32s} {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
              f" -> {b['median']:.6g} ({pct}), better in {v['better_in']} of"
              f" {v['pairs']} ({v['better']} is better{beyond}){unresolved}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkout", nargs="?", type=Path, default=REPO)
    ap.add_argument("--against", metavar="REV")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.against is None:
        return record(args.checkout.resolve())
    return compare(args.against, args.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
