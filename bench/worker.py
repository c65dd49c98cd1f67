"""One workload in one fresh interpreter.

Started by `run.py`, never imported by it. After imports and input
generation it prints `ready <monotonic time>`; the parent takes set-up time
from that. Unless `--setup-only`, it then runs a fixed number of passes over
the op list, one op at a time, and prints one JSON line with the raw
results: every op's latency in every pass, and the speed probes taken
between ops. Pass k draws its seeded inputs from (workload, seed, k), so a
run averages over more inputs than one pass holds. The number of passes
is `--seconds` over the workload's nominal pass time, so the same seed and
seconds give the same ops, and so the same failures, on every run. With
`--trace 1` half of the passes run untraced and then the same passes run
traced, so the two can be compared.

`--write-reference` runs one untraced pass and stores its outputs as the
reference values for that workload and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import sqrect.cli  # noqa: E402,F401  the CLI's import cost is part of set-up

from run import MODULES, speed_probe  # noqa: E402
from workloads import KNOWN_DEFECTS, PASS_S, RUNNERS, WORKLOADS, make_ops  # noqa: E402

REFERENCE = BENCH / "reference"
OUT = BENCH / "out"


class Probe:
    """Wraps the benchmark's calls into `sqrect` modules.

    Untraced, `call` only calls. Traced, it times each call, keeps one span
    per call in memory and sums busy time, calls and failures per module.
    Counters fed by `add` and `peak` come from returned values and are kept
    either way; only traced runs report them.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        self.busy: Counter = Counter()
        self.calls: Counter = Counter()
        self.module_failed: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict = {}
        self.last = 0.0  # duration of the last traced call
        self.op = None
        self.op_span = None
        self.failures: list[tuple[str, str]] = []  # (step, error) of this op
        self.orbit = []  # exact values for the Surd batch

    def call(self, module: str, fn, *args, **kw):
        if not self.traced:
            return fn(*args, **kw)
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        except Exception:
            self.module_failed[module] += 1
            raise
        finally:
            end = time.perf_counter()
            self.last = end - start
            self.busy[module] += self.last
            self.calls[module] += 1
            self.spans.append(
                (f"{module}.{fn.__name__}", start - self.t0, end - self.t0,
                 self.op, self.op_span))

    @contextmanager
    def guard(self, step: str):
        """One step of an op: an error fails the op but not later steps."""
        try:
            yield
        except Exception as exc:  # any error of the program is a failed op
            self.failures.append((step, type(exc).__name__))

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failures.append((name, "CheckFailed"))

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def begin(self, op_key: str) -> None:
        self.op = op_key
        self.failures = []
        self.orbit = []
        if self.traced:
            self.op_span = len(self.spans)
            self.spans.append([f"op:{op_key}", time.perf_counter() - self.t0, None, op_key, None])

    def end(self) -> None:
        if self.traced:
            self.spans[self.op_span][2] = time.perf_counter() - self.t0


def surd_batch(values) -> list[int]:
    """Nanoseconds per Surd add, mul, div, compare and floor on successive
    orbit values, one timing per call."""
    ns = []
    clock = time.perf_counter_ns
    for a, b in zip(values, values[1:]):
        for fn, args in ((operator.add, (a, b)), (operator.mul, (a, b)),
                         (operator.truediv, (a, b)), (operator.lt, (a, b)),
                         (math.floor, (a,))):
            start = clock()
            fn(*args)
            ns.append(clock() - start)
    return ns


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text())["ops"] if path.exists() else {}


def compare(ref: dict | None, op, out: dict) -> list[tuple[str, str]]:
    """Reference mismatches of one op. A reference applies to an op with
    the same id and arguments; fields missing on either side are not
    compared, since a failed step is already counted by its error."""
    if ref is None or ref["args"] != op.args:
        return []
    return [(k, "ReferenceMismatch") for k, v in ref["out"].items()
            if k in out and out[k] != v]


def run_pass(ops, probe: Probe, refs: dict, pass_no: int, result: dict) -> float:
    """Runs every op once, with a speed probe before each op and after the
    last; returns the summed op latency."""
    total = 0.0
    result["probes"].append([speed_probe()])
    for op in ops:
        probe.begin(f"{pass_no}:{op.id}")
        start = time.perf_counter()
        try:
            out = RUNNERS[op.kind](probe, op.args)
        except Exception as exc:  # an error outside any step fails the op
            probe.failures.append(("op", type(exc).__name__))
            out = {}
        latency = time.perf_counter() - start
        probe.end()
        total += latency
        result["latencies"][-1].append(latency)
        failures = probe.failures + compare(refs.get(op.id), op, out)
        result["attempted"] += 1
        if failures:
            result["failed"] += 1
            result["failures"].extend(
                [op.id, s, e, (s, e) in KNOWN_DEFECTS] for s, e in failures)
        if probe.traced and probe.orbit:
            result["surd_ns"].extend(surd_batch(probe.orbit))
        result["outputs"][op.id] = out
        result["probes"][-1].append(speed_probe())
    return total


def run_phase(ops_of, traced: bool, refs: dict, passes: int) -> dict:
    """`passes` passes; pass k runs the op list `ops_of(k)`."""
    probe = Probe(traced)
    result = {"latencies": [], "probes": [], "pass_s": [], "attempted": 0, "failed": 0,
              "failures": [], "surd_ns": [], "outputs": {}}
    for k in range(passes):
        result["latencies"].append([])
        result["pass_s"].append(run_pass(ops_of(k), probe, refs, k, result))
    result["probe"] = probe
    return result


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill `seconds` at the workload's nominal pass time; at
    least one."""
    return max(1, round(seconds / PASS_S[workload]))


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced phase, per pass of the op list."""
    pr = traced["probe"]
    passes = len(traced["pass_s"])
    c = pr.counts

    def per_pass(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for mod in MODULES:
        m[f"{mod}.busy_s"] = per_pass(pr.busy[mod])
        m[f"{mod}.calls"] = per_pass(pr.calls[mod])
        m[f"{mod}.failed"] = per_pass(pr.module_failed[mod])
    ns = traced["surd_ns"]
    m["exactnum.surd_op_us"] = statistics.median(ns) / 1e3 if ns else 0.0
    m["pet.cells"] = per_pass(c["pet.cells"])
    m["pet.steps"] = per_pass(c["pet.steps"])
    m["renorm.verify_us_per_sample"] = 1e6 * ratio(c["renorm.verify_s"], c["renorm.verify_attempts"])
    m["renorm.resample_ratio"] = ratio(
        c["renorm.verify_attempts"] - c["renorm.verify_samples"], c["renorm.verify_attempts"])
    m["renorm.cover_pieces"] = per_pass(c["renorm.cover_pieces"])
    m["renorm.cover_s"] = per_pass(c["renorm.cover_s"])
    m["cfrac.accel_steps"] = per_pass(c["cfrac.accel_steps"])
    m["cfrac.natext_us_per_sample"] = 1e6 * ratio(c["cfrac.natext_s"], c["cfrac.natext_samples"])
    m["cfrac.natext_stay_ratio"] = ratio(c["cfrac.natext_stayed"], c["cfrac.natext_samples"])
    m["words.letters"] = per_pass(c["words.letters"])
    m["lyap.cocycle_us_per_step"] = 1e6 * ratio(c["lyap.cocycle_s"], c["lyap.cocycle_steps"])
    m["lyap.lane_steps_per_s"] = ratio(c["lyap.lane_steps"], c["lyap.birkhoff_s"])
    m["lyap.series_s"] = per_pass(c["lyap.series_s"])
    m["lyap.series_terms"] = per_pass(c["lyap.series_terms"])
    m["fractal.cover_s"] = per_pass(c["fractal.cover_s"])
    m["fractal.pieces"] = per_pass(c["fractal.pieces"])
    m["fractal.pieces_per_s"] = ratio(c["fractal.pieces"], c["fractal.cover_s"])
    m["fractal.box_count_s"] = per_pass(c["fractal.box_count_s"])
    m["fractal.box_count_deep_s"] = per_pass(c["fractal.box_count_deep_s"])
    m["fractal.boxes"] = per_pass(c["fractal.cover_boxes"] + c["fractal.deep_boxes"])
    m["fractal.boxes_per_piece"] = ratio(c["fractal.cover_boxes"], c["fractal.pieces"])
    m["fractal.computed_bytes"] = pr.peaks.get("fractal.computed_bytes", 0)
    m["render.rects_per_s"] = ratio(c["render.rects"], c["render.s"])
    m["render.pixels"] = per_pass(c["render.pixels"])
    # traced pass k ran the inputs of untraced pass k, so compare like
    # passes; untraced pass 0 also paid first-use costs, so leave it out
    common = min(passes, len(untraced["pass_s"]))
    first = 1 if common > 1 else 0
    m["trace_overhead_ratio"] = (
        sum(traced["pass_s"][first:common]) / sum(untraced["pass_s"][first:common]))
    return m


def write_spans(workload: str, seed: int, probe: Probe) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    keys = ("name", "start", "end", "op", "parent")
    with path.open("w") as fh:
        for span in probe.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path


def summary(phase: dict) -> dict:
    return {k: phase[k] for k in ("latencies", "probes", "pass_s", "attempted", "failed",
                                  "failures")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    lists = {0: make_ops(args.workload, args.seed, 0)}
    refs = load_reference(args.workload)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    def ops_of(k):
        if k not in lists:  # inputs of later passes, made between passes
            lists[k] = make_ops(args.workload, args.seed, k)
        return lists[k]

    ops = lists[0]
    if args.write_reference:
        phase = run_phase(ops_of, False, {}, 1)
        REFERENCE.mkdir(exist_ok=True)
        entries = {op.id: {"args": op.args, "out": phase["outputs"][op.id]} for op in ops}
        path = REFERENCE / f"{args.workload}.json"
        path.write_text(json.dumps({"seed": args.seed, "ops": entries}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
        return 0

    result = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        passes = pass_count(args.workload, args.seconds / 2)
        untraced = run_phase(ops_of, False, refs, passes)
        traced = run_phase(ops_of, True, refs, passes)
        result["layers"] = layer_metrics(traced, untraced)
        result["spans"] = str(write_spans(args.workload, args.seed, traced["probe"]).relative_to(BENCH.parent))
        result["traced_wall_s"] = statistics.mean(traced["pass_s"])
        phases = [untraced, traced]
    else:
        phases = [run_phase(ops_of, False, refs, pass_count(args.workload, args.seconds))]
    result["phases"] = [summary(p) for p in phases]
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
