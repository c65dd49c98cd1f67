"""Tests of the benchmark itself: `python3 -m pytest bench/tests -q`."""

import copy
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _op(workload, op_id):
    return next(op for op in workloads.make_ops(workload, workloads.DEFAULT_SEED) if op.id == op_id)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    ops = workloads.make_ops(workload, 5, 1)
    assert ops == workloads.make_ops(workload, 5, 1)
    assert ops != workloads.make_ops(workload, 6, 1)
    assert ops != workloads.make_ops(workload, 5, 2)


def test_corrupted_reference_fails_the_op():
    op = _op("float", "integral_ln_M-10000")
    refs = worker.load_reference("float")
    assert refs[op.id]["args"] == op.args

    def failed(refs):
        phase = worker.run_phase(lambda k: [op], False, refs, 1)
        return phase["failed"], phase["failures"]

    assert failed(refs) == (0, [])
    bad = copy.deepcopy(refs)
    bad[op.id]["out"]["value"] = repr(float(bad[op.id]["out"]["value"]) + 1e-12)
    assert failed(bad) == (1, [[op.id, "value", "ReferenceMismatch", False]])


def test_failed_identity_is_not_a_known_defect():
    probe = worker.Probe(False)
    probe.check("transfer_residual", False)
    with probe.guard("tower"):
        raise workloads.PrefixTooShort("only 35 blocks")
    assert probe.failures == [("transfer_residual", "CheckFailed"), ("tower", "PrefixTooShort")]
    assert [f in workloads.KNOWN_DEFECTS for f in probe.failures] == [False, True]


@pytest.fixture(scope="module")
def traced_run():
    """One traced and one untraced pass over an op that reaches every
    module but render, and a small render."""
    ops = [_op("exact", "selfsimilar-minus1"), _op("cover", "render-plus2-l4")]
    refs = {op.id: worker.load_reference(w)[op.id] for w, op in zip(("exact", "cover"), ops)}
    untraced = worker.run_phase(lambda k: ops, False, refs, 1)
    traced = worker.run_phase(lambda k: ops, True, refs, 1)
    return ops, untraced, traced


def test_spans_cover_every_module_with_layer_metrics(traced_run):
    ops, _, traced = traced_run
    spans = traced["probe"].spans
    modules = {name.split(".")[0] for name, *_ in spans if not name.startswith("op:")}
    assert modules == set(worker.MODULES)
    roots = [i for i, s in enumerate(spans) if s[0].startswith("op:")]
    assert len(roots) == len(ops)
    for name, start, end, op_key, parent in spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][3] == op_key
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_printed_metrics_match_benchmark_json(traced_run):
    _, untraced, traced = traced_run
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    versions = {"python": "", "numpy": "", "scipy": ""}
    raw = {"versions": versions, "peak_rss_kib": 1024,
           "phases": [worker.summary(untraced)]}
    res = run.assemble(json.loads(json.dumps(raw)), [(1.0, 1.0)])
    assert {k: m["unit"] for k, m in res["metrics"].items()} == declared_e2e
    assert res["correct"] and res["failed"] == 0

    layers = worker.layer_metrics(traced, untraced)
    raw.update(layers=layers, phases=[worker.summary(untraced), worker.summary(traced)])
    res = run.assemble(json.loads(json.dumps(raw)), [(1.0, 1.0)])
    assert {k: m["unit"] for k, m in res["metrics"].items()} == declared_layers
    busy = sum(layers[f"{m}.busy_s"] for m in worker.MODULES)
    assert 0 < busy <= statistics.mean(traced["pass_s"])


def test_seed_and_seconds_fix_the_passes():
    assert [worker.pass_count("exact", s) for s in (0.0, 4.4, 20.0, 21.0)] == [1, 1, 5, 5]
    assert worker.pass_count("cover", SPEC["run_seconds"]) == 3


def test_timings_scale_to_nominal_speed():
    nominal = run.PROBE_NOMINAL_S
    assert run.at_nominal_speed(2.0, nominal, nominal) == pytest.approx(2.0)
    assert run.at_nominal_speed(3.0, 1.5 * nominal, 1.5 * nominal) == pytest.approx(2.0)
    assert run.at_nominal_speed(3.0, nominal, 2 * nominal) == pytest.approx(2.0)


def test_tail_rank_keeps_ten_ops_of_a_pass_beyond_it():
    assert run.tail_rank(61, 61) == 51
    assert run.tail_rank(183, 61) == 153
    assert run.tail_rank(30, 30) == 20
    assert run.tail_rank(5, 5) == 1


def test_bench_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "worker.py", "workloads.py"):
        (tmp_path / "bench" / f).write_text((BENCH / f).read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
