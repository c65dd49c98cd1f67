"""The paired verdicts of tools/bench_record.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _path)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# ten runs whose quartiles are about 0.74 and 1.26 around a median of 1: an
# IQR of half the median, wider than a bound of 0.25
WIDE = [0.5, 0.7, 0.75, 0.8, 0.95, 1.05, 1.2, 1.25, 1.3, 1.5]
NARROW = [0.99, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.01]


@pytest.mark.parametrize("base, change, better, bound, unresolved", [
    # the parent's runs spread wider than the bound: a change inside them
    # cannot be told from noise, in either direction
    (WIDE, [v * 0.9 for v in WIDE], "lower", 0.25, True),
    (WIDE, [v * 1.1 for v in WIDE], "higher", 0.25, True),
    # unless every run of the change beats every run of the parent
    (WIDE, [0.4] * 10, "lower", 0.25, False),
    (WIDE, [1.6] * 10, "higher", 0.25, False),
    # a sweep the wrong way is no exception
    (WIDE, [1.6] * 10, "lower", 0.25, True),
    # spread within the bound, or no bound (the per-layer metrics)
    (NARROW, [1.2] * 10, "lower", 0.25, False),
    (WIDE, [v * 0.9 for v in WIDE], "lower", None, False),
])
def test_verdict_marks_spread_wider_than_the_bound(base, change, better, bound,
                                                   unresolved):
    v = bench_record.verdict(base, change, better, bound)
    assert v["unresolved"] is unresolved
    assert v["pairs"] == 10


def test_unresolved_is_printed(capsys):
    res = {"correct": {"against": [True], "change": [True]}, "metrics": {
        "op_p50_s": bench_record.verdict(WIDE, WIDE[::-1], "lower", 0.25),
        "ops_per_s": bench_record.verdict(NARROW, NARROW, "higher", 0.25),
    }}
    bench_record.print_verdicts("float", res)
    lines = capsys.readouterr().out.splitlines()
    assert [("unresolved" in line) for line in lines] == [False, True, False]


def test_bounds_come_from_the_benchmark():
    specs = bench_record.metric_specs()
    assert specs["op_p50_s"]["bound"] == 0.25 and specs["op_p50_s"]["better"] == "lower"
    assert "bound" not in specs["renorm.cover_s"]
