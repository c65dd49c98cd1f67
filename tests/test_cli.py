import argparse
import ast
import importlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sqrect
from sqrect import cli, pet
from sqrect.cli import main, parse_param, parse_point
from sqrect.exactnum import make_surd
from sqrect.pet import Param


SILVER = "sqrt(2)-1,-1"
BIG = "9" * 4001  # a count of 4,001 digits or more


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, timeout):
    """Run a fresh interpreter that imports this checkout of sqrect."""
    src = str(Path(sqrect.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


class TestArgumentParsing:
    def test_param_forms_agree(self):
        assert parse_param("sqrt(2)-1,-1") == Param(make_surd(-1, 1, 1, 2), -1)
        assert parse_param("x=3/8") == parse_param("3/8,-1")
        assert parse_param("x=4/3") == parse_param("1/3,1")

    def test_param_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_param("nonsense")

    def test_point(self):
        z = parse_point("1/3,2/7")
        assert (z.x, z.y) == (pytest.approx(1 / 3), pytest.approx(2 / 7))


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 1

    def test_missing_required_flag_is_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["expand"])
        assert e.value.code == 1

    def test_float_point_at_surd_param_of_another_field(self, capsys):
        # a decimal coordinate makes the whole orbit float, so the surds of
        # Q(sqrt(3)) and Q(sqrt(2)) no longer meet (once MixedSurdFields)
        code, out, err = run(
            capsys, "orbit", "--param", "2-sqrt(3),1", "--point", "0.25,sqrt(2)/3",
            "--depth", "20",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["coding"] == "aaabaaabaaabaaabaaab"

    def test_domain_error_is_two(self, capsys):
        code, out, err = run(capsys, "expand", "--param", "5,-1")
        assert code == 2
        obj = json.loads(err)
        assert "error" in obj and "message" in obj

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--param", "1/3,abc"],
            ["expand", "--param", "sqrt(2,-1"],
            ["expand", "--param", "x=1/0"],
            ["expand", "--param", "nonsense"],
            ["orbit", "--param", "sqrt(2)-1,-1", "--point", "1/3"],
            ["expand", "--param", "(" * 3000 + "1/3" + ")" * 3000 + ",-1"],
            ["render", "islands", "--param", "sqrt(2)-1,-1", "--periods", "a",
             "--out", "never-written.ppm"],
            ["render", "islands", "--param", "sqrt(2)-1,-1", "--periods", "1,,5",
             "--out", "never-written.ppm"],
        ],
    )
    def test_malformed_input_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_sturmian_without_a_counted_length_is_two(self, capsys, n_max):
        # no factor count would back the "sturmian": true certificate
        code, out, err = run(
            capsys, "sturmian", "--param", "sqrt(2)-1,-1", "--n-max", n_max
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_islands_at_a_float_parameter_is_two(self, capsys):
        # islands are enumerated exactly; a float theta is a domain error
        code, out, err = run(
            capsys, "islands", "--param", "0.4142135623730951,-1"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"
        assert "exact parameter" in json.loads(err)["message"]

    def test_islands_at_the_root_of_a_square_fraction(self, capsys):
        # sqrt(1/4) parses to the exact 1/2, not to the float 0.5
        code, out, err = run(capsys, "islands", "--param", "sqrt(1/4),-1")
        assert (code, err) == (0, "")
        assert out == run(capsys, "islands", "--param", "1/2,-1")[1]

    @pytest.mark.parametrize("length", ["0", "-3"])
    def test_sturmian_without_a_positive_length_is_two(self, capsys, length):
        # a surd's expansion never terminates: the length itself is wrong
        code, out, err = run(
            capsys, "sturmian", "--param", "sqrt(2)-1,-1", "--length", length
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["induction-check", "--param", "sqrt(2)-1,-1", "--trials", "-1"],
            ["induction-check", "--param", "sqrt(2)-1,-1", "--trials", "0"],
            ["tower", "--param", "sqrt(2)-1,-1", "--depth", "-1"],
            ["expand", "--param", "sqrt(2)-1,-1", "--depth", "-1"],
            ["orbit", "--param", "sqrt(2)-1,-1", "--point", "1/3,2/7", "--depth", "-1"],
            ["render", "cover", "--param", "sqrt(2)-1,-1", "--depth", "-1",
             "--px", "64", "--out", "never-written.ppm"],
            ["render", "discontinuities", "--param", "sqrt(2)-1,-1", "--depth", "-1",
             "--px", "64", "--out", "never-written.ppm"],
            ["tower", "--param", "sqrt(2)-1,-1", "--prefix-len", "0"],
            ["tower", "--param", "sqrt(2)-1,-1", "--prefix-len", "-5"],
        ],
    )
    def test_vacuous_certificate_is_two(self, capsys, tmp_path, monkeypatch, argv):
        # no sample, a negative depth or an empty prefix would certify nothing
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--param", "x=3/8", "--seed", "3"],
            ["integrals", "--depth", "5"],
            ["lyapunov", "--depth", "5"],
            ["render", "islands", "--param", "sqrt(2)-1,-1", "--depth", "9",
             "--out", "never-written.ppm"],
            ["render", "cover", "--param", "sqrt(2)-1,-1", "--periods", "1,5",
             "--out", "never-written.ppm"],
            ["dimension", "--table", "--family", "plus"],
            # dimension's selectors each read only one of --n and --depth
            ["dimension", "--table", "--depth", "9", "--out", "never-written"],
            ["dimension", "--family", "plus", "--n", "2", "--depth", "3"],
            ["dimension", "--param", "sqrt(2)-1,-1", "--n", "7", "--depth", "20",
             "--out", "never-written"],
        ],
    )
    def test_flag_the_command_does_not_read_is_one(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        # refused by the parser (SystemExit) or by the handler (JSON error)
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        else:
            assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
        assert code == 1 and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, usage", [
        (["integrals", "--depth", "5"], "usage: sqrect integrals "),
        (["render", "cover", "--param", "sqrt(2)-1,-1", "--periods", "3"],
         "usage: sqrect render cover "),
    ])
    def test_unread_flag_shows_the_command_usage(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as e:
            main(argv)
        err = capsys.readouterr().err
        assert e.value.code == 1 and err.startswith(usage)
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_long_sign_run_parses(self, capsys):
        # 3001 signs: -1/3, outside the domain, where it once overflowed the
        # parser's stack
        code, out, err = run(capsys, "expand", "--param=" + "-" * 3001 + "1/3,-1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_success_is_zero(self, capsys):
        code, out, err = run(capsys, "expand", "--param", "3/8,-1")
        assert code == 0 and err == ""

    def test_huge_radicand_fails_fast(self):
        # trial division up to the square root of this radicand would not
        # finish; a fresh process bounds the wall time of a regression
        proc = run_python(
            "-m", "sqrect.cli", "expand", "--param",
            "sqrt(1000000000000000000000000000057)/2000000000000000,-1",
            timeout=2,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "ParseError"

    def test_middle_branch_end_fails_fast(self):
        # x = 1 + 1/10^9 ends middle branch 10^9, whose step lands on 2; a
        # step used to cost one slow-map iteration per unit of the index
        proc = run_python(
            "-m", "sqrect.cli", "dimension", "--param", "1/1000000000,1",
            "--depth", "5", timeout=2,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "Terminal"

    def test_cover_above_piece_budget_fails_fast(self, tmp_path):
        # the depth-12 silver-mean cover has 63M pieces, about 2.5 GB of
        # float arrays; its count is known before anything is allocated
        out = tmp_path / "cover.ppm"
        proc = run_python(
            "-m", "sqrect.cli", "render", "cover", "--param", "sqrt(2)-1,-1",
            "--depth", "12", "--out", str(out), timeout=2,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"
        assert not out.exists()

    def test_raster_above_budget_fails_fast(self, tmp_path):
        # 10^6 px wide is a 2 TB image: refused before it is allocated
        out = tmp_path / "x.ppm"
        proc = run_python(
            "-m", "sqrect.cli", "render", "cover", "--param", "sqrt(2)-1,-1",
            "--depth", "1", "--px", "1000000", "--out", str(out), timeout=2,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"
        assert not out.exists()
        assert not (tmp_path / "x.ppm.manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sturmian", "--param", "sqrt(2)-1,-1", "--length", "1000000000000"],
        ["tower", "--param", "sqrt(2)-1,-1", "--depth", "3",
         "--prefix-len", "1000000000000000"],
    ])
    def test_word_above_letter_budget_fails_fast(self, argv):
        proc = run_python("-m", "sqrect.cli", *argv, timeout=2)
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"

    @pytest.mark.parametrize("command", ["dimension", "tower"])
    def test_depth_above_step_budget_fails_fast(self, command):
        # 10^9 accelerated steps would run for hours
        proc = run_python(
            "-m", "sqrect.cli", command, "--param", "sqrt(2)-1,-1",
            "--depth", "1000000000", timeout=2,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"

    def test_orbit_above_step_budget_fails_fast(self, capsys, monkeypatch):
        # 10^12 exact map steps would run for months
        proc = run_python(
            "-m", "sqrect.cli", "orbit", "--param", "sqrt(2)-1,-1",
            "--point", "1/3,2/7", "--depth", "1000000000000", timeout=2,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"
        # the budget itself is admitted
        monkeypatch.setattr(pet, "ORBIT_STEP_BUDGET", 5)
        argv = ["orbit", "--param", "sqrt(2)-1,-1", "--point", "1/3,2/7"]
        code, out, _ = run(capsys, *argv, "--depth", "5")
        assert code == 0 and json.loads(out)["length"] == 5
        code, _, err = run(capsys, *argv, "--depth", "6")
        assert code == 2 and json.loads(err)["error"] == "NotTerminated"

    @pytest.mark.parametrize("argv, reads", [
        (["expand", "--param", "sqrt(2)-1,-1"], 0),  # 121 bytes, and no reader
        # 2.8 MB, as `| head -1` reads it
        (["islands", "--param", "sqrt(2)-1,-1", "--max-period", "5000"], 1),
    ])
    def test_closed_pipe_ends_quietly(self, argv, reads):
        # a reader that closes stdout early is no usage error: no JSON object,
        # no traceback, and the status a shell gives a writer SIGPIPE ends
        read, write = os.pipe()
        if not reads:
            os.close(read)  # before the child's first write
        src = str(Path(sqrect.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        child = subprocess.Popen(  # stdout block-buffered, as a pipe has it by default
            [sys.executable, "-m", "sqrect.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, env=dict(env, PYTHONPATH=src),
        )
        os.close(write)
        if reads:  # then close it, with most of the output unread
            with os.fdopen(read, "rb") as out:
                assert [out.readline() for _ in range(reads)] == [b"{\n"] * reads
        assert child.wait(timeout=60) == 141 and child.stderr.read() == b""

    def test_series_above_term_budget_fails_fast(self):
        # 10^12 terms are 7.28 TiB of arange: refused before it is allocated
        proc = run_python(
            "-m", "sqrect.cli", "integrals", "--terms", "1000000000000", timeout=2
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, from os.wait4")
    def test_series_at_the_term_budget_stay_small(self):
        # each series fills one full-length array of terms block by block:
        # 531 MiB peak RSS when every temporary was full-length. A child's
        # ru_maxrss counts its parent's peak at the fork, so a small
        # interpreter, not this one, starts the command
        proc = run_python("-c", """if True:
            import os, subprocess, sys
            argv = [sys.executable, "-m", "sqrect.cli", "integrals", "--terms", "5000000"]
            child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            print(child.returncode, usage.ru_maxrss)
            """, timeout=60)
        code, maxrss_kib = map(int, proc.stdout.split())
        assert code == 0 and maxrss_kib < 200 * 1024

    def test_cover_count_past_the_int_str_limit(self, capsys, tmp_path):
        # the depth-100000 cover at sqrt(3)-1 has a 254,312-bit piece count,
        # past the 4,300 digits that int -> str allows: the refusal names
        # the budget, not the count
        out = tmp_path / "cover.ppm"
        start = time.perf_counter()
        code, stdout, err = run(
            capsys, "render", "cover", "--param", "sqrt(3)-1,1", "--depth", "100000",
            "--px", "64", "--out", str(out),
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and stdout == "" and not out.exists()
        obj = json.loads(err)
        assert obj["error"] == "NotTerminated" and len(obj["message"]) <= 200

    @pytest.mark.parametrize("argv", [
        # 77M pieces at depth 10; the whole descent took 3.9 s at depth 10**5
        ["render", "cover", "--param", "sqrt(3)-1,1", "--depth", "1000000", "--px", "64"],
        # right branch 1 adds 2 pieces a level, but the fold's work grows as
        # the square of the depth: its piece-steps pass 2**25 at depth 5,792
        ["render", "cover", "--param", "1/1000000,1", "--depth", "999000", "--px", "64"],
        # about 10**6 slow steps, each kept in the walk's dict of exact x
        ["expand", "--param", "999999/1000000,-1", "--depth", "1000000000000000000"],
        # 2 * n has 4,301 digits, one past what int -> str allows
        ["dimension", "--table", "--n", "9" * 4300],
    ], ids=["surd-cover", "right-branch-1-cover", "expand", "table"])
    def test_walk_past_its_budget_is_refused_within_a_second(self, argv, tmp_path):
        out = tmp_path / "out"
        start = time.perf_counter()
        proc = run_python("-m", "sqrect.cli", *argv, "--out", str(out), timeout=10)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
        assert json.loads(proc.stderr)["error"] == "NotTerminated"

    @pytest.mark.parametrize("argv", [
        ["orbit", "--param", SILVER, "--point", "1/3,2/7", "--depth", BIG],
        ["render", "islands", "--param", SILVER, "--px", BIG],
        ["natext-check", "--trials", BIG],
        ["dimension", "--table", "--n", BIG],
        ["dimension", "--table", "--n", "9" * 4300],
        ["lyapunov", "--trials", BIG],
        ["lyapunov", "--trials", "1", "--l", BIG],
        ["lyapunov", "--trials", "1000", "--l", "1000000"],
        ["expand", "--param", "999999/1000000,-1", "--depth", BIG],
        ["islands", "--param", "1/100000,-1", "--max-period", "1000000"],
        ["islands", "--param", "1/1000000,1", "--max-period", "30000"],
        ["induction-check", "--param", SILVER, "--trials", BIG],
        ["sturmian", "--param", SILVER, "--length", BIG],
        ["tower", "--param", SILVER, "--depth", "3", "--prefix-len", BIG],
        ["tower", "--param", SILVER, "--depth", BIG],
        ["dimension", "--param", SILVER, "--depth", BIG],
        ["integrals", "--terms", BIG],
        ["render", "discontinuities", "--param", SILVER, "--depth", BIG, "--px", "100"],
        ["render", "cover", "--param", SILVER, "--depth", "1", "--px", BIG],
        ["render", "cover", "--param", "sqrt(3)-1,1", "--depth", BIG, "--px", "64"],
        ["render", "cover", "--param", "1/1000000,1", "--depth", "999000", "--px", "64"],
    ])
    def test_every_budget_refuses_in_a_short_message(self, capsys, tmp_path,
                                                     monkeypatch, argv):
        # a count past 10**20 is given by its bit length: a refused count
        # once put all of its 4,000 digits into the message, or, past 4,300,
        # failed to format with a ValueError. The segment budget is cut so
        # that the silver mean's segments pass it within 200 levels
        monkeypatch.setattr(pet, "SEGMENT_BUDGET", 1000)
        out = ["--out", str(tmp_path / "x.ppm")] if argv[0] == "render" else []
        code, stdout, err = run(capsys, *argv, *out)
        assert code == 2 and stdout == ""
        obj = json.loads(err)
        assert obj["error"] == "NotTerminated" and len(obj["message"]) <= 200

    @pytest.mark.parametrize("depth", ["500", "3000", "12000"])
    def test_tower_measures_below_the_normal_floats(self, capsys, depth):
        # at the silver mean alpha and beta go subnormal from about depth
        # 490, print as 0.0 from about 520, and N passes 4,300 digits
        # from about 6,800
        code, out, err = run(
            capsys, "tower", "--param", "sqrt(2)-1,-1", "--depth", depth
        )
        assert code == 2 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "NotTerminated" and len(obj["message"]) <= 200

    def test_dimension_table_above_row_budget_fails_fast(self):
        # 2 * 10^12 rows: refused before the first one is formatted
        proc = run_python(
            "-m", "sqrect.cli", "dimension", "--table", "--n", "1000000000000",
            timeout=2,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"

    def test_dimension_family_at_large_n(self, capsys):
        # a contraction written as sqrt(n*n + 1) - n would round to 0 here
        code, out, _ = run(capsys, "dimension", "--family", "minus", "--n", "100000000")
        assert code == 0 and 1 < json.loads(out)["value"] < 1.04

    def test_lyapunov_above_step_budget_fails_fast(self):
        # one lane of 10^12 steps is about 250 days of numpy dispatch
        proc = run_python(
            "-m", "sqrect.cli", "lyapunov", "--trials", "1", "--l",
            "1000000000000", timeout=2,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"

    @pytest.mark.parametrize("argv", [
        # one sample of return time about 3 * 10^9 steps
        ["induction-check", "--param", "1/1000000000,-1", "--trials", "1"],
        ["induction-check", "--param", "sqrt(2)-1,-1", "--trials", "1000000000000"],
        ["natext-check", "--trials", "1000000000000"],
    ])
    def test_check_above_work_budget_fails_fast(self, argv):
        proc = run_python("-m", "sqrect.cli", *argv, timeout=2)
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotTerminated"

    def test_float_near_one_finishes(self):
        proc = run_python(
            "-m", "sqrect.cli", "dimension", "--param", "0.000000001,1",
            "--depth", "5", timeout=2,
        )
        assert proc.returncode == 0 and proc.stderr == ""

    def test_float_middle_step_at_huge_index_finishes(self):
        # middle branch 4,441,419,750,858, where the Moebius denominator
        # (1 - n) x + n rounds to 0
        proc = run_python(
            "-m", "sqrect.cli", "dimension", "--param", "0.0000000000002252,1",
            "--depth", "3", timeout=2,
        )
        assert proc.returncode == 0 and proc.stderr == ""

    @pytest.mark.parametrize(
        "argv", [["dimension", "--depth", "3"], ["expand"]]
    )
    def test_subnormal_theta_is_two(self, capsys, argv):
        # 1/theta overflows to inf, whose floor was an OverflowError
        # traceback with exit 1
        theta = "0." + "0" * 320 + "1"
        code, out, err = run(capsys, *argv, "--param", f"{theta},-1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "Degenerate"

    def test_huge_operand_of_a_decimal_is_one(self, capsys):
        # float() of the huge int raised OverflowError: a traceback
        text = "x=1" + "0" * 400 + "*0.0+1/3"
        code, out, err = run(capsys, "expand", "--param", text)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("x", ["sqrt(2)+1" + "0" * 400, "1" + "0" * 400])
    def test_huge_point_at_a_float_param_is_two(self, capsys, x):
        # the surd's float conversion raised OverflowError: a traceback
        code, out, err = run(capsys, "orbit", "--param", "0.5,-1", "--point", f"{x},1/2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "OutOfDomain"

    @pytest.mark.parametrize("theta", ["0.1", "0.2", "0.3", "0.6", "0.7", "0.9",
                                       "0.3333333333333333"])
    @pytest.mark.parametrize("eps", ["-1", "1"])
    @pytest.mark.parametrize("argv", [
        ["sturmian", "--length", "200", "--n-max", "5"],
        ["tower", "--depth", "2", "--prefix-len", "10000"],
    ], ids=["sturmian", "tower"])
    def test_decimal_parameters_end_in_a_result_or_a_typed_error(
            self, capsys, theta, eps, argv):
        # float orbits of round decimals reach unit branches near 2**48 in
        # a few steps, whose images the limit word built whole: MemoryError
        code, out, err = run(capsys, *argv, "--param", f"{theta},{eps}")
        assert code in (0, 2)
        if code == 2:
            assert out == "" and json.loads(err)["error"] in (
                "Terminal", "PrefixTooShort")

    @pytest.mark.parametrize("argv", [
        ["expand", "--param", "x=sqrt(2)-1"],
        ["render", "islands", "--param", "sqrt(2)-1,-1", "--periods", "1,5",
         "--px", "64"],
    ], ids=["expand", "render"])
    @pytest.mark.parametrize("where, error", [
        ("missing/x.out", "FileNotFoundError"), (".", "IsADirectoryError"),
    ], ids=["missing-directory", "a-directory"])
    def test_unwritable_out_is_one(self, capsys, tmp_path, argv, where, error):
        # the output is written outside the handler (or, for render, by it):
        # an OSError there was a traceback
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / where))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error


# every flag whose default is not 0, given as 0: (argv, module and name of the
# library function that gets the flag, and its position or keyword there)
ZERO_FLAGS = [
    (["expand", "--param", SILVER, "--depth", "0"],
     "sqrect.cli", "expand", "max_steps"),
    (["orbit", "--param", SILVER, "--point", "1/3,2/7", "--depth", "0"],
     "sqrect.cli", "code_orbit", 2),
    (["induction-check", "--param", SILVER, "--trials", "0"],
     "sqrect.renorm", "induction_verify", "samples"),
    (["tower", "--param", SILVER, "--depth", "0"], "sqrect.words", "tower_stats", 1),
    (["lyapunov", "--trials", "0", "--l", "5"],
     "sqrect.lyap", "birkhoff_estimate", "trials"),
    (["lyapunov", "--trials", "5", "--l", "0"],
     "sqrect.lyap", "birkhoff_estimate", "l"),
    (["dimension", "--table", "--n", "0"], "sqrect.fractal", "dimension_table", 0),
    (["dimension", "--family", "minus", "--n", "0"],
     "sqrect.fractal", "selfsimilar_dimension", 1),
    (["dimension", "--param", SILVER, "--depth", "0"],
     "sqrect.fractal", "dimension_estimate", 1),
    (["render", "discontinuities", "--param", SILVER, "--px", "0"],
     "sqrect.render", "render_discontinuities", 2),
    (["render", "discontinuities", "--param", SILVER, "--depth", "0", "--px", "64"],
     "sqrect.render", "render_discontinuities", 1),
    (["render", "cover", "--param", SILVER, "--depth", "0", "--px", "64"],
     "sqrect.render", "render_cover", 1),
    (["natext-check", "--trials", "0"],
     "sqrect.cli", "natural_extension_check", "samples"),
]


@pytest.mark.parametrize(
    "argv, module, name, arg", ZERO_FLAGS, ids=[" ".join(f[0]) for f in ZERO_FLAGS]
)
def test_explicit_zero_is_not_the_default(argv, module, name, arg, capsys,
                                          tmp_path, monkeypatch):
    # the library gets the 0: it rejects it with its own check (exit 2) or
    # runs with it, and never with the flag's default
    mod = importlib.import_module(module)
    real, seen = getattr(mod, name), []

    def spy(*args, **kwargs):
        seen.append(kwargs[arg] if isinstance(arg, str) else args[arg])
        return real(*args, **kwargs)

    monkeypatch.setattr(mod, name, spy)
    if argv[0] == "render":
        argv = [*argv, "--out", str(tmp_path / "figure.ppm")]
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert seen == [0]
    if code == 2:
        assert out == "" and json.loads(err)["error"] == "ValueError"
    else:
        assert code == 0 and err == ""


def _subcommands(parser, path=()):
    """(path, parser) of every subcommand and render kind."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sp in action.choices.items():
            yield from _subcommands(sp, (*path, name))


def _attributes_read(argv) -> set:
    """Names read off the parsed arguments by the handler, _emit and
    _write_manifest of one run."""
    reads = set()

    class Logged(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args(argv, namespace=Logged())
    reads.clear()  # argparse's own reads while parsing
    report, rows, text = cli.HANDLERS[args.command](args)
    cli._emit(args, report, rows, text)
    cli._write_manifest(args)
    return reads


def test_every_declared_flag_is_read(capsys, tmp_path, monkeypatch):
    # over the golden cases, each subcommand's handler reads every flag it
    # declares: a flag it accepted and then ignored would change nothing
    from test_golden import COMMANDS

    monkeypatch.chdir(tmp_path)
    read = {}
    for _, argv in COMMANDS:
        path = tuple(argv[:2]) if argv[0] == "render" else (argv[0],)
        read.setdefault(path, set()).update(_attributes_read(argv))
    leaves = dict(_subcommands(cli.build_parser()))
    assert sorted(read) == sorted(leaves)
    unread = {
        " ".join(path): sorted(
            a.dest for a in sp._actions
            if a.option_strings and a.dest != "help" and a.dest not in read[path]
        )
        for path, sp in leaves.items()
    }
    assert unread == {name: [] for name in unread}


# public library names that no library or bench code calls, each kept for a
# reason of its own
CALLED_ONLY_BY_TESTS = {
    "renorm.period_sequence": "criterion 10 reads the island periods through it",
    "cfrac.natext_step": "the scalar definition natext_steps is derived from",
}


def _public_definitions(tree: ast.Module):
    """(name, is_method) of the module's public functions and of the public
    methods and properties of its classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True


def _imported_from(tree: ast.Module, module: str) -> set:
    """Names the module binds by importing them from sqrect's `module`."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rsplit(".", 1)[-1] == module
        and (node.level or (node.module or "").startswith("sqrect."))
        for alias in node.names
    }


def test_every_public_library_function_has_a_caller():
    # a public function, method or property of src/sqrect is called by the
    # library or the bench, not only by the tests. A method counts through
    # an attribute reference alone; a function through one, or through its
    # name in its own module or in one that imports it, so a local variable
    # of the same name elsewhere does not count
    root = Path(sqrect.__file__).resolve().parents[2]
    lib = [(p.stem, ast.parse(p.read_text())) for p in root.glob("src/sqrect/*.py")]
    users = lib + [(None, ast.parse(p.read_text())) for p in root.glob("bench/*.py")]
    attributes = {
        n.attr
        for _, tree in users
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
    }
    names = [
        (user, tree, {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})
        for user, tree in users
    ]
    uncalled = set()
    for module, tree in lib:
        for name, is_method in _public_definitions(tree):
            leaf = name.rsplit(".", 1)[-1]
            called = leaf in attributes or not is_method and any(
                leaf in used and (user == module or leaf in _imported_from(t, module))
                for user, t, used in names
            )
            if not called:
                uncalled.add(f"{module}.{name}")
    unlisted = sorted(uncalled - CALLED_ONLY_BY_TESTS.keys())
    assert not unlisted, f"called only by the tests: {unlisted}"
    stale = sorted(CALLED_ONLY_BY_TESTS.keys() - uncalled)
    assert not stale, f"listed, but called by the library or bench: {stale}"


# text that is almost a parameter or a point, and text of any kind
NEAR_SYNTAX = st.text(alphabet="0123456789.+-*/() sqrtx=,", max_size=40)


@settings(max_examples=300, deadline=1000)
@given(st.one_of(NEAR_SYNTAX, st.text(max_size=40)))
def test_fuzzed_text_parses_or_raises_value_error(text):
    # ParseError is a ValueError, and so is a value outside the domain
    for parse in (parse_param, parse_point):
        try:
            parse(text)
        except ValueError:
            pass


def test_cli_import_skips_scipy_special():
    proc = run_python(
        "-c", "import sys, sqrect.cli; print('scipy.special' in sys.modules)",
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_no_module_imports_scipy():
    # scipy is a test dependency only: importing every sqrect module leaves it out
    proc = run_python("-c", """if True:
        import importlib, pkgutil, sys, sqrect
        names = [m.name for m in pkgutil.iter_modules(sqrect.__path__)]
        for name in names:
            importlib.import_module(f"sqrect.{name}")
        print(len(names), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """, timeout=60)
    modules = {p.stem for p in Path(sqrect.__file__).parent.glob("*.py")} - {"__init__"}
    assert proc.returncode == 0 and proc.stdout.strip() == f"{len(modules)} []"


def test_float_kernels_skip_scipy():
    # the digamma tails of transfer_residual are Cephes' series in stdlib
    # floats, so no float kernel loads scipy
    proc = run_python("-c", """if True:
        import sys
        from sqrect import cfrac, lyap
        for which, y in (("nu", 0.3), ("bold_nu", 1.7)):
            cfrac.transfer_residual(which, y)
        for series in (lyap.integral_ln_M, lyap.integral_ln_r, lyap.lower_bound_f):
            series(1000)
        lyap.birkhoff_estimate(1, 10, 50)
        cfrac.natural_extension_check(200, 0)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


class TestExpand:
    def test_rational_chain(self, capsys):
        code, out, _ = run(capsys, "expand", "--param", "x=3/8")
        payload = json.loads(out)
        assert payload["status"] == "finite"
        assert len(payload["digits"]) == 3

    def test_fixed_point_periodic(self, capsys):
        code, out, _ = run(capsys, "expand", "--param", "sqrt(2)-1,-1")
        payload = json.loads(out)
        assert payload["status"] == "periodic"
        assert (payload["preperiod"], payload["period"]) == (0, 1)

    def test_csv_matches_json(self, capsys):
        _, js, _ = run(capsys, "expand", "--param", "x=3/8")
        _, cs, _ = run(capsys, "expand", "--param", "x=3/8", "--format", "csv")
        steps = json.loads(js)["digits"]
        rows = cs.strip().splitlines()
        assert rows[0] == "step,n,eps"
        assert len(rows) == 1 + len(steps)
        for i, row in enumerate(rows[1:]):
            si, n, eps = row.split(",")
            assert (int(si), int(n), int(eps)) == (i, steps[i]["n"], steps[i]["eps"])


class TestCommands:
    def test_islands_total_area(self, capsys):
        _, out, _ = run(
            capsys, "islands", "--param", "sqrt(2)-1,-1", "--max-period", "5"
        )
        payload = json.loads(out)
        assert payload["count"] > 0
        assert 0 < payload["total_area"] < 1.415

    def test_induction_check_exact(self, capsys):
        _, out, _ = run(
            capsys,
            "induction-check", "--param", "sqrt(2)-1,-1", "--trials", "200",
        )
        payload = json.loads(out)
        assert payload["exact"] and payload["max_error"] == 0.0

    def test_sturmian(self, capsys):
        _, out, _ = run(
            capsys,
            "sturmian", "--param", "sqrt(2)-1,-1",
            "--length", "2000", "--n-max", "10",
        )
        payload = json.loads(out)
        assert payload["sturmian"] is True

    def test_tower(self, capsys):
        _, out, _ = run(
            capsys,
            "tower", "--param", "sqrt(2)-1,-1", "--depth", "3",
            "--prefix-len", "100000",
        )
        payload = json.loads(out)
        assert payload["N"] == payload["N_a"] + payload["N_b"]

    def test_tower_readme_example(self, capsys):
        code, out, _ = run(
            capsys, "tower", "--param", "sqrt(2)-1,-1", "--depth", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["l"] == 5 and payload["N"] == payload["N_a"] + payload["N_b"]

    def test_lyapunov_seeded(self, capsys):
        argv = ["lyapunov", "--seed", "11", "--trials", "30", "--l", "200"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["seed"] == 11 and payload["trials"] == 30

    def test_integrals_small(self, capsys):
        _, out, _ = run(capsys, "integrals", "--terms", "2000")
        payload = json.loads(out)
        assert 2.4 < payload["ln_r"]["value"] < 2.47
        assert payload["ln_M"]["tail_bound"] > 0

    def test_dimension_table(self, capsys):
        _, out, _ = run(capsys, "dimension", "--table", "--format", "csv")
        rows = out.strip().splitlines()
        assert rows[0] == "family,n,value"
        assert len(rows) == 11

    def test_dimension_family_value(self, capsys):
        _, out, _ = run(capsys, "dimension", "--family", "minus", "--n", "1")
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.637938, abs=1e-6)

    def test_dimension_estimate_param(self, capsys):
        _, out, _ = run(
            capsys, "dimension", "--param", "sqrt(2)-1,-1", "--depth", "40"
        )
        payload = json.loads(out)
        assert payload["method"] == "ratio_sequence"
        assert payload["value"] == pytest.approx(1.64, abs=0.05)

    def test_dimension_without_selector_errors(self, capsys):
        code, _, err = run(capsys, "dimension")
        assert code == 2

    def test_natext_check(self, capsys):
        _, out, _ = run(capsys, "natext-check", "--trials", "2000", "--seed", "4")
        payload = json.loads(out)
        assert payload["stayed"] == payload["samples"] == 2000


class TestRender:
    def test_writes_image_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "cover.ppm"
        code, stdout, _ = run(
            capsys,
            "render", "cover", "--param", "sqrt(2)-1,-1",
            "--depth", "3", "--px", "64", "--out", str(out),
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n64 ")
        manifest = json.loads((tmp_path / "cover.ppm.manifest.json").read_text())
        assert manifest["command"] == "render"
        assert manifest["flags"]["px"] == 64

    def test_requires_out(self, capsys):
        code, _, err = run(
            capsys, "render", "cover", "--param", "sqrt(2)-1,-1", "--px", "64"
        )
        assert code == 2

    def test_mono_palette_is_grayscale(self, capsys, tmp_path):
        out = tmp_path / "mono.ppm"
        run(
            capsys,
            "render", "islands", "--param", "sqrt(2)-1,-1",
            "--periods", "1,5", "--px", "64",
            "--palette", "mono", "--out", str(out),
        )
        data = out.read_bytes()
        body = data.split(b"\n", 3)[3]
        px = memoryview(body)
        assert all(px[i] == px[i + 1] == px[i + 2] for i in range(0, 300, 3))

    def test_mono_is_the_integer_luma_of_every_palette_color(
        self, capsys, tmp_path, monkeypatch
    ):
        # one pixel of each palette color, grayed by the mono palette; in
        # 16 bits 255 * 587 wrapped, and white came out 58
        import numpy as np
        from sqrect import render

        colors = [
            c for v in render.PALETTE.values() for c in (v if isinstance(v, list) else [v])
        ]
        img = render.Image(len(colors), 1, 1.0, np.array([colors], dtype=np.uint8))
        monkeypatch.setattr(render, "render_islands", lambda p, periods, px: img)
        out = tmp_path / "mono.ppm"
        run(
            capsys,
            "render", "islands", "--param", "sqrt(2)-1,-1",
            "--palette", "mono", "--out", str(out),
        )
        want = [(299 * r + 587 * g + 114 * b) // 1000 for r, g, b in colors]
        assert list(out.read_bytes().split(b"\n", 3)[3]) == [v for v in want for _ in "rgb"]
        assert want[colors.index(render.PALETTE["background"])] == 255
        assert want[colors.index(render.PALETTE["cover_rectangle"])] == 70


class TestOutFiles:
    def test_out_writes_payload_and_manifest(self, capsys, tmp_path):
        dest = tmp_path / "expand.json"
        code, stdout, _ = run(
            capsys, "expand", "--param", "x=3/8", "--out", str(dest)
        )
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["status"] == "finite"
        manifest = json.loads((tmp_path / "expand.json.manifest.json").read_text())
        assert manifest["command"] == "expand"
        assert manifest["seed"] is None


def _readme_commands() -> list[str]:
    """The `sqrect ...` lines of the README's CLI code block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [line for line in lines if line.startswith("sqrect ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
    assert code == 0, err
