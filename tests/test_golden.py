"""Golden transcripts of the CLI: every README command, with cheap flags, in
all three output formats, plus `--out` payloads and a few error cases.

Each case runs `sqrect.cli.main` in an empty directory and renders what a
user sees into one transcript: the command line, the exit code, stdout,
stderr and every file the run wrote. The transcript must equal
`tests/golden/<case>.txt` byte for byte. Text files are written into the
transcript as they are; binary ones (the P6 renders) as their SHA-256
and size.

To rewrite the golden files after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from sqrect.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SILVER = "sqrt(2)-1,-1"

# (case name, argv): each runs once per output format
COMMANDS = [
    ("expand-rational", ["expand", "--param", "x=3/8"]),
    ("expand-surd", ["expand", "--param", SILVER]),
    ("expand-float", ["expand", "--param", "0.4142135623730951,-1", "--depth", "5"]),
    ("expand-no-digits", ["expand", "--param", SILVER, "--depth", "0"]),
    ("orbit", ["orbit", "--param", SILVER, "--point", "1/3,2/7", "--depth", "50"]),
    ("islands", ["islands", "--param", SILVER, "--max-period", "21"]),
    # a bound below the shortest period, 2 at eps = +1: no cell
    ("islands-none", ["islands", "--param", "sqrt(2)-1,1", "--max-period", "1"]),
    # theta = 0: the seed square [0, 1]^2 in Fractions, as every island there
    ("islands-zero", ["islands", "--param", "0,1", "--max-period", "5"]),
    ("induction-check", ["induction-check", "--param", SILVER, "--trials", "100"]),
    ("induction-check-float",
     ["induction-check", "--param", "0.4142135623730951,-1", "--trials", "50"]),
    ("sturmian", ["sturmian", "--param", SILVER, "--length", "200", "--n-max", "5"]),
    ("tower", ["tower", "--param", SILVER, "--depth", "3", "--prefix-len", "100000"]),
    ("lyapunov", ["lyapunov", "--trials", "20", "--l", "50"]),
    ("integrals", ["integrals", "--terms", "2000"]),
    ("dimension-table", ["dimension", "--table"]),
    ("dimension-family", ["dimension", "--family", "plus", "--n", "2"]),
    ("dimension-param", ["dimension", "--param", SILVER, "--depth", "50"]),
    ("render-cover",
     ["render", "cover", "--param", SILVER, "--depth", "2", "--px", "64",
      "--out", "cover.ppm"]),
    ("render-discontinuities",
     ["render", "discontinuities", "--param", SILVER, "--depth", "5", "--px", "64",
      "--out", "discontinuities.ppm"]),
    ("render-islands",
     ["render", "islands", "--param", SILVER, "--periods", "1,5", "--px", "64",
      "--palette", "mono", "--out", "islands.ppm"]),
    ("natext-check", ["natext-check", "--trials", "500"]),
    # the payload goes to the --out file instead of stdout
    ("expand-out", ["expand", "--param", "x=3/8", "--out", "expand.out"]),
    ("tower-out",
     ["tower", "--param", SILVER, "--depth", "3", "--prefix-len", "100000",
      "--out", "tower.out"]),
    ("lyapunov-out",
     ["lyapunov", "--trials", "20", "--l", "50", "--seed", "7", "--out", "lyap.out"]),
]
FORMATS = ("json", "csv", "text")
# (case name, argv): runs once, in the default format
ERRORS = [
    ("error-malformed-number", ["expand", "--param", "1/3,abc"]),
    ("error-malformed-point", ["orbit", "--param", SILVER, "--point", "1/3"]),
    ("error-outside-domain", ["expand", "--param", "5,-1"]),
    ("error-word-too-short",
     ["sturmian", "--param", SILVER, "--length", "50", "--n-max", "3"]),
    ("error-render-without-out", ["render", "cover", "--param", SILVER, "--px", "64"]),
    ("error-dimension-without-selector", ["dimension"]),
]
CASES = [
    (f"{name}.{fmt}", [*argv, "--format", fmt])
    for name, argv in COMMANDS
    for fmt in FORMATS
] + ERRORS


def transcript(argv: list[str]) -> str:
    """Run the CLI in the current (empty) directory; what a user sees."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    parts = [
        f"$ {shlex.join(['sqrect', *argv])}\n",
        f"exit {code}\n",
        f"--- stdout\n{out.getvalue()}",
        f"--- stderr\n{err.getvalue()}",
    ]
    for name in sorted(os.listdir()):
        data = Path(name).read_bytes()
        try:
            parts.append(f"--- file {name}\n{data.decode()}")
        except UnicodeDecodeError:
            digest = hashlib.sha256(data).hexdigest()
            parts.append(f"--- file {name} sha256 {digest} {len(data)} bytes\n")
    return "".join(parts)


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_transcript_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = (GOLDEN / f"{name}.txt").read_bytes().decode()
    assert transcript(argv) == golden


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(n for n, _ in CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    home = os.getcwd()
    for name, argv in CASES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                text = transcript(argv)
            finally:
                os.chdir(home)
        (GOLDEN / f"{name}.txt").write_bytes(text.encode())
    sys.stdout.write(f"wrote {len(CASES)} golden transcripts to {GOLDEN}\n")
