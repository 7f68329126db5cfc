"""CLI golden output: stdout, stderr and exit code of fixed command lines.

Every command line runs in-process through ``cli.run`` in each output format
and is compared byte for byte with ``cli_golden.json``.  The usage and
invalid-choice messages of the argument errors are written by argparse, so
those entries hold the wording of the Python 3.11 argparse the fixture was
made with.  To rewrite the fixture from the current code (only when an output
change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from loopalg.cli import _COMMANDS, SUITES, run

FIXTURE = Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json", "latex")

# (space, n, command and its arguments)
COMMAND_LINES = [
    ("cp", 2, ["coproduct", "A[3,1]"]),
    ("hp", 2, ["coproduct", "B[3,1]", "--route", "pipeline"]),
    ("cp", 3, ["coproduct", "2*A[4,2]-1/3*B[3,1]"]),
    ("cp", 3, ["coproduct", "2*A[4,2]-1/3*B[3,1]", "--route", "pipeline"]),
    ("cp", 2, ["coproduct", "A[1,1]"]),
    ("cp", 2, ["product", "s[1,0]", "m[1,1]"]),
    ("cp", 3, ["product", "s[1,0] x m[1,1]+1/2*s[2,1] x s[1,0]"]),
    ("cp", 2, ["gysin", "a1", "--k", "2", "--map", "pL"]),
    ("cp", 2, ["gysin", "ab1", "--k", "3", "--map", "pV:2"]),
    ("hp", 3, ["gysin", "ab2", "--k", "3", "--map", "pV:1"]),
    ("cp", 2, ["cap", "a1", "--k", "2", "--m", "1"]),
    ("hp", 3, ["cap", "ab2", "--k", "4", "--m", "3"]),
    ("cp", 2, ["table"]),
    ("hp", 3, ["table", "--max-degree", "40"]),
    ("cp", 2, ["verify", "duality", "--max-k", "3"]),
    ("cp", 2, ["verify", "coassoc", "--max-k", "3"]),
    ("hp", 2, ["verify", "pipeline", "--max-k", "3"]),
    ("cp", 3, ["verify", "presentation", "--max-k", "3"]),
    ("cp", 2, ["verify", "gysin", "--max-k", "3"]),
    ("cp", 1, ["verify", "rings", "--max-k", "3"]),
    # exit 2: expression, usage and argument errors
    ("cp", 2, ["coproduct", "A[1,5]"]),
    ("cp", 2, ["product", "A[1,0]"]),
    ("cp", 2, ["gysin", "a1", "--k", "2", "--map", "zz"]),
    ("cp", 2, ["cap", "a1", "--k", "2", "--m", "2"]),
    ("cp", 2, ["gysin", "a1", "--k", "2", "--map", "pV:2"]),
    ("cp", 2, ["gysin", "a5", "--k", "2", "--map", "pL"]),
    ("cp", 2, ["cap", "ab1", "--k", "1", "--m", "1"]),
    ("cp", 2, ["table", "--max-degree", "-1"]),
    ("cp", 2, ["verify", "bogus"]),
    ("cp", 0, ["table"]),
]

ARGVS = [
    ["--space", space, "--n", str(n), *rest, "--format", fmt]
    for space, n, rest in COMMAND_LINES
    for fmt in FORMATS
]


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_command_lines_cover_every_command_and_suite():
    commands = {rest[0] for _, _, rest in COMMAND_LINES}
    suites = {rest[1] for _, _, rest in COMMAND_LINES if rest[0] == "verify"}
    assert commands >= set(_COMMANDS)
    assert suites >= set(SUITES)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_matches_golden(argv, golden, monkeypatch):
    # argparse wraps its usage lines to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    record = {" ".join(argv): invoke(argv) for argv in ARGVS}
    FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(record)} entries to {FIXTURE}")
