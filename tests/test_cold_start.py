"""What a CLI command imports in a fresh interpreter.

Each command runs in a child as ``python -m loopalg.cli`` does, through
``runpy``, with ``-S`` so that no site hook adds modules of its own.  The
child lists ``sys.modules`` on stderr when the command is done.  A command
loads ``loopalg.verify`` only for the suites defined there, and ``json`` only
for ``--format json``; no command loads ``dataclasses`` or ``inspect``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """\
import runpy, sys
sys.argv[0] = "loopalg"
try:
    runpy.run_module("loopalg.cli", run_name="__main__")
finally:
    sys.stdout.flush()
    print(*sorted(sys.modules), file=sys.stderr)
"""

# The optional or heavy modules whose presence these tests pin.
WATCHED = {"dataclasses", "inspect", "json", "loopalg.verify"}


def _run(*argv):
    """Stdout and the set of loaded module names of one command, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, "--space", "cp", "--n", "2", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(proc.stderr.split())


def test_text_coproduct_loads_neither_verify_nor_json():
    out, modules = _run("coproduct", "A[3,1]")
    assert out == "A[1,0] x A[2,1] + A[1,1] x A[2,0] + A[2,0] x A[1,1] + A[2,1] x A[1,0]\n"
    assert "loopalg.loops" in modules
    assert modules & WATCHED == set()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["coproduct", "B[3,1]", "--route", "pipeline", "--format", "latex"], set()),
        (["product", "s[1,0]", "m[1,1]"], set()),
        (["gysin", "a1", "--k", "3", "--map", "pV:1"], set()),
        (["cap", "ab0", "--k", "3", "--m", "2"], set()),
        (["table", "--max-degree", "12"], set()),
        (["table", "--max-degree", "12", "--format", "json"], {"json"}),
        (["verify", "duality", "--max-k", "3"], set()),
        (["verify", "gysin", "--max-k", "2", "--format", "json"], {"json", "loopalg.verify"}),
        (["verify", "rings", "--max-k", "2"], {"loopalg.verify"}),
    ],
)
def test_each_command_loads_only_what_it_uses(argv, loaded):
    _, modules = _run(*argv)
    assert modules & WATCHED == loaded
