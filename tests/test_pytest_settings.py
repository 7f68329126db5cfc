"""The repo's pytest settings let a failing property test report its example.

``filterwarnings = ["error"]`` turns every warning into an error, and a
warning raised while hypothesis reports a failure would end the run in
``INTERNALERROR`` before the falsifying example is printed.  This runs a
failing ``@given`` test in a child pytest under the repo's ``pyproject.toml``.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    argv = ["-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_fails.py"]
    run = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
