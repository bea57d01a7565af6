"""The repo's pytest configuration turns every warning into an error.  A
failing hypothesis test must still count as one failure, with the tests
after it run: on a failure hypothesis imports libcst to write its patch,
and that import warns, which must not end the session with
INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


@given(st.integers())
def test_passes(x):
    assert isinstance(x, int)
"""


def test_a_failing_given_test_leaves_the_run_going(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
