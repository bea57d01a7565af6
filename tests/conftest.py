import os
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

sys.path.insert(0, TESTS)
# pytest itself finds src/ through `pythonpath` in pyproject.toml; the
# interpreters that some tests start find it through this
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def dp_runs(monkeypatch):
    """The graphs the span DP runs on, one entry per run; a call of
    `matching_span` that reads the memo adds none."""
    from matchcover import span

    runs = []
    real = span._run_dp

    def counted(g):
        runs.append(g)
        return real(g)

    monkeypatch.setattr(span, "_run_dp", counted)
    return runs
