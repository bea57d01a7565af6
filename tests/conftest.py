import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

sys.path.insert(0, TESTS)
# pytest itself finds src/ through `pythonpath` in pyproject.toml; the
# interpreters that some tests start find it through this
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
