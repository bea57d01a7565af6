"""The per-layer benchmark (`perfbench/tracing.py`) wraps matchcover's
functions by module and name; a name that no longer resolves breaks the
traced run, so each one is checked here.  The tracer is loaded from its
file and nothing in it is run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing_module()
    spans = [target for targets in tracing.SPANS.values()
             for target in targets]
    leaves = list(tracing.LEAVES.values())
    assert spans and leaves
    missing = [(mod, fn) for mod, fn in spans
               if not callable(getattr(importlib.import_module(mod), fn,
                                       None))]
    missing += [(mod, cls, meth) for mod, cls, meth in leaves
                if meth not in vars(getattr(importlib.import_module(mod),
                                            cls, object))]
    assert missing == []
