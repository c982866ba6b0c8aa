"""The benchmark's tracer wraps program functions by module global name;
every name it lists must exist, or every traced run fails at install."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_global_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
