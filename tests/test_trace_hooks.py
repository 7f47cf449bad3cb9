"""The benchmark's tracer patches names in the package; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = [b for table in (tracer.SPANS, tracer.COUNTS) for group in table.values()
                for b in group]
    assert bindings
    missing = [f"chsh_selftest.{module}.{attr}" for module, attr in bindings
               if not callable(getattr(importlib.import_module(f"chsh_selftest.{module}"),
                                       attr, None))]
    assert not missing, f"perfbench/tracer.py patches names that do not exist: {missing}"
