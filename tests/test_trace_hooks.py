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


def test_traced_certify_records_the_distance_spans():
    """A traced certify records every distance-stage span and reports the same."""
    from chsh_selftest import NoiseSpec, noisy_strategy, verifier

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    s = noisy_strategy(2, NoiseSpec(model="bob-rotation", param=0.1))
    plain = verifier.certify(s).to_text()
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = verifier.certify(s).to_text()
    finally:
        trace.uninstall()
    names = [name for name, *_ in trace.spans]
    spans = ("extraction_distance", "swap_isometry_apply", "pauli_target", "compute_junk")
    missing = [name for name in spans if f"verifier.{name}" not in names]
    assert not missing, f"certify bypasses the traced bindings of {missing}"
    # the distance stage itself, not only compute_junk, runs the traced kernels
    nested = {(name, names[parent]) for name, _, _, parent, _ in trace.spans
              if parent is not None}
    for kernel in ("swap_isometry_apply", "pauli_target"):
        assert (f"verifier.{kernel}", "verifier.extraction_distance") in nested
    assert traced == plain
