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


def _traced(strategy):
    """Spans of a traced certify of ``strategy``, with its traced and plain reports."""
    from chsh_selftest import certify

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    plain = certify(strategy).to_text()
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = certify(strategy).to_text()
    finally:
        trace.uninstall()
    return trace.spans, traced, plain


def test_traced_certify_records_the_distance_spans():
    """A traced certify records the distance-stage spans and reports the same.

    Noise-model pairs take the Walsh kernel, which forms no isometry output,
    so only the distance and junk spans are required there."""
    from chsh_selftest import NoiseSpec, noisy_strategy

    s = noisy_strategy(2, NoiseSpec(model="bob-rotation", param=0.1))
    spans, traced, plain = _traced(s)
    names = [name for name, *_ in spans]
    missing = [name for name in ("extraction_distance", "compute_junk")
               if f"verifier.{name}" not in names]
    assert not missing, f"certify bypasses the traced bindings of {missing}"
    assert not {"verifier.swap_isometry_apply", "verifier.pauli_target"} & set(names)
    assert traced == plain


def test_traced_exact_distances_nest_the_isometry_kernels():
    """On the ideal strategy every pair has no rest, and the distance stage
    still nests neither isometry kernel: certify never forms their output.

    Both traced kernels record a span when called through the module, so
    their absence under the distance stage is not a tracer blind spot."""
    import numpy as np

    from chsh_selftest import ideal_strategy, verifier
    from chsh_selftest.extraction import build_xz

    s = ideal_strategy(2)
    spans, traced, plain = _traced(s)
    names = [name for name, *_ in spans]
    nested = {(name, names[parent]) for name, _, _, parent, _ in spans if parent is not None}
    assert {"verifier.extraction_distance", "verifier.compute_junk"} <= set(names)
    for kernel in ("swap_isometry_apply", "pauli_target"):
        assert (f"verifier.{kernel}", "verifier.extraction_distance") not in nested
        assert f"verifier.{kernel}" not in names
    assert traced == plain

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    ops = build_xz(s)
    trace = tracer.Tracer()
    trace.install()
    try:
        verifier.swap_isometry_apply(ops, np.asarray(ops.state))
        verifier.pauli_target(ops.n, 0, 0)
    finally:
        trace.uninstall()
    assert {name for name, *_ in trace.spans} == {"verifier.swap_isometry_apply",
                                                  "verifier.pauli_target"}
