"""Outside-in tracing of the package's public functions.

Each traced name is replaced, in the namespace of the module that calls it,
by a wrapper that records a span (name, start, end, parent span, op id).
``chsh_selftest.extraction.subtest_table`` and ``chsh_selftest.cli.certify``
are examples: those modules import the names directly, so patching the
defining module alone would miss their calls.  Spans stay in memory until
the run ends.  Helpers called thousands of times per op are counted, not
timed, because a span would cost more than the call.  ``bits`` is not
wrapped at all; its time shows in its callers' self time.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import Counter

# span name -> the (module, attribute) bindings its callers look up
SPANS = {
    "verifier.certify": (("cli", "certify"),),
    "verifier.extraction_distance": (("verifier", "extraction_distance"),),
    "verifier.swap_isometry_apply": (("verifier", "swap_isometry_apply"),),
    "verifier.pauli_target": (("verifier", "pauli_target"),),
    "verifier.compute_junk": (("verifier", "compute_junk"),),
    "verifier.measure_general_conditions": (("verifier", "measure_general_conditions"),),
    "verifier.measure_epsilons": (("verifier", "measure_epsilons"),),
    "extraction.search_questions": (("verifier", "search_questions"),),
    "extraction.find_pair_question": (("extraction", "find_pair_question"),),
    "extraction.build_xz": (("verifier", "build_xz"),),
    "game.exact_value": (("cli", "exact_value"), ("verifier", "exact_value")),
    "game.expectation_table": (("game", "expectation_table"),),
    "game.subtest_table": (("game", "subtest_table"), ("extraction", "subtest_table")),
    "game.subtest_value": (("extraction", "subtest_value"), ("verifier", "subtest_value")),
    "game.referee_simulate": (("cli", "referee_simulate"),),
    "strategy.load_strategy": (("cli", "load_strategy"),),
    "strategy.validate": (("cli", "validate"),),
    "strategy.noisy_strategy": (("cli", "noisy_strategy"),),
    "jsonio.loads": (("jsonio", "loads"),),
    "jsonio.dumps": (("jsonio", "dumps"),),
}

# count-only names; ``extraction.apply_op`` is apply_on_a + apply_on_b
COUNTS = {
    "extraction.apply_op": (("extraction", "apply_on_a"), ("extraction", "apply_on_b")),
    "extraction.sign_normalize": (("extraction", "sign_normalize"),),
    "game.pair_expectation": (("game", "pair_expectation"),),
}

#: the op's root span, opened by the worker around ``cli.main``
ROOT = "cli.main"

#: every per-layer metric a traced run reports, with its unit
PER_LAYER = (
    ("verifier.extraction_distance.calls", "count"),
    ("verifier.extraction_distance.s", "s"),
    ("verifier.extraction_distance.self_s", "s"),
    ("verifier.swap_isometry_apply.calls", "count"),
    ("verifier.swap_isometry_apply.s", "s"),
    ("verifier.pauli_target.calls", "count"),
    ("verifier.pauli_target.s", "s"),
    ("verifier.compute_junk.calls", "count"),
    ("verifier.compute_junk.s", "s"),
    ("verifier.measure_general_conditions.s", "s"),
    ("verifier.measure_general_conditions.peak_mb", "MB"),
    ("verifier.measure_epsilons.s", "s"),
    ("verifier.general_pairs", "count"),
    ("verifier.general_coverage", "fraction"),
    ("verifier.certify.calls", "count"),
    ("verifier.certify.s", "s"),
    ("verifier.certify.self_s", "s"),
    ("extraction.search_questions.s", "s"),
    ("extraction.find_pair_question.calls", "count"),
    ("extraction.find_pair_question.s", "s"),
    ("extraction.build_xz.s", "s"),
    ("extraction.apply_op.calls", "count"),
    ("extraction.sign_normalize.calls", "count"),
    ("game.exact_value.calls", "count"),
    ("game.exact_value.s", "s"),
    ("game.expectation_table.calls", "count"),
    ("game.expectation_table.s", "s"),
    ("game.subtest_table.calls", "count"),
    ("game.subtest_table.s", "s"),
    ("game.subtest_value.calls", "count"),
    ("game.subtest_value.s", "s"),
    ("game.pair_expectation.calls", "count"),
    ("game.referee_simulate.calls", "count"),
    ("game.referee_simulate.s", "s"),
    ("strategy.load_strategy.calls", "count"),
    ("strategy.load_strategy.s", "s"),
    ("strategy.load_strategy.self_s", "s"),
    ("strategy.validate.calls", "count"),
    ("strategy.validate.s", "s"),
    ("strategy.noisy_strategy.calls", "count"),
    ("strategy.noisy_strategy.s", "s"),
    ("jsonio.loads.s", "s"),
    ("jsonio.loads.bytes", "bytes"),
    ("jsonio.dumps.s", "s"),
    ("jsonio.dumps.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "fraction"),
)


class Tracer:
    """Holds the spans and counts of one traced run and the patches that make them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.stats: Counter = Counter()  # bytes, general pairs, 4^n, ...
        self.peak_mb = 0.0
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                return self._observe(name, fn, args, kwargs)
            finally:
                self.close(rec)
        return traced

    def _count_wrapper(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _observe(self, name: str, fn, args, kwargs):
        """Call ``fn`` and record the extra quantities some spans carry."""
        if name == "verifier.measure_general_conditions":
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb = max(self.peak_mb, peak / 2**20)
        result = fn(*args, **kwargs)
        if name == "jsonio.loads":
            self.stats["jsonio.loads.bytes"] += len(args[0])
        elif name == "jsonio.dumps":
            self.stats["jsonio.dumps.bytes"] += len(result)
        elif name == "verifier.certify":
            coverage = result.measured.coverage
            space = 4 ** result.n
            self.stats["general_pairs"] += space if coverage.mode == "exhaustive" else coverage.count
            self.stats["general_space"] += space
        return result

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, bindings in table.items():
                for module_name, attr in bindings:
                    module = importlib.import_module(f"chsh_selftest.{module_name}")
                    original = getattr(module, attr)
                    self._patched.append((module, attr, original))
                    setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int, overhead: float) -> dict:
        """Per-op totals of every PER_LAYER metric."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        agg: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            agg[f"{name}.calls"] += 1
            agg[f"{name}.s"] += end - start
            agg[f"{name}.self_s"] += end - start - child_time[i]
        for name, count in self.counts.items():
            agg[f"{name}.calls"] += count
        for key in ("jsonio.loads.bytes", "jsonio.dumps.bytes"):
            agg[key] = self.stats[key]
        agg["verifier.general_pairs"] = self.stats["general_pairs"]
        values = {name: agg[name] / ops for name, _ in PER_LAYER}
        values["verifier.measure_general_conditions.peak_mb"] = self.peak_mb
        space = self.stats["general_space"]
        values["verifier.general_coverage"] = self.stats["general_pairs"] / space if space else 0.0
        values["trace.overhead"] = overhead
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
