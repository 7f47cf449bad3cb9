"""Verifying extracted operators against the self-testing conditions.

Given a strategy near the Tsirelson value, the extracted X'/Z' pairs
should commute across qubits, anticommute on each qubit, and match
their partner on the test state.  This module measures those norms,
converts the observed score shortfall into certified ceilings for them,
and applies the swap isometry to measure how far the real state and
operators are from the ideal pair (up to a junk register).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bits, jsonio
from .extraction import ExtractedOperators, build_xz, search_questions
from .game import PIGEONHOLE_SLACK, TSIRELSON
from .game import exact_value  # not called; perfbench/tracer.py patches this binding
from .game import subtest_value  # not called; perfbench/tracer.py patches this binding
from .strategy import Strategy, ideal_state

#: largest n the full certification pipeline accepts
MAX_CERTIFY_N = 8

#: exhaustive general-condition coverage above this n is refused by "auto"
MAX_EXHAUSTIVE_N = 6

DEFAULT_GENERAL_SAMPLES = 10_000

#: distance pairs per report: all 4^n when that is no more, else a seeded sample
DISTANCE_PAIRS = 256

#: slack for comparing measured norms against certified ceilings
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Coverage:
    mode: str  # "exhaustive" | "sampled"
    count: int | None = None
    seed: int | None = None

    def describe(self):
        if self.mode == "exhaustive":
            return "exhaustive"
        return {"mode": "sampled", "count": self.count, "seed": self.seed}


@dataclass(frozen=True)
class ConditionNorms:
    """Measured worst-case condition norms on the strategy state.

    eps1: commutation across distinct qubits, eps2: X/Z partner
    identification, eps3: same-qubit anticommutation.  The general
    fields are the string-product analogues and may be None until
    measured.
    """

    eps1: float
    eps2: float
    eps3: float
    general_anticommute_max: float | None = None
    general_swap_max: float | None = None
    coverage: Coverage | None = None


def _partner(k: int, n: int) -> int:
    """Index k + n/2, wrapped back into 1..n."""
    return (k + n // 2 - 1) % n + 1


def measure_epsilons(strategy: Strategy, ops: ExtractedOperators) -> ConditionNorms:
    """Worst single-qubit condition norms (general fields left unset)."""
    psi = strategy.state.reshape(ops.dim_a, ops.dim_b)
    n = ops.n
    eps1 = 0.0
    for k in range(1, n + 1):
        xk = ops.apply("x", k, psi)
        for ell in range(1, n + 1):
            if ell == k:
                continue
            diff = ops.apply("z", ell, xk) - ops.apply("x", k, ops.apply("z", ell, psi))
            eps1 = max(eps1, float(np.linalg.norm(diff)))
    eps2 = max(float(np.linalg.norm(ops.apply("x", k, psi)
                                    - ops.apply("z", _partner(k, n), psi)))
               for k in range(1, n + 1))
    eps3 = max(float(np.linalg.norm(ops.apply("z", k, ops.apply("x", k, psi))
                                    + ops.apply("x", k, ops.apply("z", k, psi))))
               for k in range(1, n + 1))
    return ConditionNorms(eps1=eps1, eps2=eps2, eps3=eps3)


def _string_table(ops: ExtractedOperators, kind: str, w: np.ndarray) -> np.ndarray:
    """table[s] = (X'^s or Z'^s) applied to w, for every integer s.

    Built by recursion on the most significant set bit, which is the
    leftmost (last applied) factor of the ordered product.
    """
    n = ops.n
    table = np.empty((1 << n,) + w.shape, dtype=complex)
    table[0] = w
    for s in range(1, 1 << n):
        pos = s.bit_length() - 1
        table[s] = ops.apply(kind, n - pos, table[s - (1 << pos)])
    return table


def measure_general_conditions(strategy: Strategy, ops: ExtractedOperators,
                               coverage: str = "auto",
                               samples: int = DEFAULT_GENERAL_SAMPLES,
                               seed: int = 0) -> ConditionNorms:
    """Worst string-product condition norms over (s, t) pairs.

    Exhaustive for n <= 6 (or on request); otherwise a seeded uniform
    sample of (s, t) pairs.  Returns a ConditionNorms with the general
    fields (and coverage) filled in and eps1..eps3 measured alongside.
    """
    n = ops.n
    psi = strategy.state.reshape(ops.dim_a, ops.dim_b)
    if coverage == "auto":
        coverage = "exhaustive" if n <= MAX_EXHAUSTIVE_N else "sampled"
    if coverage not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown coverage {coverage!r}")

    x_table = _string_table(ops, "x", psi)
    z_table = _string_table(ops, "z", psi)

    # the (s, t) tables are the largest arrays of a certify run, so the
    # signed differences below are formed in place
    signs = bits.sign_grid(n)
    if coverage == "exhaustive":
        if n > MAX_EXHAUSTIVE_N:
            raise ValueError(f"exhaustive coverage limited to n <= {MAX_EXHAUSTIVE_N}")
        zx = _string_table(ops, "z", x_table)  # zx[t, s] = Z'^t X'^s psi
        xz = _string_table(ops, "x", z_table)  # xz[s, t] = X'^s Z'^t psi
        xz *= signs[:, :, None, None]
        zx -= xz.transpose(1, 0, 2, 3)
        anticommute_max = float(np.max(np.linalg.norm(zx, axis=(2, 3))))
        s_all = np.arange(1 << n)
        cov = Coverage(mode="exhaustive")
    else:
        rng = np.random.default_rng(seed)
        s_draw = rng.integers(0, 1 << n, size=samples)
        t_draw = rng.integers(0, 1 << n, size=samples)
        left = np.empty((samples,) + psi.shape, dtype=complex)
        right = np.empty_like(left)
        for t in np.unique(t_draw):
            rows = t_draw == t
            left[rows] = ops.apply_string("z", bits.from_int(int(t), n),
                                          x_table[s_draw[rows]])
        for s in np.unique(s_draw):
            rows = s_draw == s
            right[rows] = ops.apply_string("x", bits.from_int(int(s), n),
                                           z_table[t_draw[rows]])
        right *= signs[s_draw, t_draw][:, None, None]
        left -= right
        anticommute_max = float(np.max(np.linalg.norm(left, axis=(1, 2))))
        s_all = np.unique(s_draw)
        cov = Coverage(mode="sampled", count=samples, seed=seed)

    # second family: Z' on the half-swapped string against X'^s
    m = n // 2
    lowmask = (1 << m) - 1
    swapped = ((s_all & lowmask) << m) | (s_all >> m)
    signs2 = np.where(bits.parity((s_all >> m) & s_all & lowmask), -1.0, 1.0)
    diff2 = z_table[swapped] - signs2[:, None, None] * x_table[s_all]
    swap_max = float(np.max(np.linalg.norm(diff2, axis=(1, 2))))

    return replace(measure_epsilons(strategy, ops), general_anticommute_max=anticommute_max,
                   general_swap_max=swap_max, coverage=cov)


def certified_bounds(delta: float) -> dict:
    """Condition-norm ceilings implied by a score shortfall delta >= 0."""
    if delta < 0:
        raise ValueError("shortfall must be nonnegative")
    quarter = (delta * math.sqrt(2.0)) ** 0.25
    half = (delta * math.sqrt(2.0)) ** 0.5
    return {"eps1": 32.0 * quarter, "eps2": 4.0 * quarter, "eps3": 4.0 * half}


# ---------------------------------------------------------------------------
# swap isometry and extraction distances

def swap_isometry_apply(ops: ExtractedOperators, v: np.ndarray) -> np.ndarray:
    """Append n |0> ancillas and run the swap circuit for each qubit.

    For k = 1..n: Hadamard on ancilla k, controlled Z'_k, Hadamard,
    controlled X'_k.  Ancilla k is still |0> when stage k starts, so the
    stage only touches the 2^(k-1) branches that can be nonzero; these
    lead the working array, ahead of the device axes.  The output is
    ordered device-major with the ancilla register (qubit 1 most
    significant) last, and has the same norm as ``v``.
    """
    da, db = ops.dim_a, ops.dim_b
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    w = np.asarray(v, dtype=complex).reshape(1, da, db)
    for k in range(1, ops.n + 1):
        h = w * inv_sqrt2
        zh = ops.apply("z", k, h)
        g1 = ops.apply("x", k, (h - zh) * inv_sqrt2)
        w = np.stack([(h + zh) * inv_sqrt2, g1], axis=1).reshape(-1, da, db)
    return w.reshape(1 << ops.n, -1).T.reshape(-1)


def pauli_target(n: int, p: str, q: str) -> np.ndarray:
    """X^q Z^p applied to the ideal n-qubit state, on the ancilla register."""
    if len(p) != n or len(q) != n:
        raise ValueError("Pauli selectors must have length n")
    psi = ideal_state(n)
    qi = bits.to_int(q)
    idx = np.arange(1 << n)
    shifted = psi[idx ^ qi]
    return np.where(bits.parity((idx ^ qi) & bits.to_int(p)), -1.0, 1.0) * shifted


def compute_junk(strategy: Strategy, ops: ExtractedOperators) -> tuple[np.ndarray, float]:
    """Device-register residual of the isometry output at p = q = 0.

    Returns the normalized junk vector and its pre-normalization norm
    (1 for perfect extraction).  A norm below 1e-12 means the output has
    essentially no overlap with the ideal state and is reported as an
    error rather than normalized into nonsense.
    """
    out = swap_isometry_apply(ops, strategy.state)
    mat = out.reshape(-1, 1 << ops.n)
    raw = mat @ ideal_state(ops.n).conj()
    norm = float(np.linalg.norm(raw))
    if norm < 1e-12:
        raise ValueError("junk extraction failed: isometry output is "
                         "orthogonal to the ideal state")
    return raw / norm, norm


def extraction_distance(strategy: Strategy, ops: ExtractedOperators,
                        p: str, q: str, junk: np.ndarray) -> tuple[float, float]:
    """Distances between the extracted and ideal Pauli actions.

    Runs the swap isometry Phi once on X'^q Z'^p psi' and returns
    (fixed, optimal).  fixed is || out - junk (x) target || with
    out = Phi(X'^q Z'^p psi'), target = X^q Z^p psi and the supplied junk
    vector; optimal minimizes over unit junk.  With out split as
    overlap (x) target + rest, rest orthogonal to every junk (x) target,
    optimal = sqrt((|overlap| - 1)^2 + |rest|^2); unlike the expanded
    sqrt(|out|^2 + 1 - 2 |overlap|) it keeps full precision near zero.
    """
    psi = strategy.state.reshape(ops.dim_a, ops.dim_b)
    out = swap_isometry_apply(ops, ops.apply_string("x", q, ops.apply_string("z", p, psi)))
    target = pauli_target(ops.n, p, q)
    fixed = float(np.linalg.norm(out - np.kron(junk, target)))
    overlap = out.reshape(-1, 1 << ops.n) @ target.conj()
    rest = float(np.linalg.norm(out - np.kron(overlap, target)))
    return fixed, math.hypot(float(np.linalg.norm(overlap)) - 1.0, rest)


# ---------------------------------------------------------------------------
# certification pipeline

@dataclass(frozen=True)
class SelfTestReport:
    """Everything the certification pipeline measured and concluded."""

    n: int
    value: float
    epsilon: float
    delta_cert: float
    transcript: list
    q_b_star: str
    q_a_star: str
    per_subtest_delta: tuple
    pair_questions: dict
    certified: dict
    measured: ConditionNorms
    junk_norm: float
    distances_fixed: dict
    distances_optimal: dict
    distance_coverage: Coverage
    flags: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def to_document(self) -> dict:
        meas = {
            "eps1": self.measured.eps1,
            "eps2": self.measured.eps2,
            "eps3": self.measured.eps3,
            "general_anticommute_max": self.measured.general_anticommute_max,
            "general_swap_max": self.measured.general_swap_max,
            "coverage": self.measured.coverage.describe() if self.measured.coverage else None,
        }
        return {
            "n": self.n,
            "value": self.value,
            "epsilon": self.epsilon,
            "delta_cert": self.delta_cert,
            "transcript": self.transcript,
            "q_b_star": self.q_b_star,
            "q_a_star": self.q_a_star,
            "per_subtest_delta": list(self.per_subtest_delta),
            "pair_questions": {f"{k},{ell}": q
                               for (k, ell), q in sorted(self.pair_questions.items())},
            "certified": self.certified,
            "measured": meas,
            "junk_norm": self.junk_norm,
            "distances_fixed": {f"{p}:{q}": d
                                for (p, q), d in sorted(self.distances_fixed.items())},
            "distances_optimal": {f"{p}:{q}": d
                                  for (p, q), d in sorted(self.distances_optimal.items())},
            "distance_coverage": self.distance_coverage.describe(),
            "flags": self.flags,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        """Structured text form; norms carry 12 significant digits."""
        return jsonio.dumps(self.to_document(), float_digits=12)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _distance_pairs(n: int, seed: int) -> tuple[list, Coverage]:
    total = 1 << (2 * n)
    if total <= DISTANCE_PAIRS:
        pairs = [(p, q) for p in bits.all_strings(n) for q in bits.all_strings(n)]
        return pairs, Coverage(mode="exhaustive")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 1 << n, size=(DISTANCE_PAIRS, 2))
    pairs = [(bits.from_int(int(a), n), bits.from_int(int(b), n)) for a, b in draws]
    return pairs, Coverage(mode="sampled", count=DISTANCE_PAIRS, seed=seed)


def certify(strategy: Strategy, coverage: str = "auto",
            samples: int = DEFAULT_GENERAL_SAMPLES, seed: int = 0) -> SelfTestReport:
    """Run the full self-test pipeline on one strategy.

    Searches the questions, reads the exact value and its shortfall off
    the same subtest table, relabels the searched questions to
    all-zeros, checks the pigeonhole guarantees, extracts operators,
    measures condition norms against their certified ceilings, and
    evaluates the fixed-junk and optimal-junk extraction distances of
    each Pauli pair.  Guarantee violations come back as False flags,
    never exceptions.
    """
    n = strategy.n
    if n > MAX_CERTIFY_N:
        raise ValueError(f"certification pipeline limited to n <= {MAX_CERTIFY_N}")
    m = n // 2
    canonical, transcript, searches = search_questions(strategy)
    value = searches.value
    epsilon = max(0.0, TSIRELSON - value)
    flags = {}
    flags["per_subtest_delta"] = all(
        d <= m * epsilon + PIGEONHOLE_SLACK for d in searches.per_subtest_delta)
    pair_floor = TSIRELSON - n * epsilon - PIGEONHOLE_SLACK
    flags["pair_questions"] = all(score >= pair_floor
                                  for score in searches.pair_scores.values())

    delta_cert = n * epsilon
    certified = certified_bounds(delta_cert)
    ops = build_xz(canonical)
    measured = measure_general_conditions(canonical, ops, coverage=coverage,
                                          samples=samples, seed=seed)
    for name in ("eps1", "eps2", "eps3"):
        flags[name] = getattr(measured, name) <= certified[name] + BOUND_SLACK

    junk, junk_norm = compute_junk(canonical, ops)
    pairs, dist_cov = _distance_pairs(n, seed)
    dist_fixed, dist_opt = {}, {}
    for p, q in pairs:
        dist_fixed[(p, q)], dist_opt[(p, q)] = extraction_distance(canonical, ops, p, q, junk)
    return SelfTestReport(n=n, value=value, epsilon=epsilon,
                          delta_cert=delta_cert, transcript=transcript,
                          q_b_star=searches.q_b_star, q_a_star=searches.q_a_star,
                          per_subtest_delta=searches.per_subtest_delta,
                          pair_questions=searches.pair_questions,
                          certified=certified, measured=measured,
                          junk_norm=junk_norm, distances_fixed=dist_fixed,
                          distances_optimal=dist_opt,
                          distance_coverage=dist_cov, flags=flags)
