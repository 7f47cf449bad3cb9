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

#: isometry output held at once by extraction_distance, in bytes
CHUNK_BYTES = 2 << 20

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

def _branch_stacks(ops: ExtractedOperators) -> list[np.ndarray]:
    """Alice's and Bob's (2^(n/2), d, d) branch stacks of the swap isometry.

    Stage k maps v to |0> (I + Z'_k)/2 v + |1> X'_k (I - Z'_k)/2 v, and each
    side's stages act on its own tensor factor, so Phi(v) =
    sum_a |a> (x) (A_{a_A} (x) B_{a_B}) v; later qubits act on the left, and
    qubit 1 is the most significant bit of a.
    """
    m = ops.n // 2
    stacks = []
    for side, d in ((slice(0, m), ops.dim_a), (slice(m, None), ops.dim_b)):
        x, z, eye = np.array(ops.x_ops[side]), np.array(ops.z_ops[side]), np.eye(d)
        branch = np.stack([(eye + z) / 2, x @ (eye - z) / 2], axis=1)  # [qubit, bit]
        stack = branch[0]
        for factor in branch[1:]:
            stack = (factor[None] @ stack[:, None]).reshape(-1, d, d)
        stacks.append(stack)
    return stacks


def swap_isometry_apply(ops: ExtractedOperators, v: np.ndarray) -> np.ndarray:
    """Append n |0> ancillas and run the swap circuit for each qubit.

    ``v`` is a flat state or a batch shaped (..., dim_a, dim_b).  With the
    branch stacks A and B, Phi(v) is two GEMMs: A v, then (A v) B^T.  Each
    output is device-major with the ancilla register (qubit 1 most
    significant) last, and has the norm of its input.
    """
    da, db = ops.dim_a, ops.dim_b
    v = np.asarray(v, dtype=complex)
    lead, v = v.shape[:-2], v.reshape(-1, da, db)
    a_rows, b_rows = (stack.transpose(1, 0, 2).reshape(-1, stack.shape[-1])
                      for stack in _branch_stacks(ops))
    w = a_rows @ v.transpose(1, 0, 2).reshape(da, -1)  # [i, a_A, batch, j]
    w = w.reshape(-1, db) @ b_rows.T  # [i, a_A, batch, j, a_B]
    w = w.reshape(da, -1, len(v), db, len(b_rows) // db).transpose(2, 0, 3, 1, 4)
    return w.reshape(lead + (-1,))


def pauli_target(n: int, p, q) -> np.ndarray:
    """X^q Z^p applied to the ideal n-qubit state, on the ancilla register.

    p and q are length-n bit strings or integer arrays; P pairs give (P, 2^n).
    """
    if any(isinstance(s, str) and len(s) != n for s in (p, q)):
        raise ValueError("Pauli selectors must have length n")
    p, q = (np.asarray(bits.to_int(s) if isinstance(s, str) else s)[..., None] for s in (p, q))
    idx = np.arange(1 << n) ^ q
    return np.where(bits.parity(idx & p), -1.0, 1.0) * ideal_state(n)[idx]


def compute_junk(strategy: Strategy, ops: ExtractedOperators) -> tuple[np.ndarray, float]:
    """Device-register residual of the isometry output at p = q = 0.

    Returns the normalized junk vector and its pre-normalization norm
    (1 for perfect extraction).  A norm below 1e-12 means the output has
    essentially no overlap with the ideal state and is reported as an
    error rather than normalized into nonsense.
    """
    out = swap_isometry_apply(ops, strategy.state)
    raw = out.reshape(-1, 1 << ops.n) @ pauli_target(ops.n, 0, 0).conj()
    norm = float(np.linalg.norm(raw))
    if norm < 1e-12:
        raise ValueError("junk extraction failed: isometry output is "
                         "orthogonal to the ideal state")
    return raw / norm, norm


def extraction_distance(strategy: Strategy, ops: ExtractedOperators,
                        pairs: np.ndarray, junk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fixed, optimal) distances between extracted and ideal Pauli actions.

    Per integer (p, q) row of ``pairs``, out = Phi(X'^q Z'^p psi') splits as
    overlap (x) target + rest, with target = X^q Z^p psi a unit vector and
    rest orthogonal to every junk (x) target.  So fixed = |out - junk (x)
    target| = hypot(|overlap - junk|, |rest|), and the optimum over unit
    junk is hypot(|overlap| - 1, |rest|); both keep full precision near 0.
    Pairs run in chunks of about CHUNK_BYTES of isometry output.
    """
    n, pairs = ops.n, np.asarray(pairs).reshape(-1, 2)
    psi = strategy.state.reshape(ops.dim_a, ops.dim_b)
    rows = max(1, CHUNK_BYTES // (psi.nbytes << n))
    targets = pauli_target(n, pairs[:, 0], pairs[:, 1])
    fixed, optimal = np.empty(len(pairs)), np.empty(len(pairs))
    for start in range(0, len(pairs), rows):
        (p, q), target = pairs[start:start + rows].T, targets[start:start + rows]
        w = np.repeat(psi[None], len(p), axis=0)
        for kind, sel in (("z", p), ("x", q)):
            for k in range(n, 0, -1):  # rightmost factor acts first
                hit = (sel >> (n - k)) & 1 == 1
                w[hit] = ops.apply(kind, k, w[hit])
        out = swap_isometry_apply(ops, w).reshape(len(p), psi.size, -1)
        overlap = out @ target[:, :, None].conj()
        out -= overlap * target[:, None, :]  # out is now rest
        flat = out.reshape(len(p), 1, -1).view(float)  # |rest|^2 is a real dot product
        rest = np.sqrt((flat @ flat.transpose(0, 2, 1))[:, 0, 0])
        overlap = overlap[..., 0]
        fixed[start:start + rows] = np.hypot(np.linalg.norm(overlap - junk, axis=1), rest)
        optimal[start:start + rows] = np.hypot(np.linalg.norm(overlap, axis=1) - 1.0, rest)
    return fixed, optimal


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


def _distance_pairs(n: int, seed: int) -> tuple[np.ndarray, Coverage]:
    """Integer (p, q) rows: all 4^n pairs in order, or a seeded sample."""
    total = 1 << (2 * n)
    if total <= DISTANCE_PAIRS:
        return np.stack(np.divmod(np.arange(total), 1 << n), axis=1), Coverage(mode="exhaustive")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 1 << n, size=(DISTANCE_PAIRS, 2))
    return draws, Coverage(mode="sampled", count=DISTANCE_PAIRS, seed=seed)


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
    fixed, optimal = extraction_distance(canonical, ops, pairs, junk)
    keys = [(bits.from_int(int(p), n), bits.from_int(int(q), n)) for p, q in pairs]
    dist_fixed = dict(zip(keys, fixed.tolist()))
    dist_opt = dict(zip(keys, optimal.tolist()))
    return SelfTestReport(n=n, value=value, epsilon=epsilon,
                          delta_cert=delta_cert, transcript=transcript,
                          q_b_star=searches.q_b_star, q_a_star=searches.q_a_star,
                          per_subtest_delta=searches.per_subtest_delta,
                          pair_questions=searches.pair_questions,
                          certified=certified, measured=measured,
                          junk_norm=junk_norm, distances_fixed=dist_fixed,
                          distances_optimal=dist_opt,
                          distance_coverage=dist_cov, flags=flags)
