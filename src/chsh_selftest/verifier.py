"""Verifying extracted operators against the self-testing conditions.

Given a strategy near the Tsirelson value, the extracted X'/Z' pairs
should commute across qubits, anticommute on each qubit, and match
their partner on the test state.  This module measures those norms,
converts the observed score shortfall into certified ceilings for them,
and measures how far the swap isometry's output is from the ideal state
and Pauli actions (up to a junk register) without forming that output.
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

#: general conditions cover every (s, t) pair up to this n, and
#: DEFAULT_GENERAL_SAMPLES seeded draws above it
MAX_EXHAUSTIVE_N = 6

DEFAULT_GENERAL_SAMPLES = 10_000

#: distance pairs per report: all 4^n when that is no more, else a seeded sample
DISTANCE_PAIRS = 256

#: bytes one chunk holds: gathered terms and products in the condition
#: norms; in extraction_distance, the inputs and, per Walsh index, the
#: three stacks of their size that the distance kernel forms
CHUNK_BYTES = 2 << 20

#: junk overlaps with a smaller norm are returned unnormalized (compute_junk)
JUNK_NORM_FLOOR = 1e-12

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


def _workspace(left: np.ndarray, right: np.ndarray, rows: int) -> tuple[np.ndarray, ...]:
    """Buffers for ``_products`` over up to ``rows`` rows: the sum and one
    term, in the dtype the two sides promote to, and one gathered row of
    each side in its own dtype."""
    shape, dtype = (rows, left.shape[1], right.shape[2]), np.result_type(left, right)
    return (np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype),
            np.empty((rows,) + left.shape[1:], dtype=left.dtype),
            np.empty((rows,) + right.shape[1:], dtype=right.dtype))


def _products(left: np.ndarray, right: np.ndarray, ia: np.ndarray, ib: np.ndarray,
              work: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Row p is the sum over j of left[ia[p, j]] @ right[ib[p, j]].

    Written into a view of ``work`` (``_workspace`` buffers) when given:
    a chunked stage passes the same buffers for every chunk, so it takes
    fresh pages from the allocator once, not once per chunk.
    """
    w, term, gl, gr = (buf[:len(ia)] for buf in work or _workspace(left, right, len(ia)))
    for j in range(ia.shape[1]):
        np.matmul(np.take(left, ia[:, j], axis=0, out=gl, mode="clip"),
                  np.take(right, ib[:, j], axis=0, out=gr, mode="clip"), out=term if j else w)
        if j:
            w += term
    return w


def _chunk_rows(left: np.ndarray, right: np.ndarray, terms: int) -> int:
    """Rows per chunk of a condition norm whose rows sum ``terms`` products:
    their gathered terms and products take about CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (terms * (left[0].nbytes + 2 * right[0].nbytes)))


def _max_norm(left: np.ndarray, right: np.ndarray, ia: np.ndarray, ib: np.ndarray,
              work: tuple[np.ndarray, ...] | None = None) -> float:
    """Largest Frobenius norm of the rows of ``_products``, one chunk of
    ``_chunk_rows`` at a time, written into ``work`` when given (buffers
    of at least one chunk, which a stage's calls share)."""
    rows = _chunk_rows(left, right, ia.shape[1])
    work = work or _workspace(left, right, min(rows, len(ia)))
    return max(float(np.max(np.linalg.norm(
        _products(left, right, ia[i:i + rows], ib[i:i + rows], work), axis=(1, 2))))
        for i in range(0, len(ia), rows))


def _split(n: int, *strings: np.ndarray) -> list[np.ndarray]:
    """Alice's and Bob's halves of each integer string, in that order."""
    m = n // 2
    return [half for s in strings for half in (s >> m, s & ((1 << m) - 1))]


def _anticommute_rows(n: int, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather rows of Z'^t X'^s psi - (-1)^{s.t} X'^s Z'^t psi."""
    size, stride = 1 << n, 1 << n // 2
    sa, sb, ta, tb = _split(n, s, t)
    ia = np.stack([ta * stride + sa, size * (1 + bits.parity(s & t)) + sa * stride + ta], axis=1)
    ib = np.stack([tb * stride + sb, size + sb * stride + tb], axis=1)
    return ia, ib


def _swap_rows(n: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather rows of Z'^{s'} psi - (-1)^{s_A.s_B} X'^s psi, s' = s with its halves swapped."""
    size, stride = 1 << n, 1 << n // 2
    sa, sb = _split(n, s)
    ia = np.stack([sb * stride, size * (1 + bits.parity(sa & sb)) + sa * stride], axis=1)
    ib = np.stack([sa * stride, size + sb * stride], axis=1)
    return ia, ib


def _pauli_rows(n: int, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather rows of X'^q Z'^p psi."""
    size, stride = 1 << n, 1 << n // 2
    pa, pb, qa, qb = _split(n, p, q)
    return (2 * size + qa * stride + pa)[:, None], (size + qb * stride + pb)[:, None]


def measure_epsilons(ops: ExtractedOperators,
                     work: tuple[np.ndarray, ...] | None = None) -> ConditionNorms:
    """Worst single-qubit condition norms (general fields left unset).

    eps1 and eps3 are the weight-1 rows of the anticommutation family
    with k != l and k = l, and eps2 the weight-1 rows of the swap family.
    ``work`` is ``_max_norm``'s.
    """
    n, (left, right) = ops.n, ops.gather_stacks
    unit = 1 << np.arange(n)
    s, t = np.repeat(unit, n), np.tile(unit, n)
    return ConditionNorms(
        eps1=_max_norm(left, right, *_anticommute_rows(n, s[s != t], t[s != t]), work),
        eps2=_max_norm(left, right, *_swap_rows(n, unit), work),
        eps3=_max_norm(left, right, *_anticommute_rows(n, unit, unit), work))


def measure_general_conditions(ops: ExtractedOperators, seed: int = 0) -> ConditionNorms:
    """Worst string-product condition norms over (s, t) pairs.

    Every pair for n <= MAX_EXHAUSTIVE_N, otherwise DEFAULT_GENERAL_SAMPLES
    seeded uniform draws; both run through the same gather kernel.
    Returns a ConditionNorms with the general fields (and coverage)
    filled in and eps1..eps3 measured alongside.  All five norms share one
    workspace, sized for the largest chunk: every row sums two products,
    and the general anticommutation rows are the most numerous.
    """
    n = ops.n
    if n <= MAX_EXHAUSTIVE_N:
        s, t = np.divmod(np.arange(1 << 2 * n), 1 << n)
        cov = Coverage(mode="exhaustive")
    else:
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 1 << n, size=DEFAULT_GENERAL_SAMPLES)
        t = rng.integers(0, 1 << n, size=DEFAULT_GENERAL_SAMPLES)
        cov = Coverage(mode="sampled", count=DEFAULT_GENERAL_SAMPLES, seed=seed)
    left, right = ops.gather_stacks
    work = _workspace(left, right, min(_chunk_rows(left, right, 2), len(s)))
    return replace(measure_epsilons(ops, work),
                   general_anticommute_max=_max_norm(left, right, *_anticommute_rows(n, s, t),
                                                     work),
                   general_swap_max=_max_norm(left, right, *_swap_rows(n, np.unique(s)), work),
                   coverage=cov)


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

    The reference output, which certify never forms.  ``v`` is a flat
    state or a batch shaped (..., dim_a, dim_b).  With the branch stacks A
    and B, Phi(v) = sum_a |a> (x) A_{a_A} v B_{a_B}^T: per input, one stack
    of products A v, then one product of all its rows with every branch of
    B.  Each output is device-major with the ancilla register (qubit 1 most
    significant) last, and has the norm of its input.
    """
    (alice, bob), da, db = ops.branches, ops.dim_a, ops.dim_b
    v = np.asarray(v)
    lead, v = v.shape[:-2], v.reshape(-1, da, db)
    out = (alice @ v[:, None]).reshape(len(v), -1, db) @ bob.transpose(2, 0, 1).reshape(db, -1)
    out = out.reshape(len(v), len(alice), da, len(bob), db).transpose(0, 2, 4, 1, 3)
    return out.reshape(lead + (-1,))


def pauli_target(n: int, p, q) -> np.ndarray:
    """X^q Z^p applied to the ideal n-qubit state, on the ancilla register.

    The reference target, which certify takes in closed form.  p and q are
    integers or integer arrays whose most significant of n bits is qubit 1;
    P pairs give (P, 2^n).
    """
    p, q = (np.asarray(s)[..., None] for s in (p, q))
    idx = np.arange(1 << n) ^ q
    return np.where(bits.parity(idx & p), -1.0, 1.0) * ideal_state(n)[idx]


def _walsh_index(n: int, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alice's branch u^q_A and the sign (-1)^{u.p_A + c.q_B} of D_c, with
    u = c^p_B, as [c, row] arrays for the integer pairs (p, q)."""
    pa, pb, qa, qb = _split(n, p, q)
    c = np.arange(1 << n // 2)[:, None]
    u = c ^ pb
    return u ^ qa, np.where(bits.parity(u & pa ^ c & qb), -1.0, 1.0)


def _walsh_split(ops: ExtractedOperators, w: np.ndarray, branch: np.ndarray,
                 sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (dim_a, dim_b) row of w, Phi(w) = overlap (x) X^q Z^p psi + rest:
    the overlap, flat over dim_a dim_b, and |rest|; Phi(w) is never formed.

    The target is t[a] = 2^{-n/2} (-1)^{(a^q).p + (a_A^q_A).(a_B^q_B)}, so
    in the Walsh basis G of Bob's branches it has one block per Walsh index
    c.  With u = c^p_B, Y_c = A[u^q_A] w and D_c = (-1)^{u.p_A + c.q_B}
    Y_c G[c]^T, overlap = mean_c D_c and
    |rest|^2 = 2^{-n/2} [sum_c |D_c - overlap|^2 + sum_c |Y_c R_c^dag|^2],
    the second sum being the part of Phi(w) off the target's blocks.
    ``branch`` and ``sign`` are ``_walsh_index`` of the rows' pairs.  The
    signed Y_c times ``ops.walsh_factor[:, c]`` gives both terms, and
    nothing is subtracted after squaring, so |rest| keeps its digits as it
    nears 0.  None of this assumes unitary operators.  Each product (one
    per branch of A, two per c) takes every row of w at once: in a chunk
    of CHUNK_BYTES, about d CHUNK_BYTES / (b (3 2^(n/2) + 1)) multiply-adds
    for entries of b bytes and sides of d <= 2^(n/2): below 2^16 in
    complex128 and 2^17 in float64, too few for OpenBLAS (0.3.31) to hand
    to its worker threads, which stall while another process holds a core.
    It threads a complex GEMM from 2^16 multiply-adds and a real one only
    above about 7.9e5.
    """
    alice = ops.branches[0]
    k, (rows, da, db) = len(alice), w.shape
    y = (alice @ w.transpose(1, 0, 2).reshape(da, -1)).reshape(k, da, rows, db)
    y = y[branch, :, np.arange(rows)]  # Y_c, [c, row]
    y *= sign[:, :, None, None]
    prod = y.reshape(k, -1, db) @ ops.walsh_factor  # [D_c, +-Y_c R_c^dag]
    overlap = prod[0].sum(axis=0) / k
    prod[0] -= overlap
    flat = prod.reshape(2 * k, rows, -1).view(float)
    return overlap.reshape(rows, -1), np.sqrt(np.einsum("cpk,cpk->p", flat, flat) / k)


def compute_junk(ops: ExtractedOperators) -> tuple[np.ndarray, float]:
    """Device-register residual of the isometry output at p = q = 0.

    Returns the normalized junk vector and its pre-normalization norm
    (1 for perfect extraction).  A norm below JUNK_NORM_FLOOR means the
    output has essentially no overlap with the ideal state; the overlap is
    then returned unnormalized rather than blown up into nonsense, so the
    fixed distances are about |Phi(input)| and the norm reports the failure.
    """
    zero = np.zeros(1, dtype=int)
    raw = _walsh_split(ops, ops.state[None], *_walsh_index(ops.n, zero, zero))[0][0]
    norm = float(np.linalg.norm(raw))
    return (raw if norm < JUNK_NORM_FLOOR else raw / norm), norm


def extraction_distance(ops: ExtractedOperators, pairs: np.ndarray,
                        junk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fixed, optimal) distances between extracted and ideal Pauli actions.

    Per integer (p, q) row of ``pairs``, out = Phi(X'^q Z'^p psi') splits as
    overlap (x) target + rest, with target = X^q Z^p psi a unit vector and
    rest orthogonal to every junk (x) target.  So fixed = |out - junk (x)
    target| = hypot(|overlap - junk|, |rest|), and the optimum over unit
    junk is hypot(|overlap| - 1, |rest|).  ``_walsh_split`` gives the
    overlap and |rest| in one pass, in chunks of about CHUNK_BYTES.
    """
    n, pairs = ops.n, np.asarray(pairs).reshape(-1, 2)
    p, q = pairs[:, 0], pairs[:, 1]
    left, right = ops.gather_stacks
    (ia, ib), (branch, sign) = _pauli_rows(n, p, q), _walsh_index(n, p, q)
    overlap = np.empty((len(pairs), right[0].size), dtype=np.result_type(*ops.branches, right))
    rest = np.empty(len(pairs))
    rows = max(1, CHUNK_BYTES // ((3 * len(branch) + 1) * right[0].nbytes))
    work = _workspace(left, right, min(rows, len(pairs)))
    for chunk in (slice(i, i + rows) for i in range(0, len(pairs), rows)):
        overlap[chunk], rest[chunk] = _walsh_split(
            ops, _products(left, right, ia[chunk], ib[chunk], work),
            branch[:, chunk], sign[:, chunk])
    fixed = np.hypot(np.linalg.norm(overlap - junk, axis=1), rest)
    optimal = np.hypot(np.linalg.norm(overlap, axis=1) - 1.0, rest)
    return fixed, optimal


# ---------------------------------------------------------------------------
# certification pipeline

@dataclass(frozen=True)
class SelfTestReport:
    """Everything the certification pipeline measured and concluded.

    Questions are big-endian integers, and the distance maps are keyed by
    integer (p, q); ``to_document`` writes them all as bit strings.
    """

    n: int
    value: float
    epsilon: float
    delta_cert: float
    q_b_star: int
    q_a_star: int
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
        """The report with every question written as a bit string, and the
        transcript of relabeled bits (Bob's first) that took the searched
        questions to all-zeros."""
        n, m = self.n, self.n // 2
        coverage = self.measured.coverage
        meas = dict(vars(self.measured), coverage=coverage.describe() if coverage else None)

        def by_pair(distances):
            return {f"{bits.from_int(p, n)}:{bits.from_int(q, n)}": d
                    for (p, q), d in sorted(distances.items())}

        return {
            "n": n,
            "value": self.value,
            "epsilon": self.epsilon,
            "delta_cert": self.delta_cert,
            "transcript": [{"party": party, "bit": k}
                           for party, q in (("B", self.q_b_star), ("A", self.q_a_star))
                           for k in range(1, m + 1) if (q >> (m - k)) & 1],
            "q_b_star": bits.from_int(self.q_b_star, m),
            "q_a_star": bits.from_int(self.q_a_star, m),
            "per_subtest_delta": list(self.per_subtest_delta),
            "pair_questions": {f"{k},{ell}": bits.from_int(q, m)
                               for (k, ell), q in sorted(self.pair_questions.items())},
            "certified": self.certified,
            "measured": meas,
            "junk_norm": self.junk_norm,
            "distances_fixed": by_pair(self.distances_fixed),
            "distances_optimal": by_pair(self.distances_optimal),
            "distance_coverage": self.distance_coverage.describe(),
            "flags": self.flags,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        """Structured text form; floats carry 12 significant digits."""
        return jsonio.dumps(self.to_document())


def _distance_pairs(n: int, seed: int) -> tuple[np.ndarray, Coverage]:
    """Integer (p, q) rows: all 4^n pairs in order, or a seeded sample.

    The sample is drawn with replacement (the seed-0 n = 6 draw holds 251
    distinct pairs, though its coverage says DISTANCE_PAIRS); drawing
    without replacement waits for the re-pin of the benchmark references.
    """
    total = 1 << (2 * n)
    if total <= DISTANCE_PAIRS:
        return np.stack(np.divmod(np.arange(total), 1 << n), axis=1), Coverage(mode="exhaustive")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 1 << n, size=(DISTANCE_PAIRS, 2))
    return draws, Coverage(mode="sampled", count=DISTANCE_PAIRS, seed=seed)


def certify(strategy: Strategy, seed: int = 0) -> SelfTestReport:
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
    canonical, searches = search_questions(strategy)
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
    measured = measure_general_conditions(ops, seed=seed)
    junk, junk_norm = compute_junk(ops)
    pairs, dist_cov = _distance_pairs(n, seed)
    fixed, optimal = extraction_distance(ops, pairs, junk)
    for name in ("eps1", "eps2", "eps3"):
        flags[name] = getattr(measured, name) <= certified[name] + BOUND_SLACK
    keys = list(map(tuple, pairs.tolist()))
    dist_fixed = dict(zip(keys, fixed.tolist()))
    dist_opt = dict(zip(keys, optimal.tolist()))
    return SelfTestReport(n=n, value=value, epsilon=epsilon, delta_cert=delta_cert,
                          q_b_star=searches.q_b_star, q_a_star=searches.q_a_star,
                          per_subtest_delta=searches.per_subtest_delta,
                          pair_questions=searches.pair_questions,
                          certified=certified, measured=measured,
                          junk_norm=junk_norm, distances_fixed=dist_fixed,
                          distances_optimal=dist_opt,
                          distance_coverage=dist_cov, flags=flags)
