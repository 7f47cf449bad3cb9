"""Extracting Pauli-like operators and distinguished questions.

From any strategy we read off candidate X'/Z' operators per tested
qubit: Alice's come straight from her all-zeros / all-ones question
families; Bob's are the sign-normalized sum and difference of his
extreme families.  Relabeling symmetries of the game let us move the
best-scoring questions to the all-zeros corner first, which is what
makes those extreme families trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bits
from .game import TSIRELSON, subtest_table, subtest_value
from .linalg import apply_on_a, apply_on_b, sign_normalize
from .strategy import Strategy


@dataclass(frozen=True)
class ExtractedOperators:
    """Candidate X'/Z' pairs, one per tested qubit.

    Entries 1..n/2 act on Alice's side (dim_a), entries n/2+1..n on
    Bob's (dim_b).  Lists are 0-indexed internally; ``apply`` takes the
    1-indexed qubit number used everywhere else.  Every action of an
    extracted operator on a state goes through ``apply``.
    """

    n: int
    dim_a: int
    dim_b: int
    x_ops: tuple
    z_ops: tuple

    def apply(self, kind: str, k: int, w: np.ndarray) -> np.ndarray:
        """Apply X'_k (kind "x") or Z'_k (kind "z") to states shaped
        (..., dim_a, dim_b); qubits 1..n/2 are Alice's, the rest Bob's."""
        op = (self.x_ops if kind == "x" else self.z_ops)[k - 1]
        if k <= self.n // 2:
            return apply_on_a(op, w)
        return apply_on_b(op, w)

    def apply_string(self, kind: str, s: str, w: np.ndarray) -> np.ndarray:
        """Apply the ordered product X'^s or Z'^s (ascending index leftmost)."""
        for k in range(self.n, 0, -1):  # rightmost factor acts first
            if s[k - 1] == "1":
                w = self.apply(kind, k, w)
        return w


def build_xz(strategy: Strategy) -> ExtractedOperators:
    """Read off X'_k and Z'_k for every tested qubit.

    Alice: X'_k and Z'_k are her k-th observables at the all-zeros and
    all-ones questions.  Bob: the all-zeros/all-ones sum gives the
    operator that plays the Z role (it lines up with Alice's all-ones
    observable on the test state) and the difference gives X; both are
    halved and sign-normalized back to Hermitian unitaries.
    """
    m = strategy.half
    zeros_q, ones_q = bits.zeros(m), bits.ones(m)
    x_ops = list(strategy.alice_obs[zeros_q])
    z_ops = list(strategy.alice_obs[ones_q])
    for k in range(m):
        n0 = strategy.bob_obs[zeros_q][k]
        n1 = strategy.bob_obs[ones_q][k]
        # halving keeps the Hermiticity residual within the validation ceiling
        x_ops.append(sign_normalize((n0 - n1) / 2))
        z_ops.append(sign_normalize((n0 + n1) / 2))
    return ExtractedOperators(n=strategy.n, dim_a=strategy.dim_a,
                              dim_b=strategy.dim_b,
                              x_ops=tuple(x_ops), z_ops=tuple(z_ops))


# ---------------------------------------------------------------------------
# relabeling symmetries

def relabel_alice_bit(strategy: Strategy, k: int) -> Strategy:
    """Flip bit k in every question on Alice's side.

    Alice's table is re-keyed by q_a -> q_a xor 1_k; Bob's k-th
    observable picks up the sign (-1)^{q_b[k]}.  The game value is
    unchanged.
    """
    m = strategy.half
    if not 1 <= k <= m:
        raise ValueError(f"bit {k} out of range")
    alice = {q: strategy.alice_obs[bits.flip(q, k)] for q in strategy.alice_obs}
    bob = {}
    for q, family in strategy.bob_obs.items():
        family = list(family)
        if bits.bit(q, k):
            family[k - 1] = -family[k - 1]
        bob[q] = tuple(family)
    return Strategy(n=strategy.n, dim_a=strategy.dim_a, dim_b=strategy.dim_b,
                    state=strategy.state, alice_obs=alice, bob_obs=bob)


def relabel_bob_bit(strategy: Strategy, k: int) -> Strategy:
    """Flip bit k in every question on Bob's side (mirror image)."""
    m = strategy.half
    if not 1 <= k <= m:
        raise ValueError(f"bit {k} out of range")
    bob = {q: strategy.bob_obs[bits.flip(q, k)] for q in strategy.bob_obs}
    alice = {}
    for q, family in strategy.alice_obs.items():
        family = list(family)
        if bits.bit(q, k):
            family[k - 1] = -family[k - 1]
        alice[q] = tuple(family)
    return Strategy(n=strategy.n, dim_a=strategy.dim_a, dim_b=strategy.dim_b,
                    state=strategy.state, alice_obs=alice, bob_obs=bob)


# ---------------------------------------------------------------------------
# pigeonhole searches

def find_best_qb(strategy: Strategy) -> str:
    """Bob question with the highest average score (lexicographic ties)."""
    table = subtest_table(strategy)
    scores = table.sum(axis=(0, 2))
    return bits.from_int(int(np.argmax(scores)), strategy.half)


def find_best_qa(strategy: Strategy) -> str:
    """Alice question scoring best against all-zeros q_b (post-remap)."""
    table = subtest_table(strategy)
    scores = table[:, 0, :].sum(axis=1)
    return bits.from_int(int(np.argmax(scores)), strategy.half)


def canonicalize(strategy: Strategy) -> tuple[Strategy, list[dict]]:
    """Relabel so the best questions sit at all-zeros, Bob first.

    Returns the relabeled strategy and the ordered transcript of
    relabeling steps, each a {"party", "bit"} record.  Scores are
    recomputed from the relabeled strategy between the two stages.
    """
    transcript: list[dict] = []
    best_b = find_best_qb(strategy)
    for k in range(1, strategy.half + 1):
        if bits.bit(best_b, k):
            strategy = relabel_bob_bit(strategy, k)
            transcript.append({"party": "B", "bit": k})
    best_a = find_best_qa(strategy)
    for k in range(1, strategy.half + 1):
        if bits.bit(best_a, k):
            strategy = relabel_alice_bit(strategy, k)
            transcript.append({"party": "A", "bit": k})
    return strategy, transcript


def per_subtest_deltas(strategy: Strategy) -> np.ndarray:
    """Shortfall max(0, 2 sqrt(2) - f(0..0, 0..0, k)) for each pair k.

    Meant for canonicalized strategies, where each entry is at most
    (n/2) times the overall shortfall.
    """
    m = strategy.half
    zeros_q = bits.zeros(m)
    return np.array([max(0.0, TSIRELSON - subtest_value(strategy, zeros_q, zeros_q, k))
                     for k in range(1, m + 1)])


def find_pair_question(strategy: Strategy, k: int, ell: int) -> str:
    """Best Alice question with bit k = 0 and bit ell = 1.

    Maximizes the smaller of the two subtest values f(q_a, 0..0, k) and
    f(q_a, 0..0, ell); ties go to the lexicographically smallest.  Since
    subtest values are complement-invariant, restricting the search to
    the (0, 1) bit pattern loses nothing.
    """
    m = strategy.half
    if k == ell:
        raise ValueError("pair question needs two distinct subtests")
    if not (1 <= k <= m and 1 <= ell <= m):
        raise ValueError("subtest index out of range")
    zeros_q = bits.zeros(m)
    best_q, best_score = None, -math.inf
    for q in bits.all_strings(m):
        if bits.bit(q, k) != 0 or bits.bit(q, ell) != 1:
            continue
        score = min(subtest_value(strategy, q, zeros_q, k),
                    subtest_value(strategy, q, zeros_q, ell))
        if score > best_score:
            best_q, best_score = q, score
    assert best_q is not None
    return best_q


def log_question_set(n: int) -> list[str]:
    """Alice questions that jointly separate every pair of subtests.

    Question j has bit k set exactly when bit j of the binary expansion
    of k (1-indexed subtests) is set, so any two subtests differ on some
    question.  n = 2 has a single subtest and needs no questions.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and at least 2")
    m = n // 2
    if m == 1:
        return []
    count = math.ceil(math.log2(m + 1))
    questions = []
    for j in range(count):
        questions.append("".join("1" if (k >> j) & 1 else "0"
                                 for k in range(1, m + 1)))
    return questions


@dataclass(frozen=True)
class QuestionSearchResult:
    """Distinguished questions found by the pigeonhole searches."""

    q_b_star: str
    q_a_star: str
    per_subtest_delta: tuple
    pair_questions: dict


def search_questions(strategy: Strategy) -> tuple[Strategy, list[dict], QuestionSearchResult]:
    """Canonicalize and collect all distinguished-question data."""
    canonical, transcript = canonicalize(strategy)
    # the flip sets in the transcript are exactly the best questions found
    m = strategy.half
    flips_b = {step["bit"] for step in transcript if step["party"] == "B"}
    flips_a = {step["bit"] for step in transcript if step["party"] == "A"}
    best_b = "".join("1" if k in flips_b else "0" for k in range(1, m + 1))
    best_a = "".join("1" if k in flips_a else "0" for k in range(1, m + 1))
    deltas = per_subtest_deltas(canonical)
    pairs = {}
    for k in range(1, strategy.half + 1):
        for ell in range(k + 1, strategy.half + 1):
            pairs[(k, ell)] = find_pair_question(canonical, k, ell)
    result = QuestionSearchResult(q_b_star=best_b, q_a_star=best_a,
                                  per_subtest_delta=tuple(float(d) for d in deltas),
                                  pair_questions=pairs)
    return canonical, transcript, result
