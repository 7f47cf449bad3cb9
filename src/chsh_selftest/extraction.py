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
from .game import PIGEONHOLE_SLACK, TSIRELSON, subtest_table, table_value
from .game import subtest_value  # not called; perfbench/tracer.py patches this binding
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
    x_ops = list(strategy.alice[0])
    z_ops = list(strategy.alice[-1])
    for n0, n1 in zip(strategy.bob[0], strategy.bob[-1]):
        # halving keeps the Hermiticity residual within the validation ceiling
        x_ops.append(sign_normalize((n0 - n1) / 2))
        z_ops.append(sign_normalize((n0 + n1) / 2))
    return ExtractedOperators(n=strategy.n, dim_a=strategy.dim_a,
                              dim_b=strategy.dim_b,
                              x_ops=tuple(x_ops), z_ops=tuple(z_ops))


# ---------------------------------------------------------------------------
# relabeling symmetry and pigeonhole searches

def relabel(strategy: Strategy, q_a: str, q_b: str) -> Strategy:
    """Flip the bits of q_b in Bob's questions, then those of q_a in Alice's.

    Alice's family at x is her old one at x xor q_a, and Bob's at y his
    old one at y xor q_b (one gather per player); observable k of either
    player picks up a sign when bit k is set both in that player's
    question (Alice's before her flip, Bob's after his) and in the other
    player's flip mask.  The game value is unchanged, and
    the subtest table of the result is F[x xor q_a, y xor q_b, k] with F
    the table of ``strategy``.
    """
    m = strategy.half
    if len(bits.check(q_a)) != m or len(bits.check(q_b)) != m:
        raise ValueError(f"flip masks must have length {m}")
    qa, qb = bits.to_int(q_a), bits.to_int(q_b)
    idx, table = np.arange(1 << m), bits.bit_table(m)
    alice, bob = strategy.alice[idx ^ qa], strategy.bob[idx ^ qb]
    for stack, questions, mask in ((alice, idx ^ qa, qb), (bob, idx, qa)):
        flip = (table[questions] & table[mask]).astype(bool)
        np.negative(stack, out=stack, where=flip[:, :, None, None])
    return Strategy(state=strategy.state, alice=alice, bob=bob)


def _best(scores: np.ndarray) -> int:
    """Smallest index whose score is within PIGEONHOLE_SLACK of the maximum."""
    return int(np.flatnonzero(scores >= np.max(scores) - PIGEONHOLE_SLACK)[0])


def find_pair_question(table: np.ndarray, k: int, ell: int) -> tuple[str, float]:
    """Best Alice question with bit k = 0 and bit ell = 1, and its score.

    ``table`` is the subtest table of the canonical strategy.  The score
    of q is the smaller of f(q, 0..0, k) and f(q, 0..0, ell); ties go to
    the lexicographically smallest question.  Since subtest values are
    complement-invariant, restricting the search to the (0, 1) bit
    pattern loses nothing.
    """
    m = table.shape[-1]
    if k == ell:
        raise ValueError("pair question needs two distinct subtests")
    if not (1 <= k <= m and 1 <= ell <= m):
        raise ValueError("subtest index out of range")
    bit = bits.bit_table(m)
    allowed = (bit[:, k - 1] == 0) & (bit[:, ell - 1] == 1)
    scores = np.where(allowed, np.minimum(table[:, 0, k - 1], table[:, 0, ell - 1]),
                      -np.inf)
    best = _best(scores)
    return bits.from_int(best, m), float(scores[best])


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
    """Distinguished questions found by the pigeonhole searches.

    ``value`` is the game value read off the same subtest table, and
    ``pair_scores`` holds, per pair, the score that selected its question.
    """

    value: float
    q_b_star: str
    q_a_star: str
    per_subtest_delta: tuple
    pair_questions: dict
    pair_scores: dict


def search_questions(strategy: Strategy) -> tuple[Strategy, list[dict], QuestionSearchResult]:
    """Pick the distinguished questions and relabel them to all-zeros.

    One subtest table F gives the game value and drives every choice:
    q_b* maximizes Bob's total score, q_a* Alice's total against q_b*, and
    each pair question is read off the canonical table
    F[x xor q_a*, y xor q_b*, k].  Returns
    the canonical strategy, the transcript of relabeled bits (Bob's
    first) and the search result.
    """
    m = strategy.half
    table = subtest_table(strategy)
    qb = _best(table.sum(axis=(0, 2)))
    qa = _best(table[:, qb, :].sum(axis=1))
    q_b_star, q_a_star = bits.from_int(qb, m), bits.from_int(qa, m)
    transcript = ([{"party": "B", "bit": k} for k in range(1, m + 1) if bits.bit(q_b_star, k)]
                  + [{"party": "A", "bit": k} for k in range(1, m + 1) if bits.bit(q_a_star, k)])
    idx = np.arange(1 << m)
    canon_table = table[(idx ^ qa)[:, None], (idx ^ qb)[None, :], :]
    deltas = np.maximum(0.0, TSIRELSON - canon_table[0, 0, :])
    pairs, scores = {}, {}
    for k in range(1, m + 1):
        for ell in range(k + 1, m + 1):
            pairs[(k, ell)], scores[(k, ell)] = find_pair_question(canon_table, k, ell)
    result = QuestionSearchResult(value=table_value(table),
                                  q_b_star=q_b_star, q_a_star=q_a_star,
                                  per_subtest_delta=tuple(float(d) for d in deltas),
                                  pair_questions=pairs, pair_scores=scores)
    return relabel(strategy, q_a_star, q_b_star), transcript, result
