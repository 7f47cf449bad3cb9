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
from functools import cached_property

import numpy as np

from . import bits
from .game import PIGEONHOLE_SLACK, TSIRELSON, subtest_table, table_value
from .game import subtest_value  # not called; perfbench/tracer.py patches this binding
from .linalg import apply_on_a, apply_on_b, branch_tree, dagger, sign_normalize
from .strategy import Strategy


@dataclass(frozen=True, eq=False)
class ExtractedOperators:
    """Candidate X'/Z' pairs, one per tested qubit, on the test state.

    ``state`` is psi as a (dim_a, dim_b) matrix and ``alice`` and ``bob``
    are (2, n/2, d, d) stacks with X' at index 0 and Z' at index 1, all
    marked read-only on construction.  Like a ``Strategy``'s, each is
    float64 when its strategy's arrays are (every imaginary part bitwise
    +0.0; a -0.0 keeps them complex128), and every stack built from them
    takes the dtype its operands promote to.  Alice's act as ``op @ w`` and Bob's
    as ``w @ op.T`` on states shaped (..., dim_a, dim_b), so Bob's products
    on an identity come out transposed.  The gather stacks, both sides'
    swap-isometry branch stacks and the distance kernel's Walsh factors of
    Bob's are built on first use and kept.  Compared and hashed by
    identity.
    """

    state: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        for a in (self.state, self.alice, self.bob):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return 2 * self.alice.shape[1]

    @property
    def dim_a(self) -> int:
        return self.alice.shape[2]

    @property
    def dim_b(self) -> int:
        return self.bob.shape[2]

    def _side_table(self, kind: int, side: int, w: np.ndarray) -> np.ndarray:
        """table[u] = X'^u (kind 0) or Z'^u (kind 1) of side 0 (Alice) or 1 (Bob) on w.

        u is an n/2-bit integer whose most significant bit is the side's
        first qubit.  Built by recursion on that bit, which is the leftmost
        (last applied) factor of the ordered product.
        """
        m, ops = self.n // 2, (self.alice, self.bob)[side][kind]
        act = apply_on_b if side else apply_on_a
        table = np.empty((1 << m,) + w.shape, dtype=np.result_type(w, ops))
        table[0] = w
        for u in range(1, 1 << m):
            pos = u.bit_length() - 1
            table[u] = act(ops[m - 1 - pos], table[u - (1 << pos)])
        return table

    def string_table(self, side: int, w: np.ndarray) -> np.ndarray:
        """Every string product of one side applied to w, one factor at a time.

        Shaped (2, 2^n) + w.shape: [0, t * 2^(n/2) + s] is Z'^t X'^s w and
        [1, s * 2^(n/2) + t] is X'^s Z'^t w, for s, t on the side's qubits.
        """
        zx = self._side_table(1, side, self._side_table(0, side, w))
        xz = self._side_table(0, side, self._side_table(1, side, w))
        return np.stack([zx, xz]).reshape((2, -1) + w.shape)

    @cached_property
    def gather_stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Left (3 * 2^n, dim_a, dim_a) and right (2 * 2^n, dim_a, dim_b) gather stacks.

        Alice's and Bob's operators act on different tensor factors, so every
        signed string product on psi is left[ia] @ right[ib]: left holds Alice's
        string products SA as [SA[0], -SA[1], SA[1]], right Bob's products
        applied to psi.  His factors act on psi one at a time: a product
        matrix would keep roundoff entries of his operators that acting on
        psi absorbs, and turn norms that are exactly 0 into ~1e-17.
        """
        alice = self.string_table(0, np.eye(self.dim_a))
        stacks = (np.concatenate([alice[0], -alice[1], alice[1]]),
                  self.string_table(1, self.state).reshape(-1, self.dim_a, self.dim_b))
        for stack in stacks:
            stack.setflags(write=False)
        return stacks

    @cached_property
    def branches(self) -> tuple[np.ndarray, np.ndarray]:
        """Alice's and Bob's (2^(n/2), d, d) branch stacks of the swap isometry.

        Stage k maps v to |0> (I + Z'_k)/2 v + |1> X'_k (I - Z'_k)/2 v, and
        each side's stages act on its own tensor factor, so Phi(v) =
        sum_a |a> (x) (A_{a_A} (x) B_{a_B}) v; later qubits act on the left,
        and qubit 1 is the most significant bit of a.  Each stack is the
        ``branch_tree`` of the identity split by Z'_k with X'_k as flips.
        """
        return tuple(branch_tree(np.eye(stack.shape[-1]), stack[1], stack[0])
                     for stack in (self.alice, self.bob))

    @cached_property
    def walsh_factor(self) -> np.ndarray:
        """The distance kernel's [G^T, R^dag] factors, shaped (2, 2^(n/2), d_b, d_b).

        G[c] = sum_v (-1)^{v.c} B[v] is the Walsh-Hadamard transform of
        Bob's branch stack B, and R_c the R factor of the stacked conj(G[c'])
        over c' != c, so |Y R_c^dag|^2 = sum_{c' != c} |Y G[c']^T|^2 for any
        Y.  Entry [0, c] is G[c]^T and [1, c] is R_c^dag; read-only.
        """
        bob = self.branches[1]
        idx = np.arange(len(bob))
        signs = np.where(bits.parity(idx[:, None] & idx), -1.0, 1.0)
        walsh = (signs @ bob.transpose(1, 0, 2)).transpose(1, 0, 2)
        others = walsh.conj()[idx[:, None] ^ idx[1:]].reshape(len(bob), -1, bob.shape[-1])
        factor = np.stack([walsh.transpose(0, 2, 1), dagger(np.linalg.qr(others, mode="r"))])
        factor.setflags(write=False)
        return factor


def build_xz(strategy: Strategy) -> ExtractedOperators:
    """Read off X'_k and Z'_k for every tested qubit.

    Alice: X'_k and Z'_k are her k-th observables at the all-zeros and
    all-ones questions.  Bob: the all-zeros/all-ones sum gives the
    operator that plays the Z role (it lines up with Alice's all-ones
    observable on the test state) and the difference gives X; both are
    halved and sign-normalized back to Hermitian unitaries.
    """
    n0, n1 = strategy.bob[0], strategy.bob[-1]
    # halving keeps the Hermiticity residual within the validation ceiling
    bob = np.array([[sign_normalize(m) for m in (n0 - n1) / 2],
                    [sign_normalize(m) for m in (n0 + n1) / 2]])
    return ExtractedOperators(state=strategy.state.reshape(strategy.dim_a, strategy.dim_b),
                              alice=strategy.alice[[0, -1]], bob=bob)


# ---------------------------------------------------------------------------
# relabeling symmetry and pigeonhole searches

def relabel(strategy: Strategy, q_a: int, q_b: int) -> Strategy:
    """Flip the bits of mask q_b in Bob's questions, then those of q_a in Alice's.

    Alice's family at x is her old one at x xor q_a, and Bob's at y his
    old one at y xor q_b (one gather per player); observable k of either
    player picks up a sign when bit k is set both in that player's
    question (Alice's before her flip, Bob's after his) and in the other
    player's flip mask.  The game value is unchanged, and
    the subtest table of the result is F[x xor q_a, y xor q_b, k] with F
    the table of ``strategy``.
    """
    m = strategy.half
    if not (0 <= q_a < 1 << m and 0 <= q_b < 1 << m):
        raise ValueError(f"flip masks must be {m}-bit integers")
    idx, table = np.arange(1 << m), bits.bit_table(m)
    alice, bob = strategy.alice[idx ^ q_a], strategy.bob[idx ^ q_b]
    for stack, questions, mask in ((alice, idx ^ q_a, q_b), (bob, idx, q_a)):
        flip = (table[questions] & table[mask]).astype(bool)
        np.negative(stack, out=stack, where=flip[:, :, None, None])
    return Strategy(state=strategy.state, alice=alice, bob=bob)


def _best(scores: np.ndarray) -> int:
    """Smallest index whose score is within PIGEONHOLE_SLACK of the maximum."""
    return int(np.flatnonzero(scores >= np.max(scores) - PIGEONHOLE_SLACK)[0])


def find_pair_question(table: np.ndarray, k: int, ell: int) -> tuple[int, float]:
    """Best Alice question with bit k = 0 and bit ell = 1, and its score.

    ``table`` is the subtest table of the canonical strategy.  The score
    of q is the smaller of f(q, 0..0, k) and f(q, 0..0, ell); ties go to
    the smallest question.  Since subtest values are complement-invariant,
    restricting the search to the (0, 1) bit pattern loses nothing.
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
    return best, float(scores[best])


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
    q_b_star: int
    q_a_star: int
    per_subtest_delta: tuple
    pair_questions: dict
    pair_scores: dict


def search_questions(strategy: Strategy) -> tuple[Strategy, QuestionSearchResult]:
    """Pick the distinguished questions and relabel them to all-zeros.

    One subtest table F gives the game value and drives every choice:
    q_b* maximizes Bob's total score, q_a* Alice's total against q_b*, and
    each pair question is read off the canonical table
    F[x xor q_a*, y xor q_b*, k].  Returns the canonical strategy and
    the search result.
    """
    m = strategy.half
    table = subtest_table(strategy)
    qb = _best(table.sum(axis=(0, 2)))
    qa = _best(table[:, qb, :].sum(axis=1))
    idx = np.arange(1 << m)
    canon_table = table[(idx ^ qa)[:, None], (idx ^ qb)[None, :], :]
    deltas = np.maximum(0.0, TSIRELSON - canon_table[0, 0, :])
    pairs, scores = {}, {}
    for k in range(1, m + 1):
        for ell in range(k + 1, m + 1):
            pairs[(k, ell)], scores[(k, ell)] = find_pair_question(canon_table, k, ell)
    result = QuestionSearchResult(value=table_value(table),
                                  q_b_star=qb, q_a_star=qa,
                                  per_subtest_delta=tuple(float(d) for d in deltas),
                                  pair_questions=pairs, pair_scores=scores)
    return relabel(strategy, qa, qb), result
