"""Scoring and value of the repeated CHSH test.

A full question is an n-bit string q; Alice answers the first half,
Bob the second.  The referee checks one uniformly chosen pair k via
q_k q_{k+n/2} = x_k xor y_k and scores +4 on a win, -4 otherwise, so the
expected score of the ideal strategy is the Tsirelson value 2*sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bits
from .linalg import pair_expectation
from .strategy import Strategy, born_answers

TSIRELSON = 2.0 * math.sqrt(2.0)

#: roundoff allowance for the pigeonhole searches and guarantees: scores
#: this close to the best count as ties, and the guarantees, exact
#: inequalities in real arithmetic, are checked up to it
PIGEONHOLE_SLACK = 1e-12

#: exhaustive value sums are refused above this size
MAX_EXACT_N = 12


@dataclass(frozen=True)
class GameValue:
    """A referee estimate: the mean score, its standard error (0 for a
    single round) and the empirical win rate."""

    value: float
    stderr: float
    win_rate: float


def subtest_value(strategy: Strategy, qa: int, qb: int, k: int) -> float:
    """The four-term CHSH expectation for pair k at questions (qa, qb).

    Sums (-1)^{r_a[k] r_b[k]} <M^{r_a}_k N^{r_b}_k> over r_a in
    {qa, ~qa} and r_b in {qb, ~qb}.  Terms are accumulated with each
    question pair in ascending numeric order, which makes the value
    exactly invariant under complementing qa or qb.
    """
    m = strategy.half
    mask = (1 << m) - 1
    if not (0 <= qa <= mask and 0 <= qb <= mask):
        raise ValueError(f"questions must be {m}-bit integers")
    if not 1 <= k <= m:
        raise ValueError(f"subtest {k} out of range")
    total = 0.0
    for ra in sorted({qa, qa ^ mask}):
        for rb in sorted({qb, qb ^ mask}):
            sign = -1.0 if ((ra & rb) >> (m - k)) & 1 else 1.0
            total += sign * pair_expectation(
                strategy.alice[ra, k - 1], strategy.bob[rb, k - 1],
                strategy.state, strategy.dim_a, strategy.dim_b)
    return total


def expectation_table(strategy: Strategy) -> np.ndarray:
    """E[a, b, k] = <psi| M^{q_a}_k tensor N^{q_b}_k |psi> for all questions.

    Indices a, b are the big-endian integer encodings of the questions.
    Each entry is sum_ij L[i, j] N[i, j] with Alice's left factor
    L = psi^dag M psi, so the table is taken over the distinct observables
    every strategy stores (``Strategy._distinct_at``), and no dense stack
    is read: per subtest k, L once for each of
    Alice's distinct observables at k, one GEMM of those left factors
    against Bob's distinct observables at k, and a gather of the table's
    entries at k.  An honest or locally noisy player has two distinct
    observables at each k, so a noise model's table forms each left
    factor once and takes 2 x 2 products per subtest; where nothing
    repeats (a random strategy) each GEMM is the one of all questions'
    factors at k.  The factors are formed one subtest at a time, so only
    2^(n/2) of them are held at once.
    """
    da, db = strategy.dim_a, strategy.dim_b
    psi = strategy.state.reshape(da, db)
    m = strategy.half
    q = 1 << m
    table = np.empty((q, q, m))
    for k in range(m):
        alice, a_idx = strategy._distinct_at(0, k)
        left = (psi.conj().T @ (alice @ psi)).reshape(len(alice), -1)
        bob, b_idx = strategy._distinct_at(1, k)
        product = (left @ bob.reshape(len(bob), -1).T).real  # sum_ij L[a, i, j] N[b, i, j]
        table[:, :, k] = product[a_idx[:, None], b_idx]
    return table


def subtest_table(strategy: Strategy) -> np.ndarray:
    """F[a, b, k] = subtest expectation for every question pair and k.

    Built from the expectation table with the same canonical term order
    as :func:`subtest_value`, so F is exactly complement-symmetric in
    both question indices.
    """
    expectations = expectation_table(strategy)
    m = strategy.half
    q_count = 1 << m
    mask = q_count - 1
    idx = np.arange(q_count)
    lo = np.minimum(idx, mask - idx)
    hi = np.maximum(idx, mask - idx)
    bit_of = bits.bit_table(m).astype(float)  # (q, k)

    def signed(a_sel, b_sel):
        sgn = 1.0 - 2.0 * bit_of[a_sel][:, None, :] * bit_of[b_sel][None, :, :]
        return sgn * expectations[a_sel[:, None], b_sel[None, :], :]

    total = signed(lo, lo) + signed(lo, hi)
    total = total + signed(hi, lo)
    total = total + signed(hi, hi)
    return total


def table_value(table: np.ndarray) -> float:
    """Game value from a subtest table: (1/(n 2^(n-1))) * sum of its entries."""
    n = 2 * table.shape[-1]
    return float(table.sum()) / (n * (1 << (n - 1)))


def exact_value(strategy: Strategy) -> float:
    """Exhaustive game value: (1/(n 2^(n-1))) * sum of all subtest terms."""
    if strategy.n > MAX_EXACT_N:
        raise ValueError(f"exhaustive value limited to n <= {MAX_EXACT_N}")
    return table_value(subtest_table(strategy))


def referee_simulate(strategy: Strategy, rounds: int,
                     rng: np.random.Generator) -> GameValue:
    """Estimate the game value by playing ``rounds`` independent rounds.

    Randomness is consumed in a fixed order (all questions, then the
    per-round answer uniforms, then the checked pair indices), so the
    result is a pure function of (strategy, rounds, seed).
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    n, m = strategy.n, strategy.half
    q = rng.integers(0, 1 << n, size=rounds)
    uniforms = rng.random((rounds, n))
    ks = rng.integers(1, m + 1, size=rounds)

    qa_idx = (q >> m).astype(np.int64)
    qb_idx = (q & ((1 << m) - 1)).astype(np.int64)
    x, y = born_answers(strategy, qa_idx, qb_idx, uniforms)

    # bit k of question and answer integers, with bit 1 the most significant
    wins = ((((qa_idx & qb_idx) ^ x ^ y) >> (m - ks)) & 1) == 0
    scores = np.where(wins, 4.0, -4.0)
    estimate = float(scores.mean())
    stderr = float(scores.std(ddof=1) / math.sqrt(rounds)) if rounds > 1 else 0.0
    return GameValue(value=estimate, stderr=stderr, win_rate=float(wins.mean()))
