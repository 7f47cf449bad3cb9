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
from .strategy import Strategy, _sample_bits

TSIRELSON = 2.0 * math.sqrt(2.0)

#: roundoff allowance for the pigeonhole searches and guarantees: scores
#: this close to the best count as ties, and the guarantees, exact
#: inequalities in real arithmetic, are checked up to it
PIGEONHOLE_SLACK = 1e-12

#: exhaustive value sums are refused above this size
MAX_EXACT_N = 12


@dataclass(frozen=True)
class GameValue:
    """A game value together with how it was obtained.

    ``stderr`` is zero in exact mode; ``win_rate`` is the win probability
    implied by the value (score = 4 * (2p - 1)) or the empirical rate.
    """

    value: float
    mode: str  # "exact" | "sampled"
    rounds: int | None = None
    stderr: float = 0.0
    win_rate: float | None = None


def win(q: str, k: int, x_k: int, y_k: int) -> bool:
    """Whether answer bits (x_k, y_k) win subtest k of full question q."""
    n = len(bits.check(q))
    if n % 2 != 0:
        raise ValueError("full question must have even length")
    if not 1 <= k <= n // 2:
        raise ValueError(f"subtest {k} out of range for n = {n}")
    if x_k not in (0, 1) or y_k not in (0, 1):
        raise ValueError("answer bits must be 0 or 1")
    return (bits.bit(q, k) & bits.bit(q, k + n // 2)) == (x_k ^ y_k)


def subtest_value(strategy: Strategy, q_a: str, q_b: str, k: int) -> float:
    """The four-term CHSH expectation for pair k at questions (q_a, q_b).

    Sums (-1)^{r_a[k] r_b[k]} <M^{r_a}_k N^{r_b}_k> over r_a in
    {q_a, ~q_a} and r_b in {q_b, ~q_b}.  Terms are accumulated with each
    question pair in ascending numeric order, which makes the value
    exactly invariant under complementing q_a or q_b.
    """
    m = strategy.half
    if len(bits.check(q_a)) != m or len(bits.check(q_b)) != m:
        raise ValueError(f"questions must have length {m}")
    if not 1 <= k <= m:
        raise ValueError(f"subtest {k} out of range")
    mask = (1 << m) - 1
    qa, qb = bits.to_int(q_a), bits.to_int(q_b)
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
    """
    psi = strategy.state.reshape(strategy.dim_a, strategy.dim_b)
    left = psi.conj().T @ (strategy.alice @ psi)  # [a, k] = psi^dag M^a_k psi
    return np.einsum("akij,bkij->abk", left, strategy.bob).real


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


def exact_value(strategy: Strategy) -> GameValue:
    """Exhaustive game value: (1/(n 2^(n-1))) * sum of all subtest terms."""
    if strategy.n > MAX_EXACT_N:
        raise ValueError(f"exhaustive value limited to n <= {MAX_EXACT_N}")
    value = table_value(subtest_table(strategy))
    return GameValue(value=value, mode="exact", stderr=0.0,
                     win_rate=(value + 4.0) / 8.0)


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
    x, y = _sample_bits(strategy, qa_idx, qb_idx, uniforms)

    qa_bit = (qa_idx >> (m - ks)) & 1
    qb_bit = (qb_idx >> (m - ks)) & 1
    x_k = np.take_along_axis(x, (ks - 1)[:, None], axis=1)[:, 0]
    y_k = np.take_along_axis(y, (ks - 1)[:, None], axis=1)[:, 0]
    wins = (qa_bit & qb_bit) == (x_k ^ y_k)
    scores = np.where(wins, 4.0, -4.0)
    estimate = float(scores.mean())
    stderr = float(scores.std(ddof=1) / math.sqrt(rounds)) if rounds > 1 else 0.0
    return GameValue(value=estimate, mode="sampled", rounds=rounds,
                     stderr=stderr, win_rate=float(wins.mean()))
