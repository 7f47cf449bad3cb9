"""Game scoring: subtest functionals, exact values, referee sampling."""

import numpy as np
import pytest

from chsh_selftest import (
    MAX_EXACT_N,
    TSIRELSON,
    NoiseSpec,
    exact_value,
    expectation_table,
    ideal_strategy,
    noisy_strategy,
    random_strategy,
    referee_simulate,
    subtest_table,
    subtest_value,
    win,
)
from chsh_selftest import Strategy, bits


def all_plus_identity_strategy(n):
    """Deterministic strategy: every observable is +I, all answers zero."""
    m = n // 2
    dim = 1 << m
    ident = np.broadcast_to(np.eye(dim), (1 << m, m, dim, dim))
    state = np.zeros(dim * dim, dtype=complex)
    state[0] = 1.0
    return Strategy(state=state, alice=ident, bob=ident)


def test_win_condition():
    # product of the two question bits must equal the answer XOR
    assert win("11", 1, 0, 1)
    assert win("11", 1, 1, 0)
    assert not win("11", 1, 0, 0)
    assert win("01", 1, 0, 0)
    assert win("01", 1, 1, 1)
    assert not win("01", 1, 1, 0)
    with pytest.raises(ValueError):
        win("011", 1, 0, 0)
    with pytest.raises(ValueError):
        win("01", 2, 0, 0)
    with pytest.raises(ValueError):
        win("01", 1, 2, 0)


def test_win_condition_n4_by_hand():
    # q = "0110": subtest 1 pairs bits (1, 3) = (0, 1) -> product 0
    #             subtest 2 pairs bits (2, 4) = (1, 0) -> product 0
    for k in (1, 2):
        assert win("0110", k, 0, 0)
        assert win("0110", k, 1, 1)
        assert not win("0110", k, 0, 1)
    # q = "1110": subtest 1 pairs (1, 3) = (1, 1) -> product 1
    assert win("1110", 1, 1, 0)
    assert not win("1110", 1, 0, 0)
    assert win("1110", 2, 0, 0)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_ideal_value_is_tsirelson(n):
    res = exact_value(ideal_strategy(n))
    assert res.value == pytest.approx(TSIRELSON, abs=1e-12)
    assert res.mode == "exact"
    assert res.stderr == 0.0
    assert res.win_rate == pytest.approx((TSIRELSON + 4) / 8, abs=1e-12)


def test_every_subtest_of_ideal_n4_is_tsirelson():
    s = ideal_strategy(4)
    for qa in bits.all_strings(2):
        for qb in bits.all_strings(2):
            for k in (1, 2):
                assert subtest_value(s, qa, qb, k) == pytest.approx(
                    TSIRELSON, abs=1e-12)


def test_subtest_complement_invariance_is_bitwise():
    s = random_strategy(4, np.random.default_rng(11))
    for qa, qb, k in (("00", "10", 1), ("01", "11", 2), ("10", "00", 1)):
        f = subtest_value(s, qa, qb, k)
        ca, cb = (q.translate(str.maketrans("01", "10")) for q in (qa, qb))
        assert subtest_value(s, ca, qb, k) == f
        assert subtest_value(s, qa, cb, k) == f
        assert subtest_value(s, ca, cb, k) == f


def test_subtest_table_matches_direct_sum():
    s = random_strategy(4, np.random.default_rng(23))
    tab = subtest_table(s)
    for ai, qa in enumerate(bits.all_strings(2)):
        for bi, qb in enumerate(bits.all_strings(2)):
            for k in (1, 2):
                assert tab[ai, bi, k - 1] == pytest.approx(
                    subtest_value(s, qa, qb, k), abs=1e-12)


def test_expectation_table_entries():
    s = ideal_strategy(2)
    e = expectation_table(s)
    # <A_x ⊗ B_y> = ±1/sqrt(2), sign -1 only for x = y = 1
    assert e[0, 0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert e[0, 1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert e[1, 0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert e[1, 1, 0] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("n", [2, 4])
def test_classical_deterministic_value_matches_brute_force(n):
    s = all_plus_identity_strategy(n)
    got = exact_value(s).value

    # oracle: all answers are zero, so a subtest wins iff the paired
    # question bits have product zero; enumerate every (question, subtest)
    m = n // 2
    total = 0.0
    count = 0
    for q in bits.all_strings(n):
        for k in range(1, m + 1):
            w = (bits.bit(q, k) & bits.bit(q, k + m)) == 0
            total += 4.0 if w else -4.0
            count += 1
    oracle = total / count
    assert oracle == 2.0
    assert got == pytest.approx(oracle, abs=1e-12)


def test_negating_bob_flips_sign():
    s = ideal_strategy(2)
    flipped = Strategy(state=s.state, alice=s.alice, bob=-s.bob)
    assert exact_value(flipped).value == pytest.approx(-TSIRELSON, abs=1e-12)


def test_tsirelson_bound_on_random_strategies():
    for seed in range(25):
        s = random_strategy(2, np.random.default_rng(seed))
        v = exact_value(s).value
        assert abs(v) <= TSIRELSON + 1e-9
        tab = subtest_table(s)
        assert np.max(np.abs(tab)) <= TSIRELSON + 1e-9


def test_exact_value_size_guard():
    with pytest.raises(ValueError):
        exact_value(ideal_strategy(MAX_EXACT_N + 2))


def test_referee_estimate_and_determinism():
    s = ideal_strategy(2)
    res = referee_simulate(s, 100_000, np.random.default_rng(5))
    assert res.mode == "sampled"
    assert res.rounds == 100_000
    # score variance is 16 - 8 = 8, so stderr ~ sqrt(8/rounds)
    expect_stderr = np.sqrt(8.0 / 100_000)
    assert 0.8 * expect_stderr < res.stderr < 1.2 * expect_stderr
    assert abs(res.value - TSIRELSON) < 5 * res.stderr
    assert res.win_rate == pytest.approx((res.value + 4) / 8, abs=1e-12)

    res2 = referee_simulate(s, 100_000, np.random.default_rng(5))
    assert res2.value == res.value
    assert res2.stderr == res.stderr


def test_referee_single_round():
    s = ideal_strategy(2)
    res = referee_simulate(s, 1, np.random.default_rng(0))
    assert res.value in (4.0, -4.0)
    assert res.stderr == 0.0


def test_referee_on_noisy_strategy():
    eta = 0.3
    s = noisy_strategy(2, NoiseSpec(model="bob-rotation", param=eta))
    res = referee_simulate(s, 200_000, np.random.default_rng(12))
    assert abs(res.value - 2 * np.sqrt(2) * np.cos(eta)) < 5 * res.stderr
