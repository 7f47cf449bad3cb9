"""Game scoring: subtest functionals, exact values, referee sampling."""

import contextlib
import io
import math

import numpy as np
import pytest

from chsh_selftest import (
    MAX_EXACT_N,
    TSIRELSON,
    NoiseSpec,
    Strategy,
    exact_value,
    ideal_strategy,
    noisy_strategy,
    random_strategy,
    referee_simulate,
)
from chsh_selftest import bits, cli, save_strategy, strategy as strategy_module
from chsh_selftest.game import expectation_table, subtest_table, subtest_value
from test_strategy import collapse_sample
from test_verifier import family_strategy


def win(q, k, x_k, y_k):
    """Whether answer bits (x_k, y_k) win subtest k of full question q: the
    per-round scoring oracle for the referee."""
    n = len(q)
    if n % 2 != 0:
        raise ValueError("full question must have even length")
    if not 1 <= k <= n // 2:
        raise ValueError(f"subtest {k} out of range for n = {n}")
    if x_k not in (0, 1) or y_k not in (0, 1):
        raise ValueError("answer bits must be 0 or 1")
    return (int(q[k - 1]) & int(q[k - 1 + n // 2])) == (x_k ^ y_k)


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
    assert exact_value(ideal_strategy(n)) == pytest.approx(TSIRELSON, abs=1e-12)


def test_every_subtest_of_ideal_n4_is_tsirelson():
    s = ideal_strategy(4)
    for qa in range(4):
        for qb in range(4):
            for k in (1, 2):
                assert subtest_value(s, qa, qb, k) == pytest.approx(
                    TSIRELSON, abs=1e-12)


def test_subtest_complement_invariance_is_bitwise():
    s = random_strategy(4, np.random.default_rng(11))
    for qa, qb, k in ((0b00, 0b10, 1), (0b01, 0b11, 2), (0b10, 0b00, 1)):
        f = subtest_value(s, qa, qb, k)
        ca, cb = qa ^ 0b11, qb ^ 0b11
        assert subtest_value(s, ca, qb, k) == f
        assert subtest_value(s, qa, cb, k) == f
        assert subtest_value(s, ca, cb, k) == f


def test_subtest_table_matches_direct_sum():
    s = random_strategy(4, np.random.default_rng(23))
    tab = subtest_table(s)
    for qa in range(4):
        for qb in range(4):
            for k in (1, 2):
                assert tab[qa, qb, k - 1] == pytest.approx(
                    subtest_value(s, qa, qb, k), abs=1e-12)


def test_expectation_table_entries():
    s = ideal_strategy(2)
    e = expectation_table(s)
    # <A_x ⊗ B_y> = ±1/sqrt(2), sign -1 only for x = y = 1
    assert e[0, 0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert e[0, 1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert e[1, 0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert e[1, 1, 0] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)


def expectation_table_per_question(strategy):
    """The table with psi^dag M psi for every Alice observable and one GEMM
    of all questions' factors per subtest: the formula before the table
    was taken over distinct observables."""
    psi = strategy.state.reshape(strategy.dim_a, strategy.dim_b)
    left = psi.conj().T @ (strategy.alice @ psi)  # [a, k] = psi^dag M^a_k psi
    q = len(left)
    table = np.empty((q, q, strategy.half))
    for k in range(strategy.half):  # sum_ij left[a, k, i, j] bob[b, k, i, j]
        table[:, :, k] = (left[:, k].reshape(q, -1) @ strategy.bob[:, k].reshape(q, -1).T).real
    return table


EXPECTATION_FAMILIES = ["random", "random-3x5", "bob-rotation", "partial-entanglement",
                        "twisted-ideal", "phased-partial-entanglement"]


@pytest.mark.parametrize("family", EXPECTATION_FAMILIES)
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_expectation_table_over_distinct_observables_matches_every_question(n, family):
    if family.startswith("phased-"):  # a global phase: complex state, real observables
        s = family_strategy(n, family.removeprefix("phased-"))
        s = Strategy(state=s.state * np.exp(0.7j), alice=s.alice, bob=s.bob)
    else:
        s = family_strategy(n, family, seed=40 + n)
    got, want = expectation_table(s), expectation_table_per_question(s)
    if family.startswith("random"):
        # every question is its own class: each GEMM is the per-question one
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-15


def test_the_classes_are_found_once_per_player_in_a_value_run(monkeypatch, tmp_path):
    calls = []
    classes = strategy_module._classes

    def spy(flat):
        calls.append(len(flat))
        return classes(flat)

    monkeypatch.setattr(strategy_module, "_classes", spy)
    path = tmp_path / "pe.json"
    save_strategy(noisy_strategy(6, NoiseSpec("partial-entanglement", 0.6)), path)
    random_path = tmp_path / "random.json"
    save_strategy(random_strategy(6, np.random.default_rng(1)), random_path)
    for argv, want in (
            # the loader groups the 2 m distinct matrix texts per player
            (["value", "--strategy", str(path)], [2 * 3, 2 * 3]),
            # and a random file's every matrix, each distinct
            (["value", "--strategy", str(random_path)], [3 * 8, 3 * 8]),
            # a noise model is built from its classes, and never grouped
            (["value", "--n", "6", "--noise", "bob-rotation", "--noise-param", "0.1"], [])):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert calls == want  # Alice's, then Bob's, once each, if at all


def test_every_strategy_gathers_its_dense_stacks_only_where_read(monkeypatch, tmp_path):
    gathers = []
    gathered = Strategy._gathered
    monkeypatch.setattr(Strategy, "_gathered",
                        lambda self, player: gathers.append(player) or gathered(self, player))
    paths = [tmp_path / "pe.json", tmp_path / "random.json"]
    save_strategy(noisy_strategy(6, NoiseSpec("partial-entanglement", 0.6)), paths[0])
    save_strategy(random_strategy(6, np.random.default_rng(1)), paths[1])
    # two loaded files, and the noise model its flags build
    sources = [["--strategy", str(path)] for path in paths]
    sources.append(["--n", "6", "--noise", "partial-entanglement", "--noise-param", "0.6"])
    for source in sources:
        for argv, want in (
                # validate and the exact value read the distinct observables alone
                (["value", *source], []),
                # extraction reads each dense stack, gathered once and kept
                (["certify", *source, "--format", "text"], [0, 1])):
            gathers.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) in (0, 1)
            assert sorted(gathers) == want


@pytest.mark.parametrize("n", [2, 4])
def test_classical_deterministic_value_matches_brute_force(n):
    s = all_plus_identity_strategy(n)
    got = exact_value(s)

    # oracle: all answers are zero, so a subtest wins iff the paired
    # question bits have product zero; enumerate every (question, subtest)
    m = n // 2
    total = 0.0
    count = 0
    for q in bits.all_strings(n):
        for k in range(1, m + 1):
            w = (int(q[k - 1]) & int(q[k - 1 + m])) == 0
            total += 4.0 if w else -4.0
            count += 1
    oracle = total / count
    assert oracle == 2.0
    assert got == pytest.approx(oracle, abs=1e-12)


def test_negating_bob_flips_sign():
    s = ideal_strategy(2)
    flipped = Strategy(state=s.state, alice=s.alice, bob=-s.bob)
    assert exact_value(flipped) == pytest.approx(-TSIRELSON, abs=1e-12)


def test_tsirelson_bound_on_random_strategies():
    for seed in range(25):
        s = random_strategy(2, np.random.default_rng(seed))
        v = exact_value(s)
        assert abs(v) <= TSIRELSON + 1e-9
        tab = subtest_table(s)
        assert np.max(np.abs(tab)) <= TSIRELSON + 1e-9


def test_exact_value_size_guard():
    with pytest.raises(ValueError):
        exact_value(ideal_strategy(MAX_EXACT_N + 2))


def test_referee_estimate_and_determinism():
    s = ideal_strategy(2)
    res = referee_simulate(s, 100_000, np.random.default_rng(5))
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


@pytest.mark.parametrize("strategy", [
    noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.4)),
    random_strategy(4, np.random.default_rng(8)),
], ids=["bob-rotation", "random"])
def test_referee_matches_per_round_oracle(strategy):
    rounds, n, m = 500, 4, 2
    res = referee_simulate(strategy, rounds, np.random.default_rng(31))
    # the same draws in the referee's order: questions, answer uniforms, pairs
    rng = np.random.default_rng(31)
    q = rng.integers(0, 1 << n, size=rounds)
    uniforms = rng.random((rounds, n))
    ks = rng.integers(1, m + 1, size=rounds)
    x, y = collapse_sample(strategy, q >> m, q & ((1 << m) - 1), uniforms)
    wins = np.array([win(bits.from_int(int(q[r]), n), int(k), int(x[r, k - 1]), int(y[r, k - 1]))
                     for r, k in enumerate(ks)])
    scores = np.where(wins, 4.0, -4.0)
    assert res.value == float(scores.mean())
    assert res.stderr == float(scores.std(ddof=1) / math.sqrt(rounds))
    assert res.win_rate == float(wins.mean())
