"""Strategies: construction, validation, Born sampling, serialization."""

import json

import numpy as np
import pytest

from chsh_selftest import (
    NoiseSpec,
    Strategy,
    born_distribution,
    ideal_state,
    ideal_strategy,
    noisy_strategy,
    random_strategy,
    sample_answers,
    strategy_from_text,
    strategy_to_text,
    validate,
)
from chsh_selftest.strategy import joint_projector

SQ2 = np.sqrt(2)


def test_ideal_state_n2():
    psi = ideal_state(2)
    assert psi.shape == (4,)
    assert np.allclose(psi, np.array([1, 1, 1, -1]) / 2.0)


def test_ideal_state_sign_pattern_n4():
    psi = ideal_state(4).reshape(4, 4)
    # sign is (-1)^{popcount(iA & iB)}
    for ia in range(4):
        for ib in range(4):
            expect = (-1) ** bin(ia & ib).count("1") / 4.0
            assert psi[ia, ib] == pytest.approx(expect, abs=1e-15)


def test_ideal_strategy_validates():
    for n in (2, 4):
        diag = validate(ideal_strategy(n))
        assert diag.ok
        assert diag.hermiticity < 1e-12
        assert diag.unitarity < 1e-12
        assert diag.commutation < 1e-12
        assert diag.normalization < 1e-12


def test_validate_flags_non_unitary():
    s = ideal_strategy(2)
    alice = s.alice.copy()
    alice[0, 0] *= 0.5
    bad = Strategy(state=s.state, alice=alice, bob=s.bob)
    diag = validate(bad)
    assert not diag.ok
    assert diag.unitarity == pytest.approx(0.75)


def test_validate_flags_family_commutation():
    # two anticommuting observables inside one family
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    state = np.zeros(8, dtype=complex)
    state[0] = 1.0
    alice = np.broadcast_to([np.kron(sx, np.eye(2)), np.kron(np.eye(2), sx)], (4, 2, 4, 4))
    bob = np.broadcast_to([sx, sz], (4, 2, 2, 2))
    bad = Strategy(state=state, alice=alice, bob=bob)
    assert (bad.n, bad.dim_a, bad.dim_b) == (4, 4, 2)
    diag = validate(bad)
    assert not diag.ok
    assert diag.commutation == pytest.approx(2.0)


def test_validate_matches_a_per_observable_loop():
    from chsh_selftest.linalg import (commutation_residual, hermiticity_residual,
                                      unitarity_residual)
    rng = np.random.default_rng(3)
    s = random_strategy(6, rng, dim_a=3, dim_b=5)
    bad = Strategy(state=1.1 * s.state, alice=s.alice + 1e-3 * rng.normal(size=s.alice.shape),
                   bob=s.bob * (1 + 1e-4j))
    herm = unit = comm = 0.0
    for stack in (bad.alice, bad.bob):
        for family in stack:
            for i, obs in enumerate(family):
                herm = max(herm, hermiticity_residual(obs))
                unit = max(unit, unitarity_residual(obs))
                comm = max([comm] + [commutation_residual(obs, o) for o in family[i + 1:]])
    diag = validate(bad)
    assert diag.hermiticity == pytest.approx(herm, rel=1e-12)
    assert diag.unitarity == pytest.approx(unit, rel=1e-12)
    assert diag.commutation == pytest.approx(comm, rel=1e-12)
    assert diag.normalization == pytest.approx(0.1, rel=1e-12)
    assert min(herm, unit, comm) > 1e-5


def test_strategy_rejects_missing_question():
    s = ideal_strategy(2)
    with pytest.raises(ValueError):
        Strategy(state=s.state, alice=s.alice[:1], bob=s.bob)
    # the players' question lengths and the state size must agree too
    with pytest.raises(ValueError):
        Strategy(state=s.state, alice=s.alice, bob=ideal_strategy(4).bob)
    with pytest.raises(ValueError):
        Strategy(state=s.state[:2], alice=s.alice, bob=s.bob)


def test_strategy_arrays_are_frozen():
    s = ideal_strategy(2)
    with pytest.raises(ValueError):
        s.state[0] = 0.0
    with pytest.raises(ValueError):
        s.alice[0, 0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        s.bob_obs["0"][0][0, 0] = 5.0


def test_joint_projector_completeness():
    s = ideal_strategy(4)
    total = sum(joint_projector(s, "A", "01", x)
                for x in ("00", "01", "10", "11"))
    assert np.allclose(total, np.eye(4))
    p = joint_projector(s, "B", "10", "01")
    assert np.allclose(p @ p, p)


def test_born_distribution_ideal_n2():
    s = ideal_strategy(2)
    dist = born_distribution(s, "0", "0")
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    hi = (1 + 1 / SQ2) / 4
    lo = (1 - 1 / SQ2) / 4
    assert dist[0, 0] == pytest.approx(hi, abs=1e-12)
    assert dist[1, 1] == pytest.approx(hi, abs=1e-12)
    assert dist[0, 1] == pytest.approx(lo, abs=1e-12)
    assert dist[1, 0] == pytest.approx(lo, abs=1e-12)


def test_born_distribution_sums_to_one_random():
    s = random_strategy(4, np.random.default_rng(17))
    for qa, qb in (("00", "11"), ("01", "10")):
        assert born_distribution(s, qa, qb).sum() == pytest.approx(1.0, abs=1e-10)


def test_sampling_is_deterministic():
    s = ideal_strategy(4)
    a = sample_answers(s, "01", "10", np.random.default_rng(42))
    b = sample_answers(s, "01", "10", np.random.default_rng(42))
    assert a == b


def test_sampling_matches_born_distribution():
    s = ideal_strategy(2)
    dist = born_distribution(s, "0", "1")
    rng = np.random.default_rng(7)
    counts = np.zeros((2, 2))
    trials = 20_000
    for _ in range(trials):
        x, y = sample_answers(s, "0", "1", rng)
        counts[int(x, 2), int(y, 2)] += 1
    freq = counts / trials
    # 5 sigma on each cell
    for xi in range(2):
        for yi in range(2):
            p = dist[xi, yi]
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(freq[xi, yi] - p) < 5 * sigma


@pytest.mark.parametrize("model,param,expect", [
    ("bob-rotation", 0.1, 2 * SQ2 * np.cos(0.1)),
    ("bob-rotation", 0.3, 2 * SQ2 * np.cos(0.3)),
    ("partial-entanglement", 0.5, SQ2 * (1 + np.sin(1.0))),
    ("partial-entanglement", np.pi / 4, 2 * SQ2),
])
def test_noise_models_hit_analytic_values(model, param, expect):
    from chsh_selftest import exact_value
    s = noisy_strategy(2, NoiseSpec(model=model, param=param))
    assert validate(s).ok
    assert exact_value(s).value == pytest.approx(expect, abs=1e-12)
    # model "none" is rotation 0 on the ideal pair state: the ideal strategy
    for n in (2, 4, 6):
        plain, ideal = noisy_strategy(n, NoiseSpec()), ideal_strategy(n)
        for got, want in ((plain.state, ideal.state), (plain.alice, ideal.alice),
                          (plain.bob, ideal.bob)):
            assert np.array_equal(got, want)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(model="banana", param=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(model="none", param=0.5)
    with pytest.raises(ValueError):
        NoiseSpec(model="partial-entanglement", param=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(model="partial-entanglement", param=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(model="bob-rotation", param=float("nan"))


def test_random_strategy_families_commute_exactly():
    s = random_strategy(4, np.random.default_rng(0), dim_a=4, dim_b=4)
    diag = validate(s)
    assert diag.ok
    c = s.alice[:, 0] @ s.alice[:, 1] - s.alice[:, 1] @ s.alice[:, 0]
    assert np.max(np.abs(c)) < 1e-13


def test_serialization_round_trip_bit_exact():
    s = noisy_strategy(2, NoiseSpec(model="bob-rotation", param=0.2))
    text = strategy_to_text(s)
    back = strategy_from_text(text)
    assert back.n == s.n and back.dim_a == s.dim_a and back.dim_b == s.dim_b
    for got, want in ((back.state, s.state), (back.alice, s.alice), (back.bob, s.bob)):
        assert got.tobytes() == want.tobytes()
    assert strategy_to_text(back) == text


def test_serialization_random_round_trip():
    s = random_strategy(2, np.random.default_rng(9), dim_a=4, dim_b=2)
    back = strategy_from_text(strategy_to_text(s))
    for got, want in ((back.state, s.state), (back.alice, s.alice), (back.bob, s.bob)):
        assert got.tobytes() == want.tobytes()
    assert back.dim_a == 4 and back.dim_b == 2


def _edited(name, path, value):
    """A mangle that sets the entry at ``path`` (a key sequence) of the
    parsed document to ``value``; pytest shows it as ``name``."""
    def mangle(text):
        doc = json.loads(text)
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        return json.dumps(doc)
    mangle.__name__ = name
    return mangle


ONE = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # a flat 2x2 identity

#: edits that turn the ideal n = 2 document into JSON that is no strategy document
MALFORMED_EDITS = [
    _edited("alice_obs-list", ["alice_obs"], []),
    _edited("alice_obs-string", ["alice_obs"], "0"),
    _edited("bob_obs-number", ["bob_obs"], 5),
    _edited("string-entry", ["alice_obs", "0", 0, 0], ["1.0", "0"]),
    _edited("null-entry", ["alice_obs", "0", 0, 0], None),
    _edited("null-part", ["bob_obs", "1", 0, 0], [None, 0.0]),
    _edited("triple-entry", ["alice_obs", "0", 0, 0], [1.0, 0.0, 0.0]),
    _edited("long-family", ["bob_obs", "0"], [ONE, ONE]),
    _edited("extra-question", ["alice_obs", "00"], [ONE]),
    _edited("odd-n", ["n"], 3),
    _edited("short-state", ["state"], ONE[:3]),
]


@pytest.mark.parametrize("mangle", [
    lambda d: d.replace('"n"', '"m"', 1),
    lambda d: d[: len(d) // 2],
    lambda d: "[]",
] + MALFORMED_EDITS)
def test_malformed_documents_rejected(mangle):
    text = strategy_to_text(ideal_strategy(2))
    with pytest.raises(ValueError):
        strategy_from_text(mangle(text))
