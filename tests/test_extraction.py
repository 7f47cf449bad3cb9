"""Operator extraction, question relabeling, and pigeonhole searches."""

import math

import numpy as np
import pytest

from chsh_selftest import (
    TSIRELSON,
    NoiseSpec,
    Strategy,
    build_xz,
    canonicalize,
    exact_value,
    find_best_qa,
    find_best_qb,
    find_pair_question,
    ideal_strategy,
    log_question_set,
    noisy_strategy,
    per_subtest_deltas,
    random_strategy,
    relabel_alice_bit,
    relabel_bob_bit,
    search_questions,
    subtest_table,
    subtest_value,
)
from chsh_selftest import bits
from chsh_selftest.linalg import PAULI_X, PAULI_Z


def test_build_xz_recovers_paulis_on_ideal():
    ops = build_xz(ideal_strategy(2))
    assert np.allclose(ops.x_ops[0], PAULI_X)
    assert np.allclose(ops.z_ops[0], PAULI_Z)
    assert np.allclose(ops.x_ops[1], PAULI_X)
    assert np.allclose(ops.z_ops[1], PAULI_Z)


def test_build_xz_ideal_n4():
    ops = build_xz(ideal_strategy(4))
    for k in range(4):
        m = np.asarray(ops.x_ops[k])
        assert np.allclose(m @ m, np.eye(m.shape[0]), atol=1e-12)
        z = np.asarray(ops.z_ops[k])
        assert np.allclose(z @ z, np.eye(z.shape[0]), atol=1e-12)
        # X and Z on the same tested qubit anticommute
        da = ops.dim_a
        assert np.allclose(m @ z + z @ m, 0, atol=1e-12)


def test_relabel_preserves_value():
    for seed in range(10):
        s = random_strategy(2, np.random.default_rng(seed))
        v = exact_value(s).value
        assert exact_value(relabel_alice_bit(s, 1)).value == pytest.approx(v, abs=1e-9)
        assert exact_value(relabel_bob_bit(s, 1)).value == pytest.approx(v, abs=1e-9)


def test_relabel_preserves_value_n4():
    s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.2))
    v = exact_value(s).value
    for k in (1, 2):
        assert exact_value(relabel_alice_bit(s, k)).value == pytest.approx(v, abs=1e-9)
        assert exact_value(relabel_bob_bit(s, k)).value == pytest.approx(v, abs=1e-9)


def test_double_relabel_is_identity():
    s = random_strategy(2, np.random.default_rng(44))
    twice = relabel_alice_bit(relabel_alice_bit(s, 1), 1)
    for q in s.alice_obs:
        assert np.array_equal(twice.alice_obs[q][0], s.alice_obs[q][0])
        assert np.array_equal(twice.bob_obs[q][0], s.bob_obs[q][0])
    twice = relabel_bob_bit(relabel_bob_bit(s, 1), 1)
    for q in s.bob_obs:
        assert np.array_equal(twice.bob_obs[q][0], s.bob_obs[q][0])
        assert np.array_equal(twice.alice_obs[q][0], s.alice_obs[q][0])


def test_relabel_index_range():
    s = ideal_strategy(2)
    with pytest.raises(ValueError):
        relabel_alice_bit(s, 0)
    with pytest.raises(ValueError):
        relabel_alice_bit(s, 2)
    with pytest.raises(ValueError):
        relabel_bob_bit(s, 2)


def test_find_best_qb_on_ideal_is_zeros():
    assert find_best_qb(ideal_strategy(4)) == "00"
    assert find_best_qa(ideal_strategy(4)) == "00"


def build_single_question_strategy(n, special):
    """Alice ideal everywhere; Bob ideal only at ``special`` (and so, by
    complement symmetry of subtests, at its complement), identity elsewhere."""
    ideal = ideal_strategy(n)
    dim = ideal.dim_b
    ident = np.eye(dim, dtype=complex)
    bob = {}
    for q in bits.all_strings(n // 2):
        if q == special:
            bob[q] = [np.asarray(mk).copy() for mk in ideal.bob_obs[q]]
        else:
            bob[q] = [ident.copy() for _ in range(n // 2)]
    alice = {q: [np.asarray(mk).copy() for mk in fam]
             for q, fam in ideal.alice_obs.items()}
    return Strategy(n=n, dim_a=ideal.dim_a, dim_b=dim,
                    state=ideal.state.copy(), alice_obs=alice, bob_obs=bob)


def test_find_best_qb_prefers_the_playing_question():
    s = build_single_question_strategy(8, "0110")
    assert find_best_qb(s) == "0110"


def test_best_question_beats_average():
    for seed in range(40):
        s = random_strategy(2, np.random.default_rng(200 + seed))
        v = exact_value(s).value
        best = find_best_qb(s)
        # average subtest expectation seen by Bob's question; its mean over
        # Bob's questions is the game value
        score = (float(subtest_table(s)[:, bits.to_int(best), :].sum())
                 / (s.n * (1 << (s.half - 1))))
        assert score >= v - 1e-12


def test_canonicalize_moves_best_questions_to_zero():
    s = build_single_question_strategy(8, "0110")
    canon, transcript = canonicalize(s)
    assert find_best_qb(canon) == "0000"
    assert {(step["party"], step["bit"]) for step in transcript} >= {("B", 2), ("B", 3)}
    # value is untouched by relabeling
    assert exact_value(canon).value == pytest.approx(exact_value(s).value, abs=1e-9)


def test_canonicalize_ideal_is_empty_transcript():
    canon, transcript = canonicalize(ideal_strategy(4))
    assert transcript == []
    assert find_best_qb(canon) == "00"


def test_per_subtest_deltas_bounded_by_pigeonhole():
    for eta in (0.05, 0.2):
        s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=eta))
        eps = max(0.0, TSIRELSON - exact_value(s).value)
        canon, _ = canonicalize(s)
        deltas = per_subtest_deltas(canon)
        assert deltas.shape == (2,)
        assert np.all(deltas <= 2 * eps + 1e-12)


def test_find_pair_question_pattern_and_guarantee():
    s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.1))
    canon, _, result = search_questions(s)
    eps = max(0.0, TSIRELSON - exact_value(s).value)
    q = result.pair_questions[(1, 2)]
    assert bits.bit(q, 1) == 0 and bits.bit(q, 2) == 1
    zeros = bits.zeros(2)
    f1 = subtest_value(canon, q, zeros, 1)
    f2 = subtest_value(canon, q, zeros, 2)
    assert min(f1, f2) >= TSIRELSON - 4 * eps - 1e-12


def test_find_pair_question_rejects_bad_indices():
    s = ideal_strategy(4)
    with pytest.raises(ValueError):
        find_pair_question(s, 1, 1)
    with pytest.raises(ValueError):
        find_pair_question(s, 0, 2)
    with pytest.raises(ValueError):
        find_pair_question(s, 1, 3)


def test_log_question_set_examples():
    assert log_question_set(2) == []
    assert log_question_set(8) == ["1010", "0110", "0001"]
    assert log_question_set(4) == ["10", "01"]


def test_log_question_set_size_and_separation():
    for n in range(4, 66, 2):
        m = n // 2
        qs = log_question_set(n)
        assert len(qs) == math.ceil(math.log2(m + 1))
        for k in range(1, m + 1):
            for ell in range(k + 1, m + 1):
                assert any(bits.bit(q, k) != bits.bit(q, ell) for q in qs), \
                    f"n={n}: bits {k},{ell} not separated"


def test_log_question_set_rejects_odd():
    with pytest.raises(ValueError):
        log_question_set(3)
    with pytest.raises(ValueError):
        log_question_set(0)


def test_search_questions_reports_canonical_names():
    s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.1))
    canon, transcript, result = search_questions(s)
    assert result.q_b_star == "00"
    assert result.q_a_star == "00"
    assert transcript == []
    assert set(result.pair_questions) == {(1, 2)}
    assert len(result.per_subtest_delta) == 2
