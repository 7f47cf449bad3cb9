"""Operator extraction, question relabeling, and pigeonhole searches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chsh_selftest import (
    TSIRELSON,
    NoiseSpec,
    Strategy,
    build_xz,
    exact_value,
    find_pair_question,
    ideal_strategy,
    log_question_set,
    noisy_strategy,
    random_strategy,
    relabel,
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
        assert exact_value(relabel(s, "1", "0")).value == pytest.approx(v, abs=1e-9)
        assert exact_value(relabel(s, "0", "1")).value == pytest.approx(v, abs=1e-9)


def test_relabel_preserves_value_n4():
    s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.2))
    v = exact_value(s).value
    for q_a in bits.all_strings(2):
        for q_b in bits.all_strings(2):
            assert exact_value(relabel(s, q_a, q_b)).value == pytest.approx(v, abs=1e-9)


def test_double_relabel_is_identity():
    s = random_strategy(2, np.random.default_rng(44))
    for q_a, q_b in (("1", "0"), ("0", "1")):
        twice = relabel(relabel(s, q_a, q_b), q_a, q_b)
        assert np.array_equal(twice.alice, s.alice)
        assert np.array_equal(twice.bob, s.bob)


def test_relabel_index_range():
    s = ideal_strategy(2)
    for q_a, q_b in (("", "0"), ("01", "0"), ("0", "00"), ("2", "0")):
        with pytest.raises(ValueError):
            relabel(s, q_a, q_b)


def _flip_bits(strategy, mask, party):
    """Oracle: flip the set bits of ``mask`` one at a time in one party's
    questions; the other party's k-th observable changes sign at its
    questions with bit k set."""
    m = strategy.half
    alice, bob = strategy.alice, strategy.bob
    for k in range(1, m + 1):
        if not bits.bit(mask, k):
            continue
        own, other = (alice, bob) if party == "A" else (bob, alice)
        unit = 1 << (m - k)
        flipped = np.array([own[q ^ unit] for q in range(1 << m)])
        signed = np.array([[-o if i == k - 1 and bits.bit(bits.from_int(q, m), k) else o
                            for i, o in enumerate(family)] for q, family in enumerate(other)])
        alice, bob = (flipped, signed) if party == "A" else (signed, flipped)
    return Strategy(state=strategy.state, alice=alice, bob=bob)


def _property_strategy(n, index):
    """Random strategies for indices 0, 1; noise-model ones above."""
    if index < 2:
        return random_strategy(n, np.random.default_rng(index))
    model = ("bob-rotation", "partial-entanglement")[index % 2]
    return noisy_strategy(n, NoiseSpec(model=model, param=0.1 * index))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.integers(min_value=0, max_value=5), st.data())
def test_relabel_permutes_the_subtest_table(n, index, data):
    s = _property_strategy(n, index)
    m = n // 2
    qa = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    qb = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    q_a, q_b = bits.from_int(qa, m), bits.from_int(qb, m)
    relabeled = relabel(s, q_a, q_b)
    # one pass equals Bob's per-bit flips followed by Alice's, bit for bit
    oracle = _flip_bits(_flip_bits(s, q_b, "B"), q_a, "A")
    assert relabeled.alice.tobytes() == oracle.alice.tobytes()
    assert relabeled.bob.tobytes() == oracle.bob.tobytes()
    idx = np.arange(1 << m)
    permuted = subtest_table(s)[(idx ^ qa)[:, None], (idx ^ qb)[None, :], :]
    assert np.max(np.abs(subtest_table(relabeled) - permuted)) <= 1e-12


def test_find_best_qb_on_ideal_is_zeros():
    _, _, result = search_questions(ideal_strategy(4))
    assert result.q_b_star == "00"
    assert result.q_a_star == "00"


def build_single_question_strategy(n, special):
    """Alice ideal everywhere; Bob ideal only at ``special`` (and so, by
    complement symmetry of subtests, at its complement), identity elsewhere."""
    ideal = ideal_strategy(n)
    playing = np.arange(1 << (n // 2)) == bits.to_int(special)
    bob = np.where(playing[:, None, None, None], ideal.bob, np.eye(ideal.dim_b))
    return Strategy(state=ideal.state, alice=ideal.alice, bob=bob)


def test_find_best_qb_prefers_the_playing_question():
    s = build_single_question_strategy(8, "0110")
    # "1001" scores the same (complement symmetry); the smaller index wins
    assert search_questions(s)[2].q_b_star == "0110"


def test_best_question_beats_average():
    for seed in range(40):
        s = random_strategy(2, np.random.default_rng(200 + seed))
        v = exact_value(s).value
        best = search_questions(s)[2].q_b_star
        # average subtest expectation seen by Bob's question; its mean over
        # Bob's questions is the game value
        score = (float(subtest_table(s)[:, bits.to_int(best), :].sum())
                 / (s.n * (1 << (s.half - 1))))
        assert score >= v - 1e-12


def test_canonicalize_moves_best_questions_to_zero():
    s = build_single_question_strategy(8, "0110")
    canon, transcript, _ = search_questions(s)
    assert search_questions(canon)[2].q_b_star == "0000"
    assert {(step["party"], step["bit"]) for step in transcript} >= {("B", 2), ("B", 3)}
    # value is untouched by relabeling
    assert exact_value(canon).value == pytest.approx(exact_value(s).value, abs=1e-9)


def test_canonicalize_ideal_is_empty_transcript():
    canon, transcript, _ = search_questions(ideal_strategy(4))
    assert transcript == []
    assert search_questions(canon)[2].q_b_star == "00"


def test_per_subtest_deltas_bounded_by_pigeonhole():
    for eta in (0.05, 0.2):
        s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=eta))
        eps = max(0.0, TSIRELSON - exact_value(s).value)
        canon, _, result = search_questions(s)
        deltas = np.array(result.per_subtest_delta)
        assert deltas.shape == (2,)
        assert np.all(deltas <= 2 * eps + 1e-12)
        # each is its subtest's shortfall at the canonical all-zeros questions
        for k, d in enumerate(deltas, start=1):
            direct = max(0.0, TSIRELSON - subtest_value(canon, "00", "00", k))
            assert d == pytest.approx(direct, abs=1e-12)


def test_find_pair_question_pattern_and_guarantee():
    s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.1))
    canon, _, result = search_questions(s)
    eps = max(0.0, TSIRELSON - exact_value(s).value)
    q = result.pair_questions[(1, 2)]
    assert bits.bit(q, 1) == 0 and bits.bit(q, 2) == 1
    zeros = "00"
    f1 = subtest_value(canon, q, zeros, 1)
    f2 = subtest_value(canon, q, zeros, 2)
    assert min(f1, f2) >= TSIRELSON - 4 * eps - 1e-12
    assert result.pair_scores[(1, 2)] == pytest.approx(min(f1, f2), abs=1e-12)


def test_find_pair_question_rejects_bad_indices():
    table = subtest_table(ideal_strategy(4))
    with pytest.raises(ValueError):
        find_pair_question(table, 1, 1)
    with pytest.raises(ValueError):
        find_pair_question(table, 0, 2)
    with pytest.raises(ValueError):
        find_pair_question(table, 1, 3)


def test_find_pair_question_ties_go_to_the_smallest_question():
    # pair (1, 3) at m = 3 allows 001 and 011; scores equal up to roundoff
    # tie, whichever side the last bit falls on
    for bump in (0.0, 1e-15, -1e-15):
        table = np.full((8, 8, 3), 2.0)
        table[0b011, 0, :] += bump
        assert find_pair_question(table, 1, 3) == ("001", 2.0)
    table = np.full((8, 8, 3), 2.0)
    table[0b011, 0, :] += 1e-9
    assert find_pair_question(table, 1, 3) == ("011", 2.0 + 1e-9)


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
