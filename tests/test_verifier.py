"""Commutation norms, certified ceilings, the swap isometry, and reports."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chsh_selftest import (
    MAX_CERTIFY_N,
    TSIRELSON,
    ExtractedOperators,
    NoiseSpec,
    build_xz,
    certified_bounds,
    certify,
    compute_junk,
    exact_value,
    extraction_distance,
    ideal_strategy,
    measure_epsilons,
    measure_general_conditions,
    noisy_strategy,
    pauli_target,
    random_strategy,
    relabel,
    swap_isometry_apply,
)
from chsh_selftest import bits, jsonio


def test_measure_epsilons_vanish_on_ideal():
    for n in (2, 4):
        s = ideal_strategy(n)
        norms = measure_epsilons(s, build_xz(s))
        assert norms.eps1 < 1e-12
        assert norms.eps2 < 1e-12
        assert norms.eps3 < 1e-12


def test_eps2_detects_sign_error():
    s = ideal_strategy(2)
    ops = build_xz(s)
    wrong = ExtractedOperators(
        n=2, dim_a=2, dim_b=2, x_ops=ops.x_ops,
        z_ops=(ops.z_ops[0], -np.asarray(ops.z_ops[1])))
    norms = measure_epsilons(s, wrong)
    assert norms.eps2 == pytest.approx(2.0, abs=1e-12)


def test_eps3_detects_commuting_pair():
    # Z' equal to X' on one qubit: ||Z'X'psi + X'Z'psi|| = 2
    s = ideal_strategy(2)
    ops = build_xz(s)
    wrong = ExtractedOperators(
        n=2, dim_a=2, dim_b=2,
        x_ops=ops.x_ops, z_ops=(ops.x_ops[0], ops.z_ops[1]))
    norms = measure_epsilons(s, wrong)
    assert norms.eps3 == pytest.approx(2.0, abs=1e-12)


def test_certified_bounds_formulas():
    delta = 0.01
    b = certified_bounds(delta)
    root4 = (delta * np.sqrt(2)) ** 0.25
    assert b["eps1"] == pytest.approx(32 * root4)
    assert b["eps2"] == pytest.approx(4 * root4)
    assert b["eps3"] == pytest.approx(4 * (delta * np.sqrt(2)) ** 0.5)
    assert certified_bounds(0.0) == {"eps1": 0.0, "eps2": 0.0, "eps3": 0.0}
    with pytest.raises(ValueError):
        certified_bounds(-1e-3)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("eta", [0.02, 0.1])
def test_measured_norms_below_certified_ceilings(n, eta):
    s = noisy_strategy(n, NoiseSpec(model="bob-rotation", param=eta))
    eps = max(0.0, TSIRELSON - exact_value(s).value)
    delta = n * eps
    ceilings = certified_bounds(delta)
    norms = measure_epsilons(s, build_xz(s))
    assert norms.eps1 <= ceilings["eps1"] + 1e-9
    assert norms.eps2 <= ceilings["eps2"] + 1e-9
    assert norms.eps3 <= ceilings["eps3"] + 1e-9


def test_general_conditions_vanish_on_ideal():
    for n in (2, 4):
        s = ideal_strategy(n)
        norms = measure_general_conditions(s, build_xz(s))
        assert norms.coverage.mode == "exhaustive"
        assert norms.general_anticommute_max < 1e-7
        assert norms.general_swap_max < 1e-7


def test_general_conditions_sampled_mode_is_deterministic():
    s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.1))
    ops = build_xz(s)
    a = measure_general_conditions(s, ops, coverage="sampled", samples=300, seed=9)
    b = measure_general_conditions(s, ops, coverage="sampled", samples=300, seed=9)
    assert a.general_anticommute_max == b.general_anticommute_max
    assert a.general_swap_max == b.general_swap_max
    assert a.coverage.mode == "sampled"
    assert a.coverage.count == 300
    # sampled maxima are bounded by the exhaustive ones
    full = measure_general_conditions(s, ops, coverage="exhaustive")
    assert a.general_anticommute_max <= full.general_anticommute_max + 1e-12
    assert a.general_swap_max <= full.general_swap_max + 1e-12


# ---------------------------------------------------------------------------
# dense oracles: X'_k and Z'_k as full (dim_a dim_b)^2 matrices


def dense_op(ops, kind, k):
    op = (ops.x_ops if kind == "x" else ops.z_ops)[k - 1]
    if k <= ops.n // 2:
        return np.kron(op, np.eye(ops.dim_b))
    return np.kron(np.eye(ops.dim_a), op)


def dense_string(ops, kind, s):
    out = np.eye(ops.dim_a * ops.dim_b, dtype=complex)
    for k in range(1, ops.n + 1):
        if s[k - 1] == "1":
            out = out @ dense_op(ops, kind, k)
    return out


def dense_swap_circuit(ops, v):
    """The swap circuit as one dense matrix on device (x) ancillas."""
    n, dim = ops.n, ops.dim_a * ops.dim_b
    had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

    def on_ancilla(one_qubit, k):
        return np.kron(np.kron(np.eye(1 << (k - 1)), one_qubit), np.eye(1 << (n - k)))

    ket0, ket1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    h_all = lambda k: np.kron(np.eye(dim), on_ancilla(had, k))
    controlled = lambda u, k: (np.kron(np.eye(dim), on_ancilla(ket0, k))
                               + np.kron(u, on_ancilla(ket1, k)))
    circuit = np.eye(dim << n, dtype=complex)
    for k in range(1, n + 1):
        stage = (controlled(dense_op(ops, "x", k), k) @ h_all(k)
                 @ controlled(dense_op(ops, "z", k), k) @ h_all(k))
        circuit = stage @ circuit
    start = np.zeros(1 << n)
    start[0] = 1.0
    return circuit @ np.kron(v, start)


@pytest.mark.parametrize("n", [2, 4])
def test_apply_string_matches_dense_products(n):
    rng = np.random.default_rng(40 + n)
    s = random_strategy(n, rng)
    ops = build_xz(s)
    psi = s.state.reshape(s.dim_a, s.dim_b)
    for kind in ("x", "z"):
        for string in bits.all_strings(n):
            got = ops.apply_string(kind, string, psi).reshape(-1)
            want = dense_string(ops, kind, string) @ s.state
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_swap_isometry_matches_dense_circuit(n):
    rng = np.random.default_rng(50 + n)
    s = random_strategy(n, rng)
    ops = build_xz(s)
    for v in (s.state, ops.apply_string("x", "1" * n, s.state.reshape(s.dim_a, s.dim_b))):
        got = swap_isometry_apply(ops, v)
        want = dense_swap_circuit(ops, np.reshape(v, -1))
        assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# properties over random and noise-model strategies


@st.composite
def strategies_and_pairs(draw):
    """A random or noise-model strategy at n in {2, 4, 6} plus Pauli pairs."""
    n = draw(st.sampled_from([2, 4, 6]))
    family = draw(st.sampled_from(["random", "bob-rotation", "partial-entanglement"]))
    if family == "random":
        strat = random_strategy(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    elif family == "bob-rotation":
        strat = noisy_strategy(n, NoiseSpec(model=family, param=draw(st.floats(-1.0, 1.0))))
    else:
        strat = noisy_strategy(n, NoiseSpec(model=family,
                                            param=draw(st.floats(0.05, math.pi / 4))))
    string = st.text("01", min_size=n, max_size=n)
    return strat, draw(st.lists(st.tuples(string, string), min_size=1, max_size=3))


@settings(max_examples=12, deadline=None)
@given(strategies_and_pairs(), st.integers(0, 2**32 - 1))
def test_swap_isometry_preserves_norm(case, seed):
    s, _ = case
    rng = np.random.default_rng(seed)
    ops = build_xz(s)
    size = s.dim_a * s.dim_b
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    v /= np.linalg.norm(v)
    out = swap_isometry_apply(ops, v)
    assert out.shape == (size << s.n,)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_swap_isometry_with_identity_operators_appends_zeros():
    ident = np.eye(2, dtype=complex)
    ops = ExtractedOperators(n=2, dim_a=2, dim_b=2,
                             x_ops=(ident, ident), z_ops=(ident, ident))
    v = np.array([0.3, 0.4, -0.5, 0.1], dtype=complex)
    out = swap_isometry_apply(ops, v).reshape(4, 4)
    assert np.allclose(out[:, 0], v)
    assert np.allclose(out[:, 1:], 0.0)


def test_pauli_target_entries():
    psi = np.asarray(ideal_strategy(2).state)
    t = pauli_target(2, "00", "00")
    assert np.array_equal(t, psi)
    # X on both qubits permutes amplitudes
    t = pauli_target(2, "00", "11")
    assert np.allclose(t, psi[[3, 2, 1, 0]])
    # Z on qubit 1 flips the sign of amplitudes with bit 1 set
    t = pauli_target(2, "10", "00")
    assert np.allclose(t, psi * np.array([1, 1, -1, -1]))


def test_compute_junk_on_ideal():
    s = ideal_strategy(2)
    junk, norm = compute_junk(s, build_xz(s))
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(junk) == pytest.approx(1.0, abs=1e-12)


def test_extraction_distances_vanish_on_ideal():
    s = ideal_strategy(2)
    ops = build_xz(s)
    junk, _ = compute_junk(s, ops)
    for p in bits.all_strings(2):
        for q in bits.all_strings(2):
            d_fixed, d_opt = extraction_distance(s, ops, p, q, junk)
            assert d_fixed < 1e-12
            assert d_opt < 1e-12


@settings(max_examples=12, deadline=None)
@given(strategies_and_pairs())
@example((noisy_strategy(2, NoiseSpec(model="partial-entanglement", param=0.6)),
          [(p, q) for p in bits.all_strings(2) for q in bits.all_strings(2)]))
@example((ideal_strategy(2), [("00", "00")]))  # both distances are roundoff here
def test_optimal_distance_never_beats_fixed(case):
    s, pairs = case
    ops = build_xz(s)
    junk, _ = compute_junk(s, ops)
    for p, q in pairs:
        d_fixed, d_opt = extraction_distance(s, ops, p, q, junk)
        assert d_opt <= d_fixed + 1e-12


def test_distance_regression_bob_rotation():
    # frozen regression point: eta = 0.1, n = 2, worst pair
    s = noisy_strategy(2, NoiseSpec(model="bob-rotation", param=0.1))
    rep = certify(s)
    assert max(rep.distances_fixed.values()) == pytest.approx(
        0.049994791829430, abs=1e-9)
    assert max(rep.distances_optimal.values()) == pytest.approx(
        0.049994791829430, abs=1e-9)


def test_certify_ideal_report():
    rep = certify(ideal_strategy(2))
    assert rep.passed
    assert rep.n == 2
    assert rep.value == pytest.approx(TSIRELSON, abs=1e-12)
    assert rep.epsilon < 1e-12
    assert rep.delta_cert < 1e-11
    assert all(rep.flags.values())
    assert rep.junk_norm == pytest.approx(1.0, abs=1e-10)
    assert rep.q_b_star == "0" and rep.q_a_star == "0"
    assert rep.transcript == []


def test_certify_report_document_round_trips():
    rep = certify(noisy_strategy(2, NoiseSpec(model="bob-rotation", param=0.1)))
    doc = json.loads(rep.to_text())
    assert doc["n"] == 2
    assert doc["value"] == pytest.approx(rep.value, rel=1e-10)
    assert set(doc["certified"]) == {"eps1", "eps2", "eps3"}
    assert set(doc["flags"]) == {"per_subtest_delta", "pair_questions",
                                 "eps1", "eps2", "eps3"}
    assert doc["measured"]["coverage"] == "exhaustive"
    assert len(doc["distances_fixed"]) == 16


def test_certify_passes_across_noise_models():
    for spec in (NoiseSpec(model="bob-rotation", param=0.3),
                 NoiseSpec(model="partial-entanglement", param=0.5)):
        rep = certify(noisy_strategy(2, spec))
        assert rep.passed, rep.flags


def test_certify_is_relabel_invariant_in_substance():
    s = noisy_strategy(2, NoiseSpec(model="bob-rotation", param=0.2))
    rep0 = certify(s)
    rep1 = certify(relabel(s, "1", "0"))
    assert rep1.value == pytest.approx(rep0.value, abs=1e-9)
    assert rep1.epsilon == pytest.approx(rep0.epsilon, abs=1e-9)
    assert rep1.measured.eps2 == pytest.approx(rep0.measured.eps2, abs=1e-9)
    assert rep1.passed
    # these models score every question identically, so no flips are needed,
    # even after relabeling; the questions keep their canonical names, and
    # ties that differ only by roundoff go to the smallest question
    assert rep1.q_b_star == "0" and rep1.q_a_star == "0"
    for n, model, param in ((4, "bob-rotation", 0.04), (6, "bob-rotation", 0.01),
                            (4, "partial-entanglement", 0.5),
                            (8, "partial-entanglement", 0.39)):
        rep = certify(noisy_strategy(n, NoiseSpec(model=model, param=param)))
        m = n // 2
        assert rep.transcript == [], (n, model, param)
        assert rep.q_a_star == rep.q_b_star == "0" * m
        assert rep.pair_questions == {
            (k, ell): bits.from_int(1 << (m - ell), m)
            for k in range(1, m + 1) for ell in range(k + 1, m + 1)}


def test_certify_rejects_large_n():
    with pytest.raises(ValueError):
        certify(ideal_strategy(MAX_CERTIFY_N + 2))


def test_certify_sampled_coverage_recorded():
    rep = certify(ideal_strategy(4), coverage="sampled", samples=200, seed=3)
    cov = rep.measured.coverage.describe()
    assert cov == {"mode": "sampled", "count": 200, "seed": 3}
    assert rep.passed


def test_classical_strategy_report_is_vacuously_certified():
    # value 2 leaves delta = n*eps ~ 1.66, so the ceilings exceed any norm
    from test_game import all_plus_identity_strategy
    rep = certify(all_plus_identity_strategy(2))
    assert rep.value == pytest.approx(2.0, abs=1e-12)
    assert rep.passed
    assert rep.certified["eps1"] > 2.0


def test_certify_value_is_the_exact_value():
    # certify reads the value off the search's subtest table, bit for bit
    for s in (ideal_strategy(4), random_strategy(4, np.random.default_rng(8)),
              noisy_strategy(6, NoiseSpec(model="partial-entanglement", param=0.6))):
        assert certify(s).value == exact_value(s).value
