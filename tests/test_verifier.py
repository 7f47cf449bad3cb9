"""Commutation norms, certified ceilings, the swap isometry, and reports."""

import dataclasses
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chsh_selftest import (
    MAX_CERTIFY_N,
    TSIRELSON,
    NoiseSpec,
    Strategy,
    certify,
    exact_value,
    ideal_strategy,
    noisy_strategy,
    random_strategy,
    strategy_from_text,
    strategy_to_text,
    validate,
)
from chsh_selftest import bits, jsonio
from chsh_selftest.extraction import ExtractedOperators, build_xz, relabel, search_questions
from chsh_selftest.game import referee_simulate, subtest_table
from chsh_selftest.strategy import ideal_state
from chsh_selftest.linalg import (
    PAULI_X,
    PAULI_Z,
    VALIDATION_TOL,
    apply_on_a,
    apply_on_b,
    dagger,
)
from chsh_selftest import verifier
from chsh_selftest.verifier import (
    BOUND_SLACK,
    _anticommute_rows,
    _max_norm,
    _pauli_rows,
    _products,
    _swap_rows,
    _walsh_index,
    _walsh_split,
    certified_bounds,
    compute_junk,
    extraction_distance,
    measure_epsilons,
    measure_general_conditions,
    pauli_target,
    swap_isometry_apply,
)
from test_linalg import tensor


def test_measure_epsilons_vanish_on_ideal():
    for n in (2, 4):
        s = ideal_strategy(n)
        norms = measure_epsilons(build_xz(s))
        assert norms.eps1 < 1e-12
        assert norms.eps2 < 1e-12
        assert norms.eps3 < 1e-12


def test_eps2_detects_sign_error():
    s = ideal_strategy(2)
    ops = build_xz(s)
    bob = ops.bob.copy()
    bob[1] *= -1  # Bob's Z'
    norms = measure_epsilons(ExtractedOperators(state=ops.state, alice=ops.alice, bob=bob))
    assert norms.eps2 == pytest.approx(2.0, abs=1e-12)


def test_eps3_detects_commuting_pair():
    # Z' equal to X' on one qubit: ||Z'X'psi + X'Z'psi|| = 2
    s = ideal_strategy(2)
    ops = build_xz(s)
    wrong = ExtractedOperators(state=ops.state, alice=ops.alice[[0, 0]], bob=ops.bob)
    norms = measure_epsilons(wrong)
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
    eps = max(0.0, TSIRELSON - exact_value(s))
    delta = n * eps
    ceilings = certified_bounds(delta)
    norms = measure_epsilons(build_xz(s))
    assert norms.eps1 <= ceilings["eps1"] + 1e-9
    assert norms.eps2 <= ceilings["eps2"] + 1e-9
    assert norms.eps3 <= ceilings["eps3"] + 1e-9


def test_general_conditions_vanish_on_ideal():
    for n in (2, 4):
        s = ideal_strategy(n)
        norms = measure_general_conditions(build_xz(s))
        assert norms.coverage.mode == "exhaustive"
        assert norms.general_anticommute_max < 1e-7
        assert norms.general_swap_max < 1e-7


def test_general_conditions_sampled_mode_is_deterministic():
    # above MAX_EXHAUSTIVE_N the (s, t) pairs are DEFAULT_GENERAL_SAMPLES seeded draws
    s = noisy_strategy(8, NoiseSpec(model="bob-rotation", param=0.1))
    ops = build_xz(s)
    a = measure_general_conditions(ops, seed=9)
    b = measure_general_conditions(ops, seed=9)
    assert a.general_anticommute_max == b.general_anticommute_max
    assert a.general_swap_max == b.general_swap_max
    assert a.coverage.describe() == {"mode": "sampled", "count": 10_000, "seed": 9}
    # sampled maxima are bounded by the maxima over every pair
    left, right = ops.gather_stacks
    s_all, t_all = np.divmod(np.arange(1 << 16), 1 << 8)
    full_anticommute = _max_norm(left, right, *_anticommute_rows(8, s_all, t_all))
    full_swap = _max_norm(left, right, *_swap_rows(8, np.arange(1 << 8)))
    assert a.general_anticommute_max <= full_anticommute + 1e-12
    assert a.general_swap_max <= full_swap + 1e-12


# ---------------------------------------------------------------------------
# dense oracles: X'_k and Z'_k as full (dim_a dim_b)^2 matrices


def dense_op(ops, kind, k):
    m = ops.n // 2
    op = (ops.alice if k <= m else ops.bob)["xz".index(kind), (k - 1) % m]
    if k <= m:
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
    # v (x) |0..0> picks the columns whose ancilla index is 0; v may be a
    # block of column vectors
    return circuit[:, ::1 << n] @ v


def dense_tables(ops):
    """Dense X'^s and Z'^s for every integer string s."""
    strings = list(bits.all_strings(ops.n))
    return {kind: np.array([dense_string(ops, kind, u) for u in strings]) for kind in "xz"}


def dense_condition_norms(ops, state, s, t):
    """|Z'^t X'^s psi - (-1)^{s.t} X'^s Z'^t psi| and, at t = s with its
    halves swapped, |Z'^t psi - (-1)^{s_A.s_B} X'^s psi|, per row."""
    dense, m = dense_tables(ops), ops.n // 2
    zx = dense["z"][t] @ dense["x"][s] @ state
    xz = dense["x"][s] @ dense["z"][t] @ state
    sign = np.where(bits.parity(s & t), -1.0, 1.0)[:, None]
    swapped = ((s & ((1 << m) - 1)) << m) | (s >> m)
    swap_sign = np.where(bits.parity((s >> m) & s), -1.0, 1.0)[:, None]
    swap = dense["z"][swapped] @ state - swap_sign * (dense["x"][s] @ state)
    return np.linalg.norm(zx - sign * xz, axis=1), np.linalg.norm(swap, axis=1)


def kernel_condition_norms(ops, s, t):
    """The same per-row norms from the gather kernel."""
    left, right = ops.gather_stacks
    return tuple(np.linalg.norm(_products(left, right, *rows), axis=(1, 2))
                 for rows in (_anticommute_rows(ops.n, s, t), _swap_rows(ops.n, s)))


@pytest.mark.parametrize("n", [2, 4])
def test_apply_string_matches_dense_products(n):
    # every distance input X'^q Z'^p psi of the kernel is the dense product
    rng = np.random.default_rng(40 + n)
    s = random_strategy(n, rng)
    ops = build_xz(s)
    dense = dense_tables(ops)
    p, q = np.divmod(np.arange(1 << 2 * n), 1 << n)
    got = _products(*ops.gather_stacks, *_pauli_rows(n, p, q)).reshape(len(p), -1)
    want = dense["x"][q] @ dense["z"][p] @ s.state
    assert np.max(np.abs(got - want)) < 1e-12


def side_table_per_string(self, kind, side, w):
    """``ExtractedOperators._side_table`` one string u at a time: entry u
    applies the operator of u's leading qubit to entry u less that bit."""
    m, ops = self.n // 2, (self.alice, self.bob)[side][kind]
    act = apply_on_b if side else apply_on_a
    table = np.empty((1 << m,) + w.shape, dtype=np.result_type(w, ops))
    table[0] = w
    for u in range(1, 1 << m):
        pos = u.bit_length() - 1
        table[u] = act(ops[m - 1 - pos], table[u - (1 << pos)])
    return table


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("family", ["random", "random-3x5", "bob-rotation",
                                    "partial-entanglement", "twisted-ideal"])
def test_string_tables_by_doubling_match_the_per_string_loop(monkeypatch, n, family):
    # each level's batched product takes the products the loop takes, so
    # both gather stacks are the same bits
    s = family_strategy(n, family, seed=110 + n)
    got = build_xz(s).gather_stacks
    monkeypatch.setattr(ExtractedOperators, "_side_table", side_table_per_string)
    want = build_xz(s).gather_stacks
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("family", ["random", "random-3x5", "bob-rotation"])
def test_string_stacks_match_dense_products(n, family):
    # Alice's stack holds her products; Bob's table on an identity holds his, transposed
    s = family_strategy(n, family, seed=100 + n)
    ops = build_xz(s)
    dense, m = dense_tables(ops), n // 2
    alice, bob = ops.string_table(0, np.eye(s.dim_a)), ops.string_table(1, np.eye(s.dim_b))
    assert alice.shape == (2, 1 << n, s.dim_a, s.dim_a)
    assert bob.shape == (2, 1 << n, s.dim_b, s.dim_b)
    eye_a, eye_b = np.eye(s.dim_a), np.eye(s.dim_b)
    for u in range(1 << m):
        for v in range(1 << m):
            index = u * (1 << m) + v
            # Alice's strings sit in the high half of an n-bit string
            zx = dense["z"][u << m] @ dense["x"][v << m]
            xz = dense["x"][u << m] @ dense["z"][v << m]
            assert np.max(np.abs(np.kron(alice[0, index], eye_b) - zx)) < 1e-12
            assert np.max(np.abs(np.kron(alice[1, index], eye_b) - xz)) < 1e-12
            zx, xz = dense["z"][u] @ dense["x"][v], dense["x"][u] @ dense["z"][v]
            assert np.max(np.abs(np.kron(eye_a, bob[0, index].T) - zx)) < 1e-12
            assert np.max(np.abs(np.kron(eye_a, bob[1, index].T) - xz)) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("family", ["random", "random-3x5", "bob-rotation",
                                    "partial-entanglement", "twisted-ideal"])
def test_condition_rows_match_dense_definitions(n, family):
    s = family_strategy(n, family, seed=110 + n)
    ops = build_xz(s)
    every_s, every_t = np.divmod(np.arange(1 << 2 * n), 1 << n)
    anticommute, swap = kernel_condition_norms(ops, every_s, every_t)
    want_anticommute, want_swap = dense_condition_norms(ops, s.state, every_s, every_t)
    assert np.max(np.abs(anticommute - want_anticommute)) < 1e-12
    assert np.max(np.abs(swap - want_swap)) < 1e-12
    general = measure_general_conditions(ops)
    assert abs(general.general_anticommute_max - np.max(want_anticommute)) < 1e-12
    assert abs(general.general_swap_max - np.max(want_swap)) < 1e-12
    # eps1..eps3 are the weight-1 rows of the same families
    one = np.isin(every_s, 1 << np.arange(n)) & np.isin(every_t, 1 << np.arange(n))
    assert general.eps1 == pytest.approx(np.max(want_anticommute[one & (every_s != every_t)]),
                                         abs=1e-12)
    assert general.eps3 == pytest.approx(np.max(want_anticommute[one & (every_s == every_t)]),
                                         abs=1e-12)
    assert general.eps2 == pytest.approx(np.max(want_swap[one]), abs=1e-12)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["random", "random-3x5", "bob-rotation", "partial-entanglement",
                        "twisted-ideal"]),
       st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=8))
def test_condition_rows_match_dense_definitions_n6(family, seed, rows):
    s = family_strategy(6, family, seed)
    ops = build_xz(s)
    every_s, every_t = np.array(rows).T
    anticommute, swap = kernel_condition_norms(ops, every_s, every_t)
    want_anticommute, want_swap = dense_condition_norms(ops, s.state, every_s, every_t)
    assert np.max(np.abs(anticommute - want_anticommute)) < 1e-12
    assert np.max(np.abs(swap - want_swap)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("family", ["random", "random-3x5", "bob-rotation",
                                    "partial-entanglement", "twisted-ideal",
                                    "phased-partial-entanglement"])
def test_exhaustive_anticommute_max_matches_the_gather_kernel(n, family):
    # the one product of sign-folded factors against the gather kernel over
    # every (s, t) row; Alice's operators in a noise model are signed
    # permutations, so each entry is the same sum of two products on both
    # paths, and the rows' entries are roundoff whose squares sum alike in
    # either reduction order: the maxima are bit-identical, also for a
    # global-phase copy whose Bob factor is complex; elsewhere both sums run
    # in another order
    if family.startswith("phased-"):
        s = family_strategy(n, family.removeprefix("phased-"))
        s = Strategy(state=s.state * np.exp(0.7j), alice=s.alice, bob=s.bob)
    else:
        s = family_strategy(n, family, seed=120 + n)
    ops = build_xz(s)
    general = measure_general_conditions(ops)
    assert general.coverage.mode == "exhaustive"
    every_s, every_t = np.divmod(np.arange(1 << 2 * n), 1 << n)
    want = _max_norm(*ops.gather_stacks, *_anticommute_rows(n, every_s, every_t))
    if family in ("bob-rotation", "partial-entanglement", "phased-partial-entanglement"):
        assert general.general_anticommute_max == want
    else:
        assert abs(general.general_anticommute_max - want) <= 1e-15


@pytest.mark.parametrize("n", [2, 4])
def test_swap_isometry_matches_dense_circuit(n):
    for family in ("random", "near-ideal-twisted"):
        s = family_strategy(n, family, seed=50 + n)
        ops = build_xz(s)
        for v in (s.state, dense_string(ops, "x", "1" * n) @ s.state):
            got = swap_isometry_apply(ops, v)
            want = dense_swap_circuit(ops, np.reshape(v, -1))
            assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# properties over random and noise-model strategies


@st.composite
def strategies_and_pairs(draw):
    """A random, noise-model or twisted ideal strategy at n in {2, 4, 6} plus Pauli pairs."""
    n = draw(st.sampled_from([2, 4, 6]))
    family = draw(st.sampled_from(["random", "bob-rotation", "partial-entanglement",
                                   "twisted-ideal"]))
    if family == "random":
        strat = random_strategy(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    elif family == "twisted-ideal":
        strat = twisted_ideal_strategy(n, draw(st.floats(1e-4, 0.3)), draw(st.sampled_from([1, 2])),
                                       draw(st.integers(0, 2**32 - 1)))
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
    ident = np.broadcast_to(np.eye(2, dtype=complex), (2, 1, 2, 2))
    ops = ExtractedOperators(state=np.eye(2) / math.sqrt(2), alice=ident.copy(), bob=ident.copy())
    v = np.array([0.3, 0.4, -0.5, 0.1], dtype=complex)
    out = swap_isometry_apply(ops, v).reshape(4, 4)
    assert np.allclose(out[:, 0], v)
    assert np.allclose(out[:, 1:], 0.0)


def test_pauli_target_entries():
    psi = np.asarray(ideal_strategy(2).state)
    t = pauli_target(2, int("00", 2), int("00", 2))
    assert np.array_equal(t, psi)
    # X on both qubits permutes amplitudes
    t = pauli_target(2, int("00", 2), int("11", 2))
    assert np.allclose(t, psi[[3, 2, 1, 0]])
    # Z on qubit 1 flips the sign of amplitudes with bit 1 set
    t = pauli_target(2, int("10", 2), int("00", 2))
    assert np.allclose(t, psi * np.array([1, 1, -1, -1]))


def test_compute_junk_on_ideal():
    s = ideal_strategy(2)
    junk, norm = compute_junk(build_xz(s))
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(junk) == pytest.approx(1.0, abs=1e-12)


def orthogonal_junk_strategy():
    """The ideal n = 2 observables on a state whose isometry output is
    orthogonal to the ideal state: valid, with exact value 0."""
    s = ideal_strategy(2)
    return Strategy(state=np.array([1, 1, -1, 1]) / 2, alice=s.alice, bob=s.bob)


def test_certify_reports_junk_orthogonal_to_the_ideal_state():
    s = orthogonal_junk_strategy()
    assert validate(s).ok and exact_value(s) == 0.0
    ops = build_xz(s)
    junk, norm = compute_junk(ops)
    assert norm == 0.0 and np.all(junk == 0)
    rep = certify(s)
    assert rep.to_document()["transcript"] == [] and rep.junk_norm == 0.0
    numbers = []
    json.loads(rep.to_text(), parse_float=lambda x: numbers.append(float(x)))
    assert numbers and all(map(math.isfinite, numbers))
    # with zero junk the fixed distance is the norm of the isometry output,
    # which is the norm of its input
    for (p, q), d in rep.distances_fixed.items():
        w = dense_string(ops, "x", f"{q:02b}") @ dense_string(ops, "z", f"{p:02b}") @ s.state
        assert d == pytest.approx(np.linalg.norm(w), abs=1e-12)
    assert rep.passed  # a value of 0 makes every certified ceiling vacuous


def test_extraction_distances_vanish_on_ideal():
    s = ideal_strategy(2)
    ops = build_xz(s)
    junk, _ = compute_junk(ops)
    pairs = np.array([(p, q) for p in range(4) for q in range(4)])
    d_fixed, d_opt = extraction_distance(ops, pairs, junk)
    assert d_fixed.shape == d_opt.shape == (16,)
    assert np.all(d_fixed < 1e-12)
    assert np.all(d_opt < 1e-12)


@settings(max_examples=12, deadline=None)
@given(strategies_and_pairs())
@example((noisy_strategy(2, NoiseSpec(model="partial-entanglement", param=0.6)),
          [(p, q) for p in bits.all_strings(2) for q in bits.all_strings(2)]))
@example((ideal_strategy(2), [("00", "00")]))  # both distances are roundoff here
def test_optimal_distance_never_beats_fixed(case):
    s, pairs = case
    ops = build_xz(s)
    junk, _ = compute_junk(ops)
    pairs = np.array([(int(p, 2), int(q, 2)) for p, q in pairs])
    d_fixed, d_opt = extraction_distance(ops, pairs, junk)
    assert np.all(d_opt <= d_fixed + 1e-12)


def twisted_ideal_strategy(n, eps, junk, seed=0):
    """ideal_strategy(n) tensored with a random junk x junk state, A-major,
    with each question's family conjugated by U_q = exp(i eps H_q / sqrt(d)).

    The junk makes the state no product of pairs, and a conjugation keeps
    a family commuting Hermitian unitaries while it moves the value
    O(eps^2) below Tsirelson's.  H_q is a random Hermitian matrix.
    """
    rng = np.random.default_rng(seed)
    ideal = ideal_strategy(n)
    dim = ideal.dim_a
    j_state = rng.normal(size=(junk, junk)) + 1j * rng.normal(size=(junk, junk))
    state = np.kron(ideal.state.reshape(dim, dim), j_state / np.linalg.norm(j_state))

    def twisted(stack):
        families = np.kron(stack, np.eye(junk, dtype=complex))  # the twist is complex
        d = families.shape[-1]
        for family in families:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            vals, vecs = np.linalg.eigh((g + dagger(g)) / 2)
            u = (vecs * np.exp(1j * eps * vals / math.sqrt(d))) @ dagger(vecs)
            family[...] = u @ family @ dagger(u)
        return families

    return Strategy(state=state, alice=twisted(ideal.alice), bob=twisted(ideal.bob))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.floats(1e-4, 0.3), st.sampled_from([1, 2]),
       st.integers(0, 2**32 - 1))
@example(8, 0.1, 1, 0)
def test_twisted_ideal_strategies_certify(n, eps, junk, seed):
    # near-optimal, not a product of pairs, and not a noise model: the
    # measured norms stay under the ceilings the value shortfall certifies
    s = twisted_ideal_strategy(n, eps, junk, seed)
    assert validate(s).ok
    rep = certify(s)
    assert rep.passed, rep.flags
    for name in ("eps1", "eps2", "eps3"):
        assert getattr(rep.measured, name) <= rep.certified[name] + BOUND_SLACK


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.floats(1e-4, 0.3), st.sampled_from([1, 2]),
       st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, 7))
@example(6, 0.0067, 2, 3911230070, 1, 0)  # uncomplemented, so same distances
@example(6, 0.0007, 1, 1103237371, 2, 0)  # uncomplemented, but qa & q_b* moves junk_norm
def test_twisted_ideal_reports_are_relabel_and_complement_invariant(n, eps, junk, seed, qa, qb):
    s = twisted_ideal_strategy(n, eps, junk, seed)
    table = subtest_table(s)
    # complementing either player's question leaves every subtest as it was
    assert np.array_equal(table, table[::-1]) and np.array_equal(table, table[:, ::-1])
    full = (1 << n // 2) - 1
    qa, qb = qa & full, qb & full
    rep0, rep1 = certify(s), certify(relabel(s, qa, qb))
    assert rep1.passed == rep0.passed

    def norms(r):
        m = r.measured
        return (r.value, r.epsilon, m.eps1, m.eps2, m.eps3,
                m.general_anticommute_max, m.general_swap_max)

    assert norms(rep1) == pytest.approx(norms(rep0), abs=1e-12)
    # a question ties with its complement and the search takes the smaller
    # one, so the relabeled run may extract from the complemented pair,
    # whose distances and junk differ
    assert rep1.q_a_star in (rep0.q_a_star ^ qa, rep0.q_a_star ^ qa ^ full)
    assert rep1.q_b_star in (rep0.q_b_star ^ qb, rep0.q_b_star ^ qb ^ full)
    # relabeling by (q_a*, q_b*) after (qa, qb) gives relabel(s, q_a*, q_b*)
    # with both players' observable k negated for each bit k of qa & q_b*
    # (relabel's sign rule), so only without such a bit is the canonical
    # strategy the same, and with it the junk and the distances
    if ((rep1.q_a_star, rep1.q_b_star) == (rep0.q_a_star ^ qa, rep0.q_b_star ^ qb)
            and not qa & rep1.q_b_star):
        assert rep1.junk_norm == pytest.approx(rep0.junk_norm, abs=1e-12)
        for got, want in ((rep1.distances_fixed, rep0.distances_fixed),
                          (rep1.distances_optimal, rep0.distances_optimal)):
            assert got.keys() == want.keys()
            assert max(abs(got[k] - want[k]) for k in want) <= 1e-12


def family_strategy(n, family, seed=0):
    if family == "twisted-ideal":
        # a 2 x 2 junk state while the dense oracles' (dim_a dim_b)^2
        # matrices stay at most 64 x 64
        return twisted_ideal_strategy(n, 0.1, 2 if n <= 4 else 1, seed)
    if family == "near-ideal-twisted":
        # complex operators whose every distance pair has |rest|^2 below
        # 1e-4 |Phi(w)|^2, where |Phi(w)|^2 - |overlap|^2 keeps half its digits
        return twisted_ideal_strategy(n, 1e-4, 2 if n <= 2 else 1, seed)
    if family == "random":
        return random_strategy(n, np.random.default_rng(seed))
    if family == "random-3x5":
        return random_strategy(n, np.random.default_rng(seed), 3, 5)
    param = 0.3 if family == "bob-rotation" else 0.6
    return noisy_strategy(n, NoiseSpec(model=family, param=param))


def dense_pauli_target(n, p, q):
    """X^q Z^p psi with one Kronecker factor per qubit (qubit 1 leftmost)."""
    xs = tensor(*(PAULI_X if c == "1" else np.eye(2) for c in q))
    zs = tensor(*(PAULI_Z if c == "1" else np.eye(2) for c in p))
    return xs @ zs @ ideal_state(n)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("family", ["random", "bob-rotation", "partial-entanglement",
                                    "near-ideal-twisted"])
def test_extraction_distance_matches_dense_definitions(n, family):
    s = family_strategy(n, family, seed=60 + n)
    ops = build_xz(s)
    junk, _ = compute_junk(ops)
    strings = list(bits.all_strings(n))
    pairs = np.array([(p, q) for p in range(1 << n) for q in range(1 << n)])
    inputs = np.stack([dense_string(ops, "x", strings[q]) @ dense_string(ops, "z", strings[p])
                       @ s.state for p, q in pairs], axis=1)
    outs = dense_swap_circuit(ops, inputs).T.reshape(len(pairs), -1, 1 << n)
    fixed, optimal = extraction_distance(ops, pairs, junk)
    targets = pauli_target(n, pairs[:, 0], pairs[:, 1])
    for (p, q), out, target, d_fixed, d_opt in zip(pairs, outs, targets, fixed, optimal):
        want = dense_pauli_target(n, strings[p], strings[q])
        assert np.max(np.abs(target - want)) < 1e-15
        assert abs(np.linalg.norm(out - np.outer(junk, want)) - d_fixed) < 1e-12
        # by Cauchy-Schwarz the closest unit junk is the normalized overlap
        overlap = out @ want.conj()
        best = overlap / np.linalg.norm(overlap)
        assert abs(np.linalg.norm(out - np.outer(best, want)) - d_opt) < 1e-12
        if family == "near-ideal-twisted":  # the pair is as near-ideal as claimed
            norm2 = np.linalg.norm(out) ** 2
            assert norm2 - np.linalg.norm(overlap) ** 2 < 1e-4 * norm2


def test_extraction_distance_batch_matches_single_pairs():
    # a batch of 256 pairs gives what each pair gives alone (chunking:
    # test_small_chunks_give_what_one_chunk_gives)
    for n, family in ((4, "random"), (6, "bob-rotation"), (6, "random")):
        s = family_strategy(n, family, seed=70 + n)
        ops = build_xz(s)
        junk, _ = compute_junk(ops)
        pairs = np.random.default_rng(n).integers(0, 1 << n, size=(256, 2))
        fixed, optimal = extraction_distance(ops, pairs, junk)
        for row, d_fixed, d_opt in zip(pairs, fixed, optimal):
            one_fixed, one_opt = extraction_distance(ops, row[None], junk)
            assert abs(one_fixed[0] - d_fixed) < 1e-13
            assert abs(one_opt[0] - d_opt) < 1e-13


def distance_inputs(ops, pairs):
    """The inputs X'^q Z'^p psi of the distance stage, one (dim_a, dim_b) row per pair."""
    return _products(*ops.gather_stacks, *_pauli_rows(ops.n, pairs[:, 0], pairs[:, 1]))


def exact_distances(ops, pairs, junk):
    """Fixed and optimal distances read off the isometry output of every pair."""
    out = swap_isometry_apply(ops, distance_inputs(ops, pairs)).reshape(
        len(pairs), ops.dim_a * ops.dim_b, -1)
    target = pauli_target(ops.n, pairs[:, 0], pairs[:, 1])
    overlap = np.einsum("pik,pk->pi", out, target.conj())
    rest = np.linalg.norm(out - overlap[:, :, None] * target[:, None, :], axis=(1, 2))
    return (np.hypot(np.linalg.norm(overlap - junk, axis=1), rest),
            np.hypot(np.linalg.norm(overlap, axis=1) - 1.0, rest))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("family", ["random", "random-3x5", "bob-rotation",
                                    "partial-entanglement", "twisted-ideal", "non-unitary"])
def test_walsh_overlap_matches_the_isometry_output(n, family):
    if family == "non-unitary":
        # the kernel must not assume unitary operators: X'_k and Z'_k here
        # are arbitrary matrices of norm about 1
        s = family_strategy(n, "random-3x5", seed=120 + n)
        rng = np.random.default_rng(n)
        alice, bob = ((rng.normal(size=(2, n // 2, d, d))
                       + 1j * rng.normal(size=(2, n // 2, d, d))) / d for d in (s.dim_a, s.dim_b))
        ops = ExtractedOperators(state=s.state.reshape(s.dim_a, s.dim_b), alice=alice, bob=bob)
    else:
        s = family_strategy(n, family, seed=120 + n)
        ops = build_xz(s)
    if n <= 4:
        pairs = np.stack(np.divmod(np.arange(1 << 2 * n), 1 << n), axis=1)
    else:
        pairs = np.random.default_rng(n).integers(0, 1 << n, size=(12, 2))
    w = distance_inputs(ops, pairs)
    overlap, rest = _walsh_split(ops, w, *_walsh_index(n, pairs[:, 0], pairs[:, 1]))
    out = swap_isometry_apply(ops, w).reshape(len(pairs), w[0].size, -1)
    target = pauli_target(n, pairs[:, 0], pairs[:, 1])
    want = np.einsum("pik,pk->pi", out, target.conj())
    assert np.max(np.abs(overlap - want)) < 1e-13
    want_rest = np.linalg.norm(out - want[:, :, None] * target[:, None, :], axis=(1, 2))
    assert np.max(np.abs(rest - want_rest)) < 1e-13


def forbid_the_isometry_output(monkeypatch):
    """Make certify fail if it forms the isometry output or its target."""
    def forbidden(*args):
        raise AssertionError("certify formed the isometry output")

    for name in ("swap_isometry_apply", "pauli_target"):
        monkeypatch.setattr(verifier, name, forbidden)


@pytest.mark.parametrize("n", [2, 4])
def test_certify_never_forms_the_isometry_output(n, monkeypatch):
    # every family takes the one distance kernel, the ideal strategy (no
    # rest) and near-ideal ones included.  Every pair of a bob-rotation
    # strategy has |rest|^2 / |Phi|^2 = 1 - cos^n(eta/2), and the angles
    # put that below, at and above 1e-4, where the difference of squares
    # |Phi|^2 - |overlap|^2 is already off in its eighth digit
    forbid_the_isometry_output(monkeypatch)
    at_ratio = 2 * math.acos((1 - 1e-4) ** (1 / n))
    strategies = [ideal_strategy(n), family_strategy(n, "near-ideal-twisted", seed=100 + n),
                  family_strategy(n, "random", seed=100 + n)]
    strategies += [noisy_strategy(n, NoiseSpec(model="bob-rotation", param=scale * at_ratio))
                   for scale in (0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0)]
    for s in strategies:
        rep = certify(s)
        ops = build_xz(search_questions(s)[0])
        junk, _ = compute_junk(ops)
        pairs = np.array(list(rep.distances_fixed))
        want_fixed, want_optimal = exact_distances(ops, pairs, junk)
        assert np.max(np.abs(list(rep.distances_fixed.values()) - want_fixed)) < 1e-12
        assert np.max(np.abs(list(rep.distances_optimal.values()) - want_optimal)) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.floats(1e-7, 1e-3), st.sampled_from([1, 2]),
       st.integers(0, 2**32 - 1))
@example(8, 1e-4, 1, 0)
def test_near_ideal_distances_match_the_dense_oracle(n, eps, junk, seed):
    # |rest| near 0 is where a difference of squares loses half its digits
    for s in (twisted_ideal_strategy(n, eps, junk, seed),
              noisy_strategy(n, NoiseSpec(model="bob-rotation", param=eps))):
        ops = build_xz(s)
        junk_state, _ = compute_junk(ops)
        if n <= 4:
            pairs = np.stack(np.divmod(np.arange(1 << 2 * n), 1 << n), axis=1)
        else:  # the oracle forms 2^n outputs per pair
            pairs = np.random.default_rng(seed).integers(0, 1 << n, size=(16, 2))
        fixed, optimal = extraction_distance(ops, pairs, junk_state)
        want_fixed, want_optimal = exact_distances(ops, pairs, junk_state)
        assert np.max(np.abs(fixed - want_fixed)) < 1e-12
        assert np.max(np.abs(optimal - want_optimal)) < 1e-12


def operator_refs(monkeypatch):
    """Patch certify's build_xz to keep a weak reference to each operator set it builds."""
    refs, build = [], verifier.build_xz

    def build_and_watch(strategy):
        ops = build(strategy)
        refs.append(weakref.ref(ops))
        return ops

    monkeypatch.setattr(verifier, "build_xz", build_and_watch)
    return refs


def test_certify_builds_the_gather_operands_once(monkeypatch):
    # Bob's string table on psi takes 4 (n/2) one-sided products: one
    # batched product per qubit for each of its four side tables
    from chsh_selftest import extraction

    calls = []
    apply = extraction.apply_on_b
    monkeypatch.setattr(extraction, "apply_on_b", lambda m, w: calls.append(1) or apply(m, w))
    refs = operator_refs(monkeypatch)
    certify(noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.1)))
    assert len(calls) == 4 * 2
    assert len(refs) == 1 and refs[0]() is None  # the operators and their stacks go with the run


def test_certify_releases_the_gather_operands_when_a_stage_raises(monkeypatch):
    def exhausted(*args):
        raise MemoryError("no room for the distances")

    monkeypatch.setattr(verifier, "extraction_distance", exhausted)
    refs = operator_refs(monkeypatch)
    try:
        certify(noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.1)))
    except MemoryError:
        assert refs[0]() is not None  # the traceback still holds certify's frame
    else:
        pytest.fail("the stage's MemoryError did not propagate")
    assert len(refs) == 1 and refs[0]() is None


@pytest.mark.parametrize("family", ["none", "bob-rotation", "random"])
def test_small_chunks_give_what_one_chunk_gives(family, monkeypatch):
    # every chunk of a stage reuses one set of buffers; with a chunk of a
    # few rows (the last one shorter) the norms and distances must not
    # change, whether the rests are 0 (the ideal strategy, "none") or not,
    # in float64 and in complex128 ("random")
    s = (random_strategy(4, np.random.default_rng(4)) if family == "random" else
         noisy_strategy(4, NoiseSpec(model=family, param=0.0 if family == "none" else 0.1)))
    ops = build_xz(s)
    assert ops.gather_stacks[1].dtype == (complex if family == "random" else float)
    junk, _ = compute_junk(ops)
    pairs = np.stack(np.divmod(np.arange(1 << 8), 1 << 4), axis=1)
    blocks, einsum = [], np.einsum

    def einsum_by_block(spec, *operands):
        if spec == "aibj,aibj->ab":  # one block of the anticommutation product
            blocks.append(len(operands[0]))
        return einsum(spec, *operands)

    monkeypatch.setattr(np, "einsum", einsum_by_block)
    whole = measure_general_conditions(ops), *extraction_distance(ops, pairs, junk)
    assert blocks == [1 << 4]  # every Alice row of the anticommutation product in one block
    # 7 rows per distance chunk, which holds the inputs and three stacks of
    # their size per Walsh index (4 at n = 4), 15 per condition-norm chunk,
    # and 5 of Alice's 16 rows per block of the anticommutation product
    itemsize = ops.gather_stacks[1].itemsize
    monkeypatch.setattr(verifier, "CHUNK_BYTES", 7 * (3 * 4 + 1) * s.dim_a * s.dim_b * itemsize)
    rows, split = [], verifier._walsh_split
    monkeypatch.setattr(verifier, "_walsh_split",
                        lambda ops, w, *index: rows.append(len(w)) or split(ops, w, *index))
    blocks.clear()
    chunked = measure_general_conditions(ops), *extraction_distance(ops, pairs, junk)
    assert len(rows) >= 3 and rows[0] == 7 and 0 < rows[-1] < 7 and sum(rows) == len(pairs)
    assert blocks == [5, 5, 5, 1]
    assert chunked[0] == whole[0]
    for got, want in zip(chunked[1:], whole[1:]):
        assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("n", [4, 6])
def test_noise_model_distances_take_the_walsh_overlap(n, monkeypatch):
    forbid_the_isometry_output(monkeypatch)
    for spec in (NoiseSpec(model="bob-rotation", param=0.05),
                 NoiseSpec(model="bob-rotation", param=0.25),
                 NoiseSpec(model="partial-entanglement", param=0.55),
                 NoiseSpec(model="partial-entanglement", param=0.7)):
        rep = certify(noisy_strategy(n, spec))
        assert rep.passed


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("family", ["random", "bob-rotation"])
def test_branch_stacks_are_isometries(n, family):
    s = family_strategy(n, family, seed=80 + n)
    ops = build_xz(s)
    for (x, z), stack, d in zip((ops.alice, ops.bob), ops.branches, (s.dim_a, s.dim_b)):
        assert stack.shape == (1 << n // 2, d, d)
        assert np.max(np.abs(np.sum(dagger(stack) @ stack, axis=0) - np.eye(d))) < 1e-12
        # the stage products one qubit at a time, later qubits on the left
        eye = np.eye(d)
        stages = np.stack([(eye + z) / 2, x @ (eye - z) / 2], axis=1)  # [qubit, bit]
        want = stages[0]
        for stage in stages[1:]:
            want = (stage[None] @ want[:, None]).reshape(-1, d, d)
        assert np.max(np.abs(stack - want)) < 1e-14


def test_swap_isometry_batch_matches_single_calls():
    s = family_strategy(4, "random", seed=90)
    ops = build_xz(s)
    psi = s.state.reshape(s.dim_a, s.dim_b)
    batch = np.stack([psi, (dense_string(ops, "z", "0110") @ s.state).reshape(psi.shape)])
    got = swap_isometry_apply(ops, batch)
    assert got.shape == (2, psi.size << 4)
    for row, v in zip(got, batch):
        assert np.max(np.abs(row - swap_isometry_apply(ops, v))) < 1e-13


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
    assert rep.q_b_star == 0b0 and rep.q_a_star == 0b0
    assert rep.to_document()["transcript"] == []


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
    rep1 = certify(relabel(s, 1, 0))
    assert rep1.value == pytest.approx(rep0.value, abs=1e-9)
    assert rep1.epsilon == pytest.approx(rep0.epsilon, abs=1e-9)
    assert rep1.measured.eps2 == pytest.approx(rep0.measured.eps2, abs=1e-9)
    assert rep1.passed
    # these models score every question identically, so no flips are needed,
    # even after relabeling; the questions keep their canonical names, and
    # ties that differ only by roundoff go to the smallest question
    assert rep1.q_b_star == 0b0 and rep1.q_a_star == 0b0
    for n, model, param in ((4, "bob-rotation", 0.04), (6, "bob-rotation", 0.01),
                            (4, "partial-entanglement", 0.5),
                            (8, "partial-entanglement", 0.39)):
        rep = certify(noisy_strategy(n, NoiseSpec(model=model, param=param)))
        m = n // 2
        assert rep.to_document()["transcript"] == [], (n, model, param)
        assert rep.q_a_star == rep.q_b_star == 0
        assert rep.pair_questions == {
            (k, ell): 1 << (m - ell)
            for k in range(1, m + 1) for ell in range(k + 1, m + 1)}


def test_certify_rejects_large_n():
    with pytest.raises(ValueError):
        certify(ideal_strategy(MAX_CERTIFY_N + 2))


def test_certify_sampled_coverage_recorded():
    rep = certify(ideal_strategy(8), seed=3)
    cov = rep.measured.coverage.describe()
    assert cov == {"mode": "sampled", "count": 10_000, "seed": 3}
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
        assert certify(s).value == exact_value(s)


# ---------------------------------------------------------------------------
# real and complex arithmetic give the same reports


def assert_documents_agree(got, want, where="report"):
    """Same keys, lengths and non-float values; floats within 1e-12."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_documents_agree(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_documents_agree(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, (where, got, want)
    else:
        assert got == want, (where, got, want)


def assert_reports_agree(got, want):
    """Every report field within 1e-12, the certified ceilings through
    delta_cert: a fourth or square root of it, they turn a 1e-16 move of a
    near-ideal value into a move of 1e-4 or 1e-8, so each report's
    ceilings are checked against its own delta_cert."""
    for rep in (got, want):
        assert rep.certified == certified_bounds(rep.delta_cert)
    assert_documents_agree(*(dict(rep.to_document(), certified=None) for rep in (got, want)))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]),
       st.sampled_from(["ideal", "bob-rotation", "partial-entanglement", "twisted-ideal",
                        "random-3x5"]),
       st.floats(0.01, 2 * math.pi - 0.01), st.integers(0, 2**32 - 1))
@example(8, "bob-rotation", 1.0, 0)
@example(8, "partial-entanglement", 2.0, 0)
def test_a_global_phase_leaves_every_report_field(n, family, theta, seed):
    # the phased state is complex, so its run takes complex arithmetic even
    # where the strategy's own run is real (ideal and the noise models)
    s = ideal_strategy(n) if family == "ideal" else family_strategy(n, family, seed)
    phased = Strategy(state=s.state * np.exp(1j * theta), alice=s.alice, bob=s.bob)
    assert phased.state.dtype == np.complex128
    if family in ("ideal", "bob-rotation", "partial-entanglement"):
        assert s.state.dtype == s.alice.dtype == s.bob.dtype == np.float64
    assert_reports_agree(certify(phased), certify(s))


def test_a_negative_zero_imaginary_part_keeps_a_file_complex():
    text = strategy_to_text(noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.1)))
    real = strategy_from_text(text)
    assert real.state.dtype == real.alice.dtype == real.bob.dtype == np.float64
    # the last imaginary part of the document, in Bob's last question, turned
    # from +0.0 to -0.0: his stack holds real questions when it turns complex
    at = text.rindex(", 0.0]")
    signed = text[:at] + ", -0.0]" + text[at + len(", 0.0]"):]
    mixed = strategy_from_text(signed)
    assert mixed.bob.dtype == np.complex128
    assert mixed.state.dtype == mixed.alice.dtype == np.float64
    assert strategy_to_text(mixed) == signed
    assert_reports_agree(certify(mixed), certify(real))


# ---------------------------------------------------------------------------
# every strategy validate accepts gets a verdict from every later stage


def _worst_residual(s: Strategy) -> float:
    return max(dataclasses.astuple(validate(s)))


def _moved(s: Strategy, scale: float, rng) -> Strategy:
    """A copy of ``s`` whose Alice observables are moved along a random
    direction until validate's worst residual is ``scale`` x VALIDATION_TOL:
    the residuals are linear in so small a step, up to roundoff."""
    direction = rng.normal(size=s.alice.shape)
    if s.alice.dtype == complex:
        direction = direction + 1j * rng.normal(size=s.alice.shape)

    def step(size):
        return Strategy(state=s.state, alice=s.alice + size * direction, bob=s.bob)

    return step(scale * VALIDATION_TOL ** 2 / _worst_residual(step(VALIDATION_TOL)))


def _accepted_strategies(n: int, rng) -> list:
    """Strategies at the edges of what validate accepts: random ones with
    sides of 1 to 5 dimensions, copies whose observables or state are moved
    to 0.4-0.95 x VALIDATION_TOL, a product state and identity observables."""
    m, dim = n // 2, 1 << n // 2
    cases = [random_strategy(n, rng, da, db) for da in range(1, 6) for db in range(1, 6)]
    bases = [noisy_strategy(n, NoiseSpec("bob-rotation", 0.3)), random_strategy(n, rng)]
    cases += [_moved(s, scale, rng) for s in bases for scale in (0.4, 0.7, 0.95)]
    cases += [Strategy(state=s.state * (1 + 0.9 * VALIDATION_TOL), alice=s.alice, bob=s.bob)
              for s in bases]
    halves = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(2)]
    product = np.kron(*(h / np.linalg.norm(h) for h in halves))
    cases.append(Strategy(state=product, alice=bases[1].alice, bob=bases[1].bob))
    ident = np.broadcast_to(np.eye(dim), (1 << m, m, dim, dim))
    cases.append(Strategy(state=bases[1].state, alice=ident, bob=ident))
    return cases


def _assert_finite(doc) -> None:
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, (list, tuple)):
        for item in doc:
            _assert_finite(item)
    elif isinstance(doc, float):
        assert math.isfinite(doc)


@pytest.mark.parametrize("n", [2, 4])
def test_every_strategy_validate_accepts_gets_a_finite_verdict(n):
    rng = np.random.default_rng(20 + n)
    cases = _accepted_strategies(n, rng)
    # the moved copies press validate's ceiling
    assert max(map(_worst_residual, cases)) >= 0.9 * VALIDATION_TOL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in cases:
            assert validate(s).ok
            report = certify(s)
            assert isinstance(report.passed, bool)
            doc = json.loads(report.to_text(), parse_constant=pytest.fail)
            _assert_finite(doc)
            _assert_finite(dataclasses.astuple(report.measured))
            assert math.isfinite(exact_value(s))
            played = referee_simulate(s, 500, np.random.default_rng(n))
            _assert_finite(dataclasses.astuple(played))
