"""Strategies: construction, validation, Born sampling, serialization."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chsh_selftest import (
    NoiseSpec,
    Strategy,
    ideal_strategy,
    noisy_strategy,
    random_strategy,
    strategy_from_text,
    strategy_to_text,
    validate,
)
from chsh_selftest import bits, strategy as strategy_module
from chsh_selftest.extraction import build_xz
from chsh_selftest.linalg import PAULI_X, PAULI_Z, branch_tree, tensor
from chsh_selftest.strategy import _answer_masses, born_answers, ideal_state
from test_verifier import family_strategy

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


def test_strategy_copies_caller_arrays():
    ideal = ideal_strategy(2)
    state, alice, bob = (np.array(a) for a in (ideal.state, ideal.alice, ideal.bob))
    s = Strategy(state=state, alice=alice, bob=bob)
    for mine, theirs in ((state, s.state), (alice, s.alice), (bob, s.bob)):
        kept = theirs.copy()
        mine[...] = 7.0
        assert np.array_equal(theirs, kept)


def test_strategy_and_operators_compare_by_identity():
    # the array fields have no truth value, so equality is identity
    s = ideal_strategy(2)
    ops = build_xz(s)
    for obj, twin in ((s, ideal_strategy(2)), (ops, build_xz(s))):
        assert obj == obj
        assert obj != twin
        assert hash(obj) == hash(obj)
        assert len({obj, twin}) == 2


# ---------------------------------------------------------------------------
# Born-rule oracles for the sampler: exact answer distributions from projectors


def joint_projector(strategy, party, question, answer):
    """Product over k of (I + (-1)^{answer_k} M_k) / 2; a projector because
    the observables of one question family commute."""
    family = (strategy.alice if party == "A" else strategy.bob)[int(question, 2)]
    out = np.eye(family.shape[-1], dtype=complex)
    for c, obs in zip(answer, family):
        out = out @ (np.eye(len(obs)) + (-1.0 if c == "1" else 1.0) * obs) / 2
    return out


def born_distribution(strategy, q_a, q_b):
    """Exact joint answer distribution P[x, y]; exponential in n."""
    answers = list(bits.all_strings(strategy.half))
    psi = strategy.state.reshape(strategy.dim_a, strategy.dim_b)
    dist = np.empty((len(answers), len(answers)))
    for xi, x in enumerate(answers):
        left = joint_projector(strategy, "A", q_a, x) @ psi
        for yi, y in enumerate(answers):
            pb = joint_projector(strategy, "B", q_b, y)
            dist[xi, yi] = float(np.vdot(psi, left @ pb.T).real)
    return dist


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


def collapse_sample(strategy, qa_idx, qb_idx, uniforms):
    """Sequential conditional Born sampling by state collapse, vectorized over
    rounds; the answer bits as (rounds, m) arrays.

    Per question and bit, one einsum gives the branch (I + M)/2 of every
    round's state, which collapses onto the drawn branch.  uniforms[r, j]
    decides the j-th sampled bit of round r (Alice's bits first).
    """
    m = strategy.half
    da, db = strategy.dim_a, strategy.dim_b
    rounds = qa_idx.shape[0]
    x = np.zeros((rounds, m), dtype=np.int64)
    y = np.zeros((rounds, m), dtype=np.int64)
    chunk = max(1, (1 << 22) // (da * db))
    psi = strategy.state.reshape(da, db)
    for lo in range(0, rounds, chunk):
        hi = min(rounds, lo + chunk)
        states = np.tile(psi, (hi - lo, 1, 1))
        weights = np.einsum("rij,rij->r", states.conj(), states).real
        for party, stack, qidx, answers, col0 in (("A", strategy.alice, qa_idx, x, 0),
                                                  ("B", strategy.bob, qb_idx, y, m)):
            for q in np.unique(qidx[lo:hi]):
                rows = np.nonzero(qidx[lo:hi] == q)[0]
                for k in range(m):
                    if party == "A":
                        moved = np.einsum("ij,rjc->ric", stack[q, k], states[rows])
                    else:
                        moved = np.einsum("ij,rcj->rci", stack[q, k], states[rows])
                    branch0 = 0.5 * (states[rows] + moved)
                    w0 = np.einsum("rij,rij->r", branch0.conj(), branch0).real
                    p0 = w0 / weights[rows]
                    picked1 = uniforms[lo:hi][rows, col0 + k] >= p0
                    answers[lo + rows, k] = picked1
                    states[rows] = np.where(picked1[:, None, None],
                                            states[rows] - branch0, branch0)
                    weights[rows] = np.where(picked1, weights[rows] - w0, w0)
    return x, y


def sample_answers(strategy, q_a, q_b, rng):
    """One round's answer strings at questions (q_a, q_b), drawn by the
    collapse oracle from exactly n uniforms of ``rng``."""
    qa, qb = np.array([int(q_a, 2)]), np.array([int(q_b, 2)])
    x, y = collapse_sample(strategy, qa, qb, rng.random((1, strategy.n)))
    return "".join(map(str, x[0])), "".join(map(str, y[0]))


def answer_ints(answer_bits):
    """Big-endian integers of a (rounds, m) array of answer bits."""
    m = answer_bits.shape[1]
    return answer_bits @ (1 << np.arange(m - 1, -1, -1))


FAMILIES = ["bob-rotation", "partial-entanglement", "random", "random-3x5", "twisted-ideal"]


def test_sampling_is_deterministic():
    s = ideal_strategy(4)
    a = sample_answers(s, "01", "10", np.random.default_rng(42))
    b = sample_answers(s, "01", "10", np.random.default_rng(42))
    assert a == b
    qa, qb = np.array([1]), np.array([2])
    x, y = born_answers(s, qa, qb, np.random.default_rng(42).random((1, 4)))
    assert (bits.from_int(x[0], 2), bits.from_int(y[0], 2)) == a


def test_sampling_matches_born_distribution():
    s = ideal_strategy(2)
    dist = born_distribution(s, "0", "1")
    rng = np.random.default_rng(7)
    trials = 20_000
    x, y = born_answers(s, np.zeros(trials, dtype=np.int64), np.ones(trials, dtype=np.int64),
                        rng.random((trials, 2)))
    freq = np.bincount(2 * x + y, minlength=4).reshape(2, 2) / trials
    # 5 sigma on each cell
    for xi in range(2):
        for yi in range(2):
            p = dist[xi, yi]
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(freq[xi, yi] - p) < 5 * sigma


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]), st.sampled_from(FAMILIES),
       st.integers(0, 2**32 - 1))
@example(10, "bob-rotation", 5)
def test_born_answers_match_the_collapse_oracle(n, family, seed):
    s = family_strategy(n, family, seed)
    rng = np.random.default_rng([seed, n])
    qa, qb = rng.integers(0, 1 << s.half, size=(2, 300))
    u = rng.random((300, n))
    x, y = born_answers(s, qa, qb, u)
    want_x, want_y = collapse_sample(s, qa, qb, u)
    assert np.array_equal(x, answer_ints(want_x))
    assert np.array_equal(y, answer_ints(want_y))


@pytest.mark.parametrize("mixed", ["complex state", "complex bob"])
def test_born_answers_in_mixed_dtypes_match_the_real_strategy(mixed):
    # a global phase, or a -0.0 imaginary part, makes one array complex and
    # the others stay real: the kernels promote, and the draws do not move
    s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.3))
    if mixed == "complex state":
        twin = Strategy(state=s.state * np.exp(0.7j), alice=s.alice, bob=s.bob)
    else:
        bob = s.bob.astype(complex)
        bob.imag[0, 0, 0, 0] = -0.0
        twin = Strategy(state=s.state, alice=s.alice, bob=bob)
    assert s.bob.dtype == np.float64 and twin.state.dtype != twin.bob.dtype
    rng = np.random.default_rng(11)
    qa, qb = rng.integers(0, 4, size=(2, 300))
    u = rng.random((300, 4))
    want_x, want_y = collapse_sample(s, qa, qb, u)
    for strat in (s, twin):
        x, y = born_answers(strat, qa, qb, u)
        assert np.array_equal(x, answer_ints(want_x))
        assert np.array_equal(y, answer_ints(want_y))


def test_born_answers_do_not_depend_on_the_round_chunks(monkeypatch):
    s = random_strategy(4, np.random.default_rng(4), dim_a=3, dim_b=5)
    rng = np.random.default_rng(6)
    qa, qb = rng.integers(0, 4, size=(2, 200))
    u = rng.random((200, 4))
    whole = born_answers(s, qa, qb, u)
    monkeypatch.setattr(strategy_module, "SAMPLE_CHUNK_ENTRIES", 7 * 5 * 5)  # 7 rounds a chunk
    chunked = born_answers(s, qa, qb, u)
    for got, want in zip(chunked, whole):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 4, 6])
def test_born_tables_match_born_distribution(n, family):
    s = family_strategy(n, family, 12)
    m = s.half
    psi = s.state.reshape(s.dim_a, s.dim_b)
    for a in range(1 << m):
        phi = branch_tree(psi, s.alice[a])  # P_{a,x} psi for every x
        reduced = phi.conj().transpose(0, 2, 1) @ phi
        for b in range(1 << m):
            joint = _answer_masses(reduced, s.bob[b])  # [x, y]
            want = born_distribution(s, bits.from_int(a, m), bits.from_int(b, m))
            assert np.max(np.abs(joint - want)) < 1e-12


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
    assert exact_value(s) == pytest.approx(expect, abs=1e-12)
    # model "none" is rotation 0 on the ideal pair state: the ideal strategy,
    # whose observables are one-qubit operators tensored with identities
    bob_pair = ((PAULI_Z + PAULI_X) / SQ2, (PAULI_Z - PAULI_X) / SQ2)
    for n in (2, 4, 6):
        plain, m = noisy_strategy(n, NoiseSpec()), n // 2
        assert np.array_equal(plain.state, ideal_state(n))
        for q, question in enumerate(bits.all_strings(m)):
            for k, c in enumerate(question):
                for got, pair in ((plain.alice, (PAULI_X, PAULI_Z)), (plain.bob, bob_pair)):
                    want = tensor(*(pair[int(c)] if j == k else np.eye(2) for j in range(m)))
                    assert np.array_equal(got[q, k], want)


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


def test_loading_holds_one_copy_of_the_arrays():
    # the parsed payloads become the strategy's arrays: no second copy of a
    # side coexists with the first, so the peak is the arrays plus parse buffers
    import tracemalloc

    text = strategy_to_text(noisy_strategy(10, NoiseSpec(model="bob-rotation", param=0.1)))
    tracemalloc.start()
    try:
        s = strategy_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # against the document's complex bytes, 16 per entry: the float64
    # arrays take half that, and the parse still holds every [re, im] pair
    assert s.alice.dtype == s.bob.dtype == s.state.dtype == np.float64
    assert peak <= 1.25 * 16 * (s.state.size + s.alice.size + s.bob.size)
    assert not (s.state.flags.writeable or s.alice.flags.writeable or s.bob.flags.writeable)


def test_a_huge_n_is_refused_before_any_size_is_built_from_it():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="alice_obs must hold 1000000000 flat"):
            strategy_from_text(json.dumps(HUGE_N_DOC))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dimensions_below_one_are_refused_by_name():
    with pytest.raises(ValueError, match="dim_A and dim_B must be at least 1, got -1 and -1"):
        strategy_from_text(json.dumps(NEGATIVE_DIMS_DOC))


def test_serialization_keeps_negative_zeros():
    # Bob's rotated observables hold -0.0 entries, which the text writes as "-0.0"
    s = noisy_strategy(4, NoiseSpec(model="bob-rotation", param=0.1))
    assert np.signbit(s.bob.view(float)[s.bob.view(float) == 0]).any()
    back = strategy_from_text(strategy_to_text(s))
    for got, want in ((back.state, s.state), (back.alice, s.alice), (back.bob, s.bob)):
        assert got.tobytes() == want.tobytes()


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


def _replaced(name, doc):
    """A mangle that swaps the whole document for ``doc``; pytest shows it as ``name``."""
    def mangle(text):
        return json.dumps(doc)
    mangle.__name__ = name
    return mangle


ONE = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # a flat 2x2 identity

#: n = 2 * 10^9 with no questions: 2^(n/2) as an integer alone takes 125 MB
HUGE_N_DOC = {"n": 2_000_000_000, "dim_A": 1, "dim_B": 1, "state": [[1.0, 0.0]],
              "alice_obs": {}, "bob_obs": {}}

#: dimensions whose product matches the one amplitude, but below 1
_ONE_BY_ONE = {"0": [[[1.0, 0.0]]], "1": [[[1.0, 0.0]]]}
NEGATIVE_DIMS_DOC = {"n": 2, "dim_A": -1, "dim_B": -1, "state": [[1.0, 0.0]],
                     "alice_obs": _ONE_BY_ONE, "bob_obs": _ONE_BY_ONE}

#: edits that turn the ideal n = 2 document into JSON that is no strategy document
MALFORMED_EDITS = [
    _edited("alice_obs-list", ["alice_obs"], []),
    _edited("alice_obs-string", ["alice_obs"], "0"),
    _edited("bob_obs-number", ["bob_obs"], 5),
    _edited("string-entry", ["alice_obs", "0", 0, 0], ["1.0", "0"]),
    _edited("null-entry", ["alice_obs", "0", 0, 0], None),
    _edited("null-part", ["bob_obs", "1", 0, 0], [None, 0.0]),
    _edited("bool-entry", ["alice_obs", "0", 0, 0], [True, False]),
    _edited("bool-part", ["bob_obs", "1", 0, 0], [True, 0.5]),
    _edited("triple-entry", ["alice_obs", "0", 0, 0], [1.0, 0.0, 0.0]),
    _edited("long-family", ["bob_obs", "0"], [ONE, ONE]),
    _edited("extra-question", ["alice_obs", "00"], [ONE]),
    _edited("odd-n", ["n"], 3),
    _edited("short-state", ["state"], ONE[:3]),
    _replaced("huge-n-no-questions", HUGE_N_DOC),
    _replaced("negative-dims", NEGATIVE_DIMS_DOC),
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
