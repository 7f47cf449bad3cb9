"""Quantum strategies for the repeated CHSH test.

A strategy for n tested qubits (n even) consists of a shared pure state
on dim_A * dim_B and, for each half-question of n/2 bits, a family of
n/2 binary observables per player.  Answer bit b corresponds to the
observable eigenvalue (-1)^b.

The reference ("ideal") strategy puts every tested pair in the two-qubit
graph state (|00> + |01> + |10> - |11>)/2; Alice measures sigma_x or
sigma_z per question bit, Bob the diagonal combinations
(sigma_z +- sigma_x)/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bits, jsonio
from .linalg import (
    PAULI_X,
    PAULI_Z,
    VALIDATION_TOL,
    commutation_residual,
    embed_qubit_op,
    haar_unitary,
    hermiticity_residual,
    unitarity_residual,
)

NOISE_MODELS = ("none", "bob-rotation", "partial-entanglement")


@dataclass(frozen=True)
class NoiseSpec:
    """A noise model tag plus its single real parameter."""

    model: str = "none"
    param: float = 0.0

    def __post_init__(self):
        if self.model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {self.model!r}")
        if not math.isfinite(self.param):
            raise ValueError("noise parameter must be finite")
        if self.model == "none" and self.param != 0.0:
            raise ValueError("model 'none' forces param = 0")
        if self.model == "partial-entanglement" and not 0.0 < self.param <= math.pi / 4:
            raise ValueError("partial-entanglement angle must lie in (0, pi/4]")


@dataclass(frozen=True)
class Strategy:
    """Shared state plus per-question observable stacks for both players.

    ``alice[q, k]`` is Alice's observable for subtest k + 1 at the question
    with big-endian integer index q, so ``alice`` has shape
    (2^(n/2), n/2, dim_a, dim_a); ``bob`` likewise with dim_b.  The state
    is A-major: index = i_A * dim_b + i_B.  n, dim_a and dim_b are read off
    the shapes.  The arrays are copied and marked read-only on construction.
    """

    state: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        for name in ("alice", "bob"):
            obs = _frozen(getattr(self, name))
            m = obs.shape[1] if obs.ndim == 4 else 0
            if m < 1 or obs.shape[0] != 1 << m or obs.shape[2] != obs.shape[3]:
                raise ValueError(f"{name} must have shape (2^m, m, d, d) with m >= 1, "
                                 f"got {obs.shape}")
            object.__setattr__(self, name, obs)
        if self.alice.shape[1] != self.bob.shape[1]:
            raise ValueError("alice and bob must answer questions of the same length")
        state = _frozen(np.reshape(self.state, -1))
        if state.size != self.dim_a * self.dim_b:
            raise ValueError("state length does not match dim_a * dim_b")
        object.__setattr__(self, "state", state)

    @property
    def half(self) -> int:
        return self.alice.shape[1]

    @property
    def n(self) -> int:
        return 2 * self.half

    @property
    def dim_a(self) -> int:
        return self.alice.shape[2]

    @property
    def dim_b(self) -> int:
        return self.bob.shape[2]

    # Read-only {question string: tuple of observables} views of the stacks,
    # kept only for perfbench/workloads.write_strategy; nothing in the
    # package reads them, and the next change to the benchmark deletes them.
    @property
    def alice_obs(self) -> dict:
        return dict(zip(bits.all_strings(self.half), map(tuple, self.alice)))

    @property
    def bob_obs(self) -> dict:
        return dict(zip(bits.all_strings(self.half), map(tuple, self.bob)))


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StrategyDiagnostics:
    """Worst-case residuals over all observables of one strategy.

    A non-finite amplitude or matrix entry makes a residual NaN or
    infinite, and such a residual is never ok.
    """

    hermiticity: float
    unitarity: float
    commutation: float
    normalization: float

    @property
    def ok(self) -> bool:
        return all(r <= VALIDATION_TOL for r in (self.hermiticity, self.unitarity,
                                                 self.commutation, self.normalization))


def ideal_state(n: int) -> np.ndarray:
    """The n-qubit test state: (2^-{n/2}) sum_u (-1)^{u_a . u_b} |u_a u_b>.

    Returned A-major over (dim, dim) with dim = 2^(n/2); equivalently the
    tensor product of one two-qubit graph state per tested pair, with
    Alice's halves grouped in front.
    """
    return (bits.sign_grid(n // 2) / math.sqrt(1 << n)).astype(complex).reshape(-1)


def _local_stack(m: int, single) -> np.ndarray:
    """(2^m, m, 2^m, 2^m) stack whose entry [q, k] is single[bit k+1 of q]
    acting on qubit k+1, gathered from the 2 m embedded one-qubit operators."""
    embedded = np.array([[embed_qubit_op(op, k + 1, m) for k in range(m)] for op in single])
    return embedded[bits.bit_table(m), np.arange(m)]


_BOB_PAIR = ((PAULI_Z + PAULI_X) / math.sqrt(2), (PAULI_Z - PAULI_X) / math.sqrt(2))


def ideal_strategy(n: int) -> Strategy:
    """The reference strategy reaching the Tsirelson value 2*sqrt(2)."""
    m = n // 2
    return Strategy(state=ideal_state(n), alice=_local_stack(m, (PAULI_X, PAULI_Z)),
                    bob=_local_stack(m, _BOB_PAIR))


def noisy_strategy(n: int, noise: NoiseSpec) -> Strategy:
    """Ideal strategy deformed by one of the supported noise models.

    Every tested pair shares one two-qubit state, and Bob measures both of
    his one-qubit observables conjugated by exp(-i eta sigma_y / 2).
    bob-rotation sets eta; partial-entanglement keeps eta = 0 and replaces
    the pair state by cos(theta)|0,+> + sin(theta)|1,->; none is eta = 0
    on the ideal pair state, which is ``ideal_strategy(n)``.
    """
    m = n // 2
    eta = noise.param if noise.model == "bob-rotation" else 0.0
    if noise.model == "partial-entanglement":
        s = 1 / math.sqrt(2)
        c, d = math.cos(noise.param) * s, math.sin(noise.param) * s
        pair = np.array([[c, c], [d, -d]])
    else:
        pair = np.array([[0.5, 0.5], [0.5, -0.5]])  # the state of ideal_state(2)
    state = np.ones((1, 1))
    for _ in range(m):
        state = np.einsum("ij,ab->iajb", state, pair)
        state = state.reshape(state.shape[0] * 2, -1)
    rot = np.array([[math.cos(eta / 2), -math.sin(eta / 2)],
                    [math.sin(eta / 2), math.cos(eta / 2)]], dtype=complex)
    bob_pair = tuple(rot @ b @ rot.conj().T for b in _BOB_PAIR)
    return Strategy(state=state.astype(complex), alice=_local_stack(m, (PAULI_X, PAULI_Z)),
                    bob=_local_stack(m, bob_pair))


def random_strategy(n: int, rng: np.random.Generator,
                    dim_a: int | None = None, dim_b: int | None = None) -> Strategy:
    """A random valid strategy: Haar-rotated commuting sign observables.

    Each question gets one random unitary per player; the n/2 observables
    for that question share its eigenbasis with independent +-1 spectra,
    so every family commutes exactly.
    """
    m = n // 2
    dim_a = dim_a or (1 << m)
    dim_b = dim_b or (1 << m)
    state = rng.normal(size=dim_a * dim_b) + 1j * rng.normal(size=dim_a * dim_b)
    state = state / np.linalg.norm(state)
    stacks = []
    for dim in (dim_a, dim_b):
        stack = np.empty((1 << m, m, dim, dim), dtype=complex)
        for q in range(1 << m):
            u = haar_unitary(dim, rng)
            for k in range(m):
                signs = rng.choice([-1.0, 1.0], size=dim)
                stack[q, k] = (u * signs) @ u.conj().T
        stacks.append(stack)
    return Strategy(state=state, alice=stacks[0], bob=stacks[1])


def validate(strategy: Strategy) -> StrategyDiagnostics:
    """Worst residuals for Hermiticity, unitarity, same-question
    commutation, and state normalization.

    Batched over questions, one subtest (pair) at a time, so temporaries
    hold one observable per question.
    """
    m = strategy.half
    herm, unit, comm = [0.0], [0.0], [0.0]
    # non-finite entries give NaN or inf residuals, which fail below; the
    # arithmetic that produces them is expected, not worth a warning
    with np.errstate(invalid="ignore", over="ignore"):
        for stack in (strategy.alice, strategy.bob):
            for k in range(m):
                herm.append(hermiticity_residual(stack[:, k]))
                unit.append(unitarity_residual(stack[:, k]))
                comm.extend(commutation_residual(stack[:, k], stack[:, j])
                            for j in range(k + 1, m))
    normres = abs(float(np.linalg.norm(strategy.state)) - 1.0)
    # np.max, unlike the builtin max, keeps a NaN residual
    return StrategyDiagnostics(hermiticity=float(np.max(herm)), unitarity=float(np.max(unit)),
                               commutation=float(np.max(comm)), normalization=normres)


def joint_projector(strategy: Strategy, party: str, question: str,
                    answer: str) -> np.ndarray:
    """Projector onto a full answer string for one player's question.

    Product over k of (I + (-1)^{answer_k} M_k) / 2, which is an honest
    projector because observables within one question family commute.
    """
    if party not in ("A", "B"):
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    if len(bits.check(question)) != strategy.half:
        raise ValueError(f"questions must have length {strategy.half}")
    family = (strategy.alice if party == "A" else strategy.bob)[bits.to_int(question)]
    if len(answer) != len(family):
        raise ValueError("answer length does not match question length")
    for i, obs in enumerate(family):
        for other in family[i + 1:]:
            if commutation_residual(obs, other) > VALIDATION_TOL:
                raise ValueError("observable family does not commute; "
                                 "joint answers are undefined")
    dim = family[0].shape[0]
    out = np.eye(dim, dtype=complex)
    for c, obs in zip(answer, family):
        sign = -1.0 if c == "1" else 1.0
        out = out @ ((np.eye(dim) + sign * obs) / 2)
    return out


def born_distribution(strategy: Strategy, q_a: str, q_b: str) -> np.ndarray:
    """Exact joint answer distribution P[x, y]; exponential in n."""
    m = strategy.half
    psi = strategy.state.reshape(strategy.dim_a, strategy.dim_b)
    dist = np.empty((1 << m, 1 << m))
    for xi, x in enumerate(bits.all_strings(m)):
        pa = joint_projector(strategy, "A", q_a, x)
        left = pa @ psi
        for yi, y in enumerate(bits.all_strings(m)):
            pb = joint_projector(strategy, "B", q_b, y)
            dist[xi, yi] = max(0.0, float(np.vdot(psi, left @ pb.T).real))
    return dist


def _sample_bits(strategy: Strategy, qa_idx: np.ndarray, qb_idx: np.ndarray,
                 uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential conditional Born sampling, vectorized over rounds.

    uniforms[r, j] decides the j-th sampled bit of round r (Alice's bits
    first), so results do not depend on how rounds are grouped here.
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


def sample_answers(strategy: Strategy, q_a: str, q_b: str,
                   rng: np.random.Generator) -> tuple[str, str]:
    """Draw one pair of answer strings from the Born distribution.

    Bits are sampled one at a time (Alice's bits then Bob's), each
    conditioned on the previous outcomes; the draw consumes exactly n
    uniforms from ``rng``.
    """
    m = strategy.half
    qa = np.array([bits.to_int(bits.check(q_a))])
    qb = np.array([bits.to_int(bits.check(q_b))])
    if len(q_a) != m or len(q_b) != m:
        raise ValueError(f"questions must have length {m}")
    u = rng.random((1, strategy.n))
    x, y = _sample_bits(strategy, qa, qb, u)
    return ("".join(str(b) for b in x[0]), "".join(str(b) for b in y[0]))


# ---------------------------------------------------------------------------
# serialization

def strategy_to_text(strategy: Strategy) -> str:
    """Serialize to JSON text with 17-significant-digit floats.

    That many digits pins down each double exactly, so a load of the dump
    reproduces every array bit for bit.
    """
    def families(stack):
        return {q: [_to_pairs(o) for o in family]
                for q, family in zip(bits.all_strings(strategy.half), stack)}

    doc = {
        "n": strategy.n,
        "dim_A": strategy.dim_a,
        "dim_B": strategy.dim_b,
        "state": _to_pairs(strategy.state),
        "alice_obs": families(strategy.alice),
        "bob_obs": families(strategy.bob),
    }
    return jsonio.dumps(doc, float_digits=17)


def _to_pairs(a: np.ndarray) -> list:
    """[[re, im], ...] over the entries of a complex array, row-major."""
    return np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist()


def _from_pairs(obj, what: str) -> np.ndarray:
    """Complex array from nested lists that end in [re, im] number pairs."""
    try:
        raw = np.array(obj)  # no dtype: a float dtype would parse "1.0" and map null to nan
        ok = raw.dtype.kind in "biuf" and raw.shape[-1:] == (2,)
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise ValueError(f"{what} must hold nested lists of [re, im] number pairs")
    return np.ascontiguousarray(raw, dtype=float).view(complex)[..., 0]


def _stack_from_doc(families, what: str, m: int, dim: int) -> np.ndarray:
    """One player's (2^m, m, dim, dim) observable stack from its question map."""
    if not isinstance(families, dict):
        raise ValueError(f"{what} must be an object keyed by question")
    questions = sorted(families)
    stack = _from_pairs([families[q] for q in questions], what)
    # m is compared first, so a huge n in the document never builds 2^(n/2) questions
    if (stack.shape[1:2] != (m,) or stack.shape != (1 << m, m, dim * dim)
            or questions != list(bits.all_strings(m))):
        raise ValueError(f"{what} must hold {m} flat {dim}x{dim} matrices "
                         f"for each length-{m} question")
    return stack.reshape(1 << m, m, dim, dim)


def strategy_from_text(text: str) -> Strategy:
    doc = jsonio.loads(text)
    try:
        for key in ("n", "dim_A", "dim_B"):
            if type(doc[key]) is not int:  # also rejects bool and float
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        n, da, db = doc["n"], doc["dim_A"], doc["dim_B"]
        if n < 2 or n % 2 != 0:
            raise ValueError("n must be even and at least 2")
        state = _from_pairs(doc["state"], "state")
        if state.shape != (da * db,):
            raise ValueError("state must hold dim_A * dim_B amplitudes")
        alice = _stack_from_doc(doc["alice_obs"], "alice_obs", n // 2, da)
        bob = _stack_from_doc(doc["bob_obs"], "bob_obs", n // 2, db)
        return Strategy(state=state, alice=alice, bob=bob)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from exc


def save_strategy(strategy: Strategy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(strategy_to_text(strategy))


def load_strategy(path) -> Strategy:
    with open(path, encoding="utf-8") as fh:
        return strategy_from_text(fh.read())
