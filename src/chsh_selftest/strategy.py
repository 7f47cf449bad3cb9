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
from typing import Mapping

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
    """Shared state plus per-question observable families for both players.

    alice_obs / bob_obs map each length-(n/2) question string to a tuple
    of n/2 observables; Alice's act on dim_a, Bob's on dim_b.  The state
    is A-major: index = i_A * dim_b + i_B.  Instances are treated as
    immutable; the arrays are marked read-only on construction.
    """

    n: int
    dim_a: int
    dim_b: int
    state: np.ndarray
    alice_obs: Mapping[str, tuple]
    bob_obs: Mapping[str, tuple]

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be even and at least 2")
        m = self.n // 2
        state = np.asarray(self.state, dtype=complex).reshape(-1)
        if state.size != self.dim_a * self.dim_b:
            raise ValueError("state length does not match dim_a * dim_b")
        object.__setattr__(self, "state", _frozen(state))
        expected = set(bits.all_strings(m))
        for name, table, dim in (("alice_obs", self.alice_obs, self.dim_a),
                                 ("bob_obs", self.bob_obs, self.dim_b)):
            if set(table) != expected:
                raise ValueError(f"{name} must have one entry per length-{m} question")
            fixed = {}
            for q, family in table.items():
                family = tuple(np.asarray(o, dtype=complex) for o in family)
                if len(family) != m:
                    raise ValueError(f"{name}[{q}] must hold {m} observables")
                for o in family:
                    if o.shape != (dim, dim):
                        raise ValueError(f"{name}[{q}] has an observable of shape "
                                         f"{o.shape}, expected {(dim, dim)}")
                fixed[q] = tuple(_frozen(o) for o in family)
            object.__setattr__(self, name, fixed)

    @property
    def half(self) -> int:
        return self.n // 2


def _frozen(a: np.ndarray) -> np.ndarray:
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
    m = n // 2
    dim = 1 << m
    amp = np.empty((dim, dim))
    for ia in range(dim):
        for ib in range(dim):
            amp[ia, ib] = -1.0 if bin(ia & ib).count("1") % 2 else 1.0
    return (amp / math.sqrt(1 << n)).astype(complex).reshape(-1)


def _local_tables(n: int, single_a, single_b) -> tuple[dict, dict]:
    """Build question tables from per-bit one-qubit observables.

    single_a / single_b are pairs (obs for question bit 0, for bit 1).
    """
    m = n // 2
    alice, bob = {}, {}
    for q in bits.all_strings(m):
        alice[q] = tuple(embed_qubit_op(single_a[int(c)], k + 1, m)
                         for k, c in enumerate(q))
        bob[q] = tuple(embed_qubit_op(single_b[int(c)], k + 1, m)
                       for k, c in enumerate(q))
    return alice, bob


def ideal_strategy(n: int) -> Strategy:
    """The reference strategy reaching the Tsirelson value 2*sqrt(2)."""
    b0 = (PAULI_Z + PAULI_X) / math.sqrt(2)
    b1 = (PAULI_Z - PAULI_X) / math.sqrt(2)
    alice, bob = _local_tables(n, (PAULI_X, PAULI_Z), (b0, b1))
    dim = 1 << (n // 2)
    return Strategy(n=n, dim_a=dim, dim_b=dim, state=ideal_state(n),
                    alice_obs=alice, bob_obs=bob)


def noisy_strategy(n: int, noise: NoiseSpec) -> Strategy:
    """Ideal strategy deformed by one of the supported noise models.

    bob-rotation conjugates both of Bob's one-qubit observables on every
    pair by exp(-i eta sigma_y / 2); partial-entanglement keeps the ideal
    measurements but replaces each pair state by the cos/sin weighted
    superposition cos(theta)|0,+> + sin(theta)|1,->.
    """
    if noise.model == "none":
        return ideal_strategy(n)
    dim = 1 << (n // 2)
    if noise.model == "bob-rotation":
        eta = noise.param
        rot = np.array([[math.cos(eta / 2), -math.sin(eta / 2)],
                        [math.sin(eta / 2), math.cos(eta / 2)]], dtype=complex)
        b0 = rot @ ((PAULI_Z + PAULI_X) / math.sqrt(2)) @ rot.conj().T
        b1 = rot @ ((PAULI_Z - PAULI_X) / math.sqrt(2)) @ rot.conj().T
        alice, bob = _local_tables(n, (PAULI_X, PAULI_Z), (b0, b1))
        return Strategy(n=n, dim_a=dim, dim_b=dim, state=ideal_state(n),
                        alice_obs=alice, bob_obs=bob)
    # partial entanglement: same measurements, skewed pair state
    theta = noise.param
    s = 1 / math.sqrt(2)
    pair = np.array([[math.cos(theta) * s, math.cos(theta) * s],
                     [math.sin(theta) * s, -math.sin(theta) * s]], dtype=complex)
    state = np.ones((1, 1), dtype=complex)
    for _ in range(n // 2):
        state = np.einsum("ij,ab->iajb", state, pair)
        state = state.reshape(state.shape[0] * 2, -1)
    b0 = (PAULI_Z + PAULI_X) / math.sqrt(2)
    b1 = (PAULI_Z - PAULI_X) / math.sqrt(2)
    alice, bob = _local_tables(n, (PAULI_X, PAULI_Z), (b0, b1))
    return Strategy(n=n, dim_a=dim, dim_b=dim, state=state.reshape(-1),
                    alice_obs=alice, bob_obs=bob)


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
    tables = []
    for dim in (dim_a, dim_b):
        table = {}
        for q in bits.all_strings(m):
            u = haar_unitary(dim, rng)
            fam = []
            for _ in range(m):
                signs = rng.choice([-1.0, 1.0], size=dim)
                fam.append((u * signs) @ u.conj().T)
            table[q] = tuple(fam)
        tables.append(table)
    return Strategy(n=n, dim_a=dim_a, dim_b=dim_b, state=state,
                    alice_obs=tables[0], bob_obs=tables[1])


def validate(strategy: Strategy) -> StrategyDiagnostics:
    """Worst residuals for Hermiticity, unitarity, same-question
    commutation, and state normalization."""
    herm, unit, comm = [0.0], [0.0], [0.0]
    for table in (strategy.alice_obs, strategy.bob_obs):
        for family in table.values():
            for i, obs in enumerate(family):
                herm.append(hermiticity_residual(obs))
                unit.append(unitarity_residual(obs))
                comm.extend(commutation_residual(obs, other) for other in family[i + 1:])
    normres = abs(float(np.linalg.norm(strategy.state)) - 1.0)
    # np.max, unlike the builtin max, keeps a NaN residual
    return StrategyDiagnostics(hermiticity=float(np.max(herm)), unitarity=float(np.max(unit)),
                               commutation=float(np.max(comm)), normalization=normres)


def _observables(strategy: Strategy, party: str, question: str) -> tuple:
    if party == "A":
        return strategy.alice_obs[bits.check(question)]
    if party == "B":
        return strategy.bob_obs[bits.check(question)]
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


def joint_projector(strategy: Strategy, party: str, question: str,
                    answer: str) -> np.ndarray:
    """Projector onto a full answer string for one player's question.

    Product over k of (I + (-1)^{answer_k} M_k) / 2, which is an honest
    projector because observables within one question family commute.
    """
    family = _observables(strategy, party, question)
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
        for party, qidx, answers, col0 in (("A", qa_idx, x, 0),
                                           ("B", qb_idx, y, m)):
            for q in np.unique(qidx[lo:hi]):
                rows = np.nonzero(qidx[lo:hi] == q)[0]
                family = _observables(strategy, party, bits.from_int(int(q), m))
                for k in range(m):
                    if party == "A":
                        moved = np.einsum("ij,rjc->ric", family[k], states[rows])
                    else:
                        moved = np.einsum("ij,rcj->rci", family[k], states[rows])
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
    def matrices(table):
        return {q: [_mat_to_pairs(o) for o in table[q]] for q in sorted(table)}

    doc = {
        "n": strategy.n,
        "dim_A": strategy.dim_a,
        "dim_B": strategy.dim_b,
        "state": _vec_to_pairs(strategy.state),
        "alice_obs": matrices(strategy.alice_obs),
        "bob_obs": matrices(strategy.bob_obs),
    }
    return jsonio.dumps(doc, float_digits=17)


def _vec_to_pairs(v: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in v]


def _mat_to_pairs(m: np.ndarray) -> list:
    return _vec_to_pairs(m.reshape(-1))  # row-major


def _pairs_to_array(pairs, shape) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs])
    return flat.reshape(shape)


def strategy_from_text(text: str) -> Strategy:
    doc = jsonio.loads(text)
    try:
        for key in ("n", "dim_A", "dim_B"):
            if type(doc[key]) is not int:  # also rejects bool and float
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        n = doc["n"]
        da, db = doc["dim_A"], doc["dim_B"]
        state = _pairs_to_array(doc["state"], (-1,))
        alice = {q: tuple(_pairs_to_array(m, (da, da)) for m in fams)
                 for q, fams in doc["alice_obs"].items()}
        bob = {q: tuple(_pairs_to_array(m, (db, db)) for m in fams)
               for q, fams in doc["bob_obs"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from exc
    return Strategy(n=n, dim_a=da, dim_b=db, state=state,
                    alice_obs=alice, bob_obs=bob)


def save_strategy(strategy: Strategy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(strategy_to_text(strategy))


def load_strategy(path) -> Strategy:
    with open(path, encoding="utf-8") as fh:
        return strategy_from_text(fh.read())
