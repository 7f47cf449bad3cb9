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

import json
import math
from dataclasses import dataclass

import numpy as np

from . import bits, jsonio
from .linalg import (
    PAULI_X,
    PAULI_Z,
    VALIDATION_TOL,
    branch_tree,
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


@dataclass(frozen=True, eq=False)
class Strategy:
    """Shared state plus per-question observable stacks for both players.

    ``alice[q, k]`` is Alice's observable for subtest k + 1 at the question
    with big-endian integer index q, so ``alice`` has shape
    (2^(n/2), n/2, dim_a, dim_a); ``bob`` likewise with dim_b.  The state
    is A-major: index = i_A * dim_b + i_B.  n, dim_a and dim_b are read off
    the shapes.  Each array is stored as float64 when every imaginary part
    is bitwise +0.0, and as complex128 otherwise: a -0.0 imaginary part
    keeps it complex, so a loaded document writes back byte for byte.  The
    arrays are copied and marked read-only on construction (the loader
    hands its own arrays over uncopied); strategies compare and hash by
    identity.
    """

    state: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        self._freeze(copy=True)

    @classmethod
    def _adopt(cls, state: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> Strategy:
        """A strategy over arrays that their builder hands over and no longer
        holds: they are checked and marked read-only, not copied."""
        strategy = object.__new__(cls)
        for name, a in (("state", state), ("alice", alice), ("bob", bob)):
            object.__setattr__(strategy, name, a)
        strategy._freeze(copy=False)
        return strategy

    def _freeze(self, copy: bool) -> None:
        for name in ("alice", "bob"):
            obs = _frozen(getattr(self, name), copy)
            m = obs.shape[1] if obs.ndim == 4 else 0
            if m < 1 or obs.shape[0] != 1 << m or obs.shape[2] != obs.shape[3]:
                raise ValueError(f"{name} must have shape (2^m, m, d, d) with m >= 1, "
                                 f"got {obs.shape}")
            object.__setattr__(self, name, obs)
        if self.alice.shape[1] != self.bob.shape[1]:
            raise ValueError("alice and bob must answer questions of the same length")
        state = _frozen(np.reshape(self.state, -1), copy)
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


def _frozen(a, copy: bool) -> np.ndarray:
    a = np.asarray(a)
    a = _narrowed(a if a.dtype.kind in "biuf" else a.astype(complex, copy=False))
    dtype = complex if a.dtype.kind == "c" else float
    a = np.array(a, dtype=dtype, order="C") if copy else np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _narrowed(a: np.ndarray) -> np.ndarray:
    """The real part of a complex128 array whose every imaginary part is
    bitwise +0.0 (a view), else the array itself.

    Comparing bit patterns, not values, keeps an array with a -0.0
    imaginary part complex, and so the sign that its document writes.
    """
    if a.dtype == complex and not a.imag.view(np.int64).any():
        return a.real
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
    idx = np.arange(1 << n // 2)
    signs = np.where(bits.parity(idx[:, None] & idx), -1.0, 1.0)
    return (signs / math.sqrt(1 << n)).reshape(-1)


def _local_stack(m: int, single) -> np.ndarray:
    """(2^m, m, 2^m, 2^m) stack whose entry [q, k] is single[bit k+1 of q]
    acting on qubit k+1, gathered from the 2 m embedded one-qubit operators."""
    embedded = np.array([[embed_qubit_op(op, k + 1, m) for k in range(m)] for op in single])
    return embedded[bits.bit_table(m), np.arange(m)]


_BOB_PAIR = ((PAULI_Z + PAULI_X) / math.sqrt(2), (PAULI_Z - PAULI_X) / math.sqrt(2))


def ideal_strategy(n: int) -> Strategy:
    """The reference strategy reaching the Tsirelson value 2*sqrt(2)."""
    return noisy_strategy(n, NoiseSpec())


def noisy_strategy(n: int, noise: NoiseSpec) -> Strategy:
    """Ideal strategy deformed by one of the supported noise models.

    Every tested pair shares one two-qubit state, and Bob measures both of
    his one-qubit observables conjugated by exp(-i eta sigma_y / 2).
    bob-rotation sets eta; partial-entanglement keeps eta = 0 and replaces
    the pair state by cos(theta)|0,+> + sin(theta)|1,->; none is eta = 0
    on the ideal pair state: the reference strategy ``ideal_strategy(n)``.
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
                    [math.sin(eta / 2), math.cos(eta / 2)]])
    bob_pair = tuple(rot @ b @ rot.T for b in _BOB_PAIR)
    # built in float64, so nothing needs narrowing, and fresh, so not copied
    return Strategy._adopt(state.reshape(-1), _local_stack(m, (PAULI_X, PAULI_Z)),
                           _local_stack(m, bob_pair))


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


#: entries of one round chunk's stack of reduced operators: 8 bytes each
#: for a real strategy and state, 16 for a complex one
SAMPLE_CHUNK_ENTRIES = 1 << 22


def _walk(table: np.ndarray, which: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Answers drawn bit by bit from rows of answer masses.

    Round r reads row ``which[r]`` of ``table``; its bit k is 1 iff
    uniforms[r, k] >= mass(prefix 0) / mass(prefix), where the mass of a
    prefix is the pairwise sum of the leaves under it.
    """
    levels = [table]  # levels[k][:, p] = mass of the k-bit prefix p
    while levels[0].shape[1] > 1:
        levels.insert(0, levels[0][:, ::2] + levels[0][:, 1::2])
    ans = np.zeros(len(which), dtype=np.int64)
    for k in range(len(levels) - 1):
        p0 = levels[k + 1][which, 2 * ans] / levels[k][which, ans]
        ans = 2 * ans + (uniforms[:, k] >= p0)
    return ans


def _answer_masses(reduced: np.ndarray, family: np.ndarray) -> np.ndarray:
    """masses[r, y] = ||Phi_r Q_y^T||^2 = Re sum_jk S_r[j, k] Q_y[j, k].

    S_r = Phi_r^dag Phi_r are reduced operators on Bob's side and Q_y his
    answer projectors for ``family``; the A-major state puts Bob's operator
    on the right as Q^T, so the sum pairs S with Q itself, not its transpose.
    One real GEMM: (re, im) . (re, -im) is the real part of the product,
    so both factors take the dtype they promote to before the float view.
    """
    proj = np.conjugate(branch_tree(np.eye(reduced.shape[-1], dtype=reduced.dtype), family))
    return (reduced.astype(proj.dtype, copy=False).reshape(len(reduced), -1).view(float)
            @ proj.reshape(len(proj), -1).view(float).T)


def born_answers(strategy: Strategy, qa_idx: np.ndarray, qb_idx: np.ndarray,
                 uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Answers of many rounds drawn from the Born rule, one bit at a time.

    uniforms[r, j] decides the j-th bit of round r (Alice's m bits first,
    most significant first), so results do not depend on how rounds are
    grouped.  Per drawn Alice question a, one branch tree gives every
    P_{a,x} psi, hence her marginal and, for each drawn answer x, Bob's
    reduced operator S = (P_{a,x} psi)^dag (P_{a,x} psi).  Per drawn Bob
    question b, one real GEMM gives his conditional answer masses for every
    drawn (a, x) pair.  Returns the big-endian integer answers (x, y).
    """
    m, db = strategy.half, strategy.dim_b
    psi = strategy.state.reshape(strategy.dim_a, db)
    x = np.zeros(len(qa_idx), dtype=np.int64)
    y = np.zeros_like(x)
    chunk = max(1, SAMPLE_CHUNK_ENTRIES // (db * db))
    for lo in range(0, len(x), chunk):
        qa, qb, u = qa_idx[lo:lo + chunk], qb_idx[lo:lo + chunk], uniforms[lo:lo + chunk]
        xs, ys = x[lo:lo + chunk], y[lo:lo + chunk]
        # room for the drawn (a, x) pairs: one per round, 2^m per question at most
        questions, repeats = np.unique(qa, return_counts=True)
        room = int(np.minimum(repeats, 1 << m).sum())
        keys = np.empty(room, dtype=np.int64)
        reduced = np.empty((room, db, db), dtype=np.result_type(psi, strategy.alice))
        count = 0
        for a in questions:
            rows = np.flatnonzero(qa == a)
            phi = branch_tree(psi, strategy.alice[a])
            flat = phi.reshape(len(phi), -1).view(float)
            marginal = np.einsum("xi,xi->x", flat, flat)
            xs[rows] = _walk(marginal[None], np.zeros(len(rows), dtype=np.int64), u[rows, :m])
            drawn = np.unique(xs[rows])
            keys[count:count + len(drawn)] = a << m | drawn
            np.matmul(phi[drawn].conj().transpose(0, 2, 1), phi[drawn],
                      out=reduced[count:count + len(drawn)])
            count += len(drawn)
        pair = np.searchsorted(keys[:count], qa << m | xs)  # keys ascend
        for b in np.unique(qb):
            rows = np.flatnonzero(qb == b)
            used, which = np.unique(pair[rows], return_inverse=True)
            ys[rows] = _walk(_answer_masses(reduced[used], strategy.bob[b]), which, u[rows, m:])
    return x, y


# ---------------------------------------------------------------------------
# serialization

def strategy_to_text(strategy: Strategy) -> str:
    """Serialize to one line of JSON text.

    Each float is written as its shortest round-trip ``repr``, which pins
    down the double exactly (-0.0 included), so a load of the dump
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
    return json.dumps(doc, allow_nan=False) + "\n"


def _to_pairs(a: np.ndarray) -> list:
    """[[re, im], ...] over the entries of an array, row-major; a real
    array is written through a complex copy, with +0.0 imaginary parts."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()


def _from_pairs(obj, what: str) -> np.ndarray:
    """Array from an array of [re, im] number pairs: a float array from
    ``jsonio.loads``, or nested lists (possibly holding such arrays) where
    a payload was not all numbers; ``jsonio.loads`` reads every number in
    an array as a float.  A view of the real parts when every imaginary
    part is +0.0 (``_narrowed``), else complex."""
    try:
        raw = np.asarray(obj)  # no dtype: a float dtype would parse "1.0" and map null to nan
        ok = raw.dtype.kind == "f" and raw.shape[-1:] == (2,) and not _holds_bool(obj)
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise ValueError(f"{what} must hold nested lists of [re, im] number pairs")
    return _narrowed(np.ascontiguousarray(raw, dtype=float).view(complex)[..., 0])


def _holds_bool(obj) -> bool:
    """Whether nested lists hold a JSON boolean, which numpy would read as 0 or 1."""
    if isinstance(obj, list):
        return any(map(_holds_bool, obj))
    return isinstance(obj, bool)


def _stack_from_doc(families, what: str, m: int, dim: int) -> np.ndarray:
    """One player's (2^m, m, dim, dim) observable stack from its question map.

    Each question's payload is popped from the map into a stack that grows
    in place (``ndarray.resize`` reallocates), so the parsed and the stacked
    copy of a side never both exist in full.  Each payload is narrowed on
    its own, so the stack is float64 until a complex payload promotes it,
    and a real side never holds a complex copy.
    """
    if not isinstance(families, dict):
        raise ValueError(f"{what} must be an object keyed by question")
    questions = sorted(families)
    stack = np.empty(0)
    for i, q in enumerate(questions):
        block = _from_pairs(families.pop(q), what)
        if block.shape != (m, dim * dim):
            break
        if block.dtype != stack.dtype == float:  # the first complex payload
            stack = stack.astype(complex)
        stack.resize((i + 1, m, dim * dim), refcheck=False)
        stack[i] = block
    else:
        # the count's bit length is compared first, so a huge n in the document
        # builds neither the integer 2^m nor more question strings than it holds
        if len(questions).bit_length() == m + 1 and questions == list(bits.all_strings(m)):
            return stack.reshape(1 << m, m, dim, dim)
    raise ValueError(f"{what} must hold {m} flat {dim}x{dim} matrices "
                     f"for each length-{m} question")


def strategy_from_text(text: str) -> Strategy:
    try:
        doc = jsonio.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("the document must be a JSON object")
        for key in ("n", "dim_A", "dim_B"):
            if type(doc[key]) is not int:  # also rejects bool and float
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        n, da, db = doc["n"], doc["dim_A"], doc["dim_B"]
        if n < 2 or n % 2 != 0:
            raise ValueError("n must be even and at least 2")
        if min(da, db) < 1:
            raise ValueError(f"dim_A and dim_B must be at least 1, got {da} and {db}")
        state = _from_pairs(doc["state"], "state")
        if state.shape != (da * db,):
            raise ValueError("state must hold dim_A * dim_B amplitudes")
        # popped, so each side's parsed families are freed once stacked
        alice = _stack_from_doc(doc.pop("alice_obs"), "alice_obs", n // 2, da)
        bob = _stack_from_doc(doc.pop("bob_obs"), "bob_obs", n // 2, db)
        return Strategy._adopt(state, alice, bob)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from exc


def save_strategy(strategy: Strategy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(strategy_to_text(strategy))


def load_strategy(path) -> Strategy:
    with open(path, encoding="utf-8") as fh:
        return strategy_from_text(fh.read())
