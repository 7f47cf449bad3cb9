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
import mmap
import os
import stat
from collections.abc import Iterator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from . import bits, jsonio
from .linalg import (
    PAULI_X,
    PAULI_Z,
    VALIDATION_TOL,
    branch_tree,
    commutation_residual,
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


class Strategy:
    """Shared state plus per-question observable stacks for both players.

    ``alice[q, k]`` is Alice's observable for subtest k + 1 at the question
    with big-endian integer index q, so ``alice`` has shape
    (2^(n/2), n/2, dim_a, dim_a); ``bob`` likewise with dim_b.  The state
    is A-major: index = i_A * dim_b + i_B.  Each array is stored as
    float64 when every imaginary part is bitwise +0.0, and as complex128
    otherwise: a -0.0 imaginary part keeps it complex, so a loaded
    document writes back byte for byte.  Every array is read-only, a
    strategy's attributes cannot be set, and strategies compare and hash
    by identity.

    Each player's observables fall into classes of bit-identical matrices,
    and a strategy stores, per player, one member of each class as a
    (count, d, d) stack in class order and the class of each slot,
    flattened to [q * n/2 + k] (``_observables``); nothing else stands for
    its observables.  ``Strategy(state, alice, bob)`` copies the arrays it
    is given and groups each player once (``_classes``); the loader and
    ``noisy_strategy`` hand over the classes they know (``_of_classes``):
    an n = 12 noise-model strategy holds 12 distinct matrices per player
    among 384 slots.  ``validate``, ``expectation_table`` (through
    ``_distinct_at``), ``strategy_to_text`` and ``save_strategy`` read only
    these.  ``alice`` and ``bob`` are gathered from them on first read, by
    one index of the distinct stack (a reshape, copying nothing, where
    every slot is a class of its own), and kept; a ``value`` run never
    reads them.  ``Strategy(...)`` starts them as its copies of the stacks
    it was given, which hold the bits a gather would.
    """

    def __init__(self, state, alice, bob):
        stacks = {}
        for name, obs in (("alice", alice), ("bob", bob)):
            obs = _frozen(obs)
            m = obs.shape[1] if obs.ndim == 4 else 0
            if m < 1 or obs.shape[0] != 1 << m or obs.shape[2] != obs.shape[3]:
                raise ValueError(f"{name} must have shape (2^m, m, d, d) with m >= 1, "
                                 f"got {obs.shape}")
            stacks[name] = obs
        if stacks["alice"].shape[1] != stacks["bob"].shape[1]:
            raise ValueError("alice and bob must answer questions of the same length")
        self._hold(state, m, tuple(_classes(obs.reshape(-1, *obs.shape[2:]))
                                   for obs in stacks.values()))
        self.__dict__.update(stacks)

    @classmethod
    def _of_classes(cls, state, half: int, observables: tuple) -> Strategy:
        """A strategy over each player's distinct observables and classes,
        which become ``_observables`` uncopied; ``alice`` and ``bob`` are
        left ungathered."""
        strategy = object.__new__(cls)
        strategy._hold(state, half, observables)
        return strategy

    def _hold(self, state, half: int, observables: tuple) -> None:
        for arrays in observables:
            for a in arrays:
                a.setflags(write=False)
        dim_a, dim_b = (distinct.shape[1] for distinct, _ in observables)
        state = _frozen(np.reshape(state, -1))
        if state.size != dim_a * dim_b:
            raise ValueError("state length does not match dim_a * dim_b")
        self.__dict__.update(state=state, half=half, dim_a=dim_a, dim_b=dim_b,
                             _observables=observables)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return 2 * self.half

    @cached_property
    def alice(self) -> np.ndarray:
        return self._gathered(0)

    @cached_property
    def bob(self) -> np.ndarray:
        return self._gathered(1)

    def _gathered(self, player: int) -> np.ndarray:
        """The dense stack of Alice (player 0) or Bob (player 1), gathered
        from the player's distinct observables; ``alice`` and ``bob`` keep
        it."""
        distinct, cls = self._observables[player]
        # classes are numbered in slot order, so where each slot is its own
        # class ``cls`` is every index, ascending
        stack = distinct if len(distinct) == len(cls) else distinct[cls]
        stack = stack.reshape(1 << self.half, self.half, *distinct.shape[1:])
        stack.setflags(write=False)
        return stack

    def _distinct_at(self, player: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct observables of Alice (player 0) or Bob (player 1)
        at subtest k + 1, one member of each of the player's classes there
        in class order as a (count, d, d) stack, and the index of each
        question's observable among them."""
        distinct, cls = self._observables[player]
        present, index = np.unique(cls[k::self.half], return_inverse=True)
        return distinct[present], index

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
    """A read-only C-ordered copy of ``a``, float64 or complex128 (``_narrowed``)."""
    a = np.asarray(a)
    a = _narrowed(a if a.dtype.kind in "biuf" else a.astype(complex, copy=False))
    a = np.array(a, dtype=complex if a.dtype.kind == "c" else float, order="C")
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

    A player's observable at [q, k] is the one-qubit operator for bit k+1
    of q on qubit k+1, so the strategy is built from its classes
    (``_embedded``): operator 0 at qubit k+1 is class k and operator 1
    there class n-1-k, the first-appearance numbering of ``_classes``.
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
    k = np.arange(m)
    cls = np.where(bits.bit_table(m), n - 1 - k, k).reshape(-1)
    return Strategy._of_classes(state, m, tuple((_embedded(m, single), cls)
                                                for single in ((PAULI_X, PAULI_Z), bob_pair)))


def _embedded(m: int, single) -> np.ndarray:
    """(2m, 2^m, 2^m) stack of single[0] on qubits 1..m, then single[1]
    on qubits m..1, with qubit 1 the most significant index bit.

    Per qubit, one broadcast product embeds both operators: each entry is
    an operator entry times 1.0 or 0.0 of the identity on the other
    qubits, so a zero keeps the operator entry's sign, as in np.kron with
    identity factors.
    """
    single = np.asarray(single, dtype=float)
    dim = 1 << m
    stack = np.empty((2 * m, dim, dim))
    for k in range(m):
        hi, lo = 1 << k, 1 << (m - k - 1)  # the qubits before and after qubit k+1
        # axes [s, i, a, c, j, b, d]: row (i, a, c) and column (j, b, d) split
        # at qubit k+1, single[s] on (a, b) and the identity on (i c, j d)
        embedded = single.reshape(2, 1, 2, 1, 1, 2, 1) * np.eye(hi * lo).reshape(
            hi, 1, lo, hi, 1, lo)
        stack[[k, 2 * m - 1 - k]] = embedded.reshape(2, dim, dim)
    return stack


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


#: bytes of one block of observables whose residuals ``validate`` takes
#: in one call: all of a noise model's distinct matrices at n <= 8, where
#: per-call overhead is most of the cost, and 16 of a random strategy's
#: complex 16 x 16 ones; with 256 KB blocks some processes took 1.4-1.6
#: times as long on a random n = 8 strategy
VALIDATE_BLOCK_BYTES = 1 << 16


def _classes(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of bit-identical matrices in a (count, d, d) stack: one
    member of each class, in class order, as a stack (``flat`` itself
    where no two matrices are equal), and the class of each matrix.

    Matrices whose first entries differ in their bits differ, so where
    every first entry is distinct (as in a random strategy) each matrix
    is its own class, and no matrix is hashed.  Classes are numbered in
    order of first appearance.  ``Strategy(...)`` groups each player's
    stack once, at construction, into its ``_observables``; the loader
    groups only its distinct matrix texts (``_stack_from_doc``: 12 per
    player of an n = 12 noise-model file, not 384), and a noise model is
    built from its classes, never grouped (``noisy_strategy``).
    """
    firsts = flat.reshape(len(flat), -1).view(np.int64)[:, 0]  # a complex entry's real part
    if len(set(firsts.tolist())) == len(flat):
        return flat, np.arange(len(flat))
    ids = {}
    cls = np.array([ids.setdefault(o.tobytes(), len(ids)) for o in flat])
    members = np.empty(len(ids), dtype=np.int64)
    members[cls] = np.arange(len(flat))  # any member: they share every bit
    return flat[members], cls


def validate(strategy: Strategy) -> StrategyDiagnostics:
    """Worst residuals for Hermiticity, unitarity, same-question
    commutation, and state normalization.

    Each residual is taken once per bitwise-distinct input.  A player's
    observables fall into classes of bit-identical matrices, and every
    strategy stores one member of each, in class order, and each slot's
    class from its construction (``Strategy._observables``, which
    ``expectation_table`` reads too), so no matrix is hashed and no dense
    stack is built here: ``validate`` of an n = 12 noise-model strategy,
    built from its flags or loaded, takes about 5 ms (one BLAS thread).
    Hermiticity and unitarity are taken on each class's member, and the
    commutator of each pair (k, j) once per distinct (class of k, class
    of j) combination among the questions, both in blocks of
    ``VALIDATE_BLOCK_BYTES``.
    Bit-identical inputs give bit-identical residuals, so every maximum,
    and every field, is the one a loop over every question gives.
    Repeats are the rule for a local strategy: an honest or locally noisy
    player's observable for pair k depends on question bit k alone, so a
    noise model holds 2m distinct matrices per player among m 2^m.
    """
    m = strategy.half
    herm, unit, comm = [0.0], [0.0], [0.0]
    # non-finite entries give NaN or inf residuals, which fail below; the
    # arithmetic that produces them is expected, not worth a warning
    with np.errstate(invalid="ignore", over="ignore"):
        for distinct, cls in strategy._observables:
            block = max(1, VALIDATE_BLOCK_BYTES // distinct[0].nbytes)
            for lo in range(0, len(distinct), block):
                obs = distinct[lo:lo + block]
                herm.append(hermiticity_residual(obs))
                unit.append(unitarity_residual(obs))
            cols = cls.reshape(-1, m).T.tolist()  # cols[k][q]: the class of [q, k]
            # the distinct (class of k, class of j) combinations of each pair
            combos = [c for k in range(m) for j in range(k + 1, m)
                      for c in set(zip(cols[k], cols[j]))]
            first, second = np.array(combos, dtype=np.int64).reshape(-1, 2).T
            for lo in range(0, len(combos), block):
                comm.append(commutation_residual(distinct[first[lo:lo + block]],
                                                 distinct[second[lo:lo + block]]))
    normres = abs(float(np.linalg.norm(strategy.state)) - 1.0)
    # np.max, unlike the builtin max, keeps a NaN residual
    return StrategyDiagnostics(hermiticity=float(np.max(herm)), unitarity=float(np.max(unit)),
                               commutation=float(np.max(comm)), normalization=normres)


#: entries of one round chunk's stack of reduced operators: 8 bytes each
#: for a real strategy and state, 16 for a complex one.  A chunk holds as
#: many rounds as one d_b x d_b operator per round allows, and its table of
#: Bob's answer masses has at most one row per round
#: (``_questions_per_gemm``).
SAMPLE_CHUNK_ENTRIES = 1 << 22

#: entries of one batch of branch trees, 2 MB of float64.  With sides of
#: 2^(n/2) dimensions every question's tree shares one batch at n <= 8
#: (2^16 entries), where per-call overhead is most of the cost, and each
#: tree has a batch of its own at n = 12 (2^18 entries), where batching
#: more would only hold more memory
TREE_BATCH_ENTRIES = 1 << 18


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
        # flat index of entry [which, ans] of levels[k]; 2 * it is that of
        # [which, 2 * ans] one level down, whose rows are twice as long
        flat = which * levels[k].shape[1] + ans
        p0 = np.take(levels[k + 1], 2 * flat) / np.take(levels[k], flat)
        ans = 2 * ans + (uniforms[:, k] >= p0)
    return ans


def _compact(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of integer keys in [0, size), ascending, and
    the index of each key among them: one pass over a dense table, no sort."""
    index = np.zeros(size, dtype=np.int64)
    index[keys] = 1
    distinct = np.flatnonzero(index)
    np.cumsum(index, out=index)
    return distinct, index[keys] - 1


def _answer_masses(reduced: np.ndarray, conj_projectors: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """masses[r, y] = ||Phi_r Q_y^T||^2 = Re sum_jk S_r[j, k] Q_y[j, k].

    S_r = Phi_r^dag Phi_r are reduced operators on Bob's side and
    ``conj_projectors`` the complex conjugates of his answer projectors
    Q_y; the A-major state puts Bob's operator on the right as Q^T, so the
    sum pairs S with Q itself, not its transpose.  One real GEMM: (re, im)
    . (re, -im) is the real part of the product, so both factors take the
    dtype they promote to before the float view.
    """
    return np.matmul(
        reduced.astype(conj_projectors.dtype, copy=False).reshape(len(reduced), -1).view(float),
        conj_projectors.reshape(len(conj_projectors), -1).view(float).T, out=out)


def _alice_draws(strategy: Strategy, qa: np.ndarray,
                 uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alice's answers to the questions ``qa``, Bob's reduced operators
    S = (P_{a,x} psi)^dag (P_{a,x} psi) of the drawn (a, x) pairs in
    ascending order, and the index of each round's pair among them.

    The drawn questions go in batches whose trees hold at most
    ``TREE_BATCH_ENTRIES`` entries (or one tree), and each batch's trees
    are dropped before the next is built: one tree per question gives
    every P_{a,x} psi, one einsum her marginals, one walk the answers of
    the batch's rounds, and one stacked product the reduced operators of
    their pairs.
    """
    m = strategy.half
    psi = strategy.state.reshape(strategy.dim_a, strategy.dim_b)
    questions, which = _compact(qa, 1 << m)
    batch = max(1, TREE_BATCH_ENTRIES // (psi.size << m))
    x = np.empty(len(qa), dtype=np.int64)
    pair = np.empty_like(x)
    # room for the drawn (a, x) pairs: one per round, 2^m per question at most
    reduced = np.empty((min(len(qa), len(questions) << m), strategy.dim_b, strategy.dim_b),
                       dtype=np.result_type(psi, strategy.alice))
    count = 0
    for lo in range(0, len(questions), batch):
        group = questions[lo:lo + batch]
        rows = np.flatnonzero((which >= lo) & (which < lo + batch))
        local = which[rows] - lo
        phi = branch_tree(psi, strategy.alice[group].swapaxes(0, 1))  # [x, question]
        flat = phi.reshape(len(phi), len(group), -1).view(float)
        x[rows] = _walk(np.einsum("xqi,xqi->qx", flat, flat), local, uniforms[rows])
        drawn, pair[rows] = _compact(local << m | x[rows], len(group) << m)
        branches = phi[drawn & ((1 << m) - 1), drawn >> m]
        np.matmul(branches.conj().transpose(0, 2, 1), branches,
                  out=reduced[count:count + len(drawn)])
        pair[rows] += count
        count += len(drawn)
    return x, reduced[:count], pair


def _questions_per_gemm(questions: int, pairs: int, rounds: int) -> int:
    """How many of a batch's questions share one GEMM for Bob's answer
    masses, given the pairs drawn in its chunk: all of them while that
    GEMM makes no more (pair, question) products than the batch has
    rounds, else one.

    Every product costs 2^(n/2) d_b^2 multiply-adds.  One GEMM a question
    makes only the drawn (question, pair) combinations, at most one per
    round, but each GEMM is a call of its own and, once large enough for
    OpenBLAS to thread, a thread hand-off of its own.
    """
    return questions if questions * pairs <= rounds else 1


def _distinct(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``_compact(keys, size)``, by a sort where its dense table would
    hold more entries than there are keys."""
    if size > len(keys):
        return np.unique(keys, return_inverse=True)
    return _compact(keys, size)


def _bob_masses(strategy: Strategy, reduced: np.ndarray, batches: list,
                rows: int) -> np.ndarray:
    """The table of Bob's answer masses that ``_bob_draws`` laid out:
    ``rows`` rows, filled batch by batch.

    Each batch is (its questions, its run width, its drawn (run, pair)
    combinations in that order).  Per run, one real GEMM of the operators
    of the run's drawn pairs against all of its projectors gives the masses
    of every such (pair, question), its rows in that order.
    """
    m, db = strategy.half, strategy.dim_b
    eye = np.eye(db, dtype=reduced.dtype)
    table = np.empty((rows, 1 << m))
    count = 0
    for group, width, combos in batches:
        run, combo_pair = np.divmod(combos, len(reduced))
        bounds = np.searchsorted(run, np.arange(len(group) // width + 1))
        proj = branch_tree(eye, strategy.bob[group].swapaxes(0, 1))  # [y, question]
        np.conjugate(proj, out=proj)
        # [run, (question, y)]: a copy, and the tree dropped, only where a
        # run holds more than one question
        proj = proj.swapaxes(0, 1).reshape(len(group) // width, -1, db, db)
        masses = table[count:count + len(combos) * width].reshape(len(combos), width << m)
        for j, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            # the run's drawn pairs: every drawn pair, or a copy of a subset
            ops = reduced if stop - start == len(reduced) else reduced[combo_pair[start:stop]]
            _answer_masses(ops, proj[j], out=masses[start:stop])
        count += len(masses) * width
    return table


def _bob_draws(strategy: Strategy, reduced: np.ndarray, qb: np.ndarray, pair: np.ndarray,
               uniforms: np.ndarray) -> np.ndarray:
    """Bob's answers to the questions ``qb``, given the reduced operator
    ``reduced[pair[r]]`` of round r's (a, x) pair.

    His projector trees go in batches like Alice's branch trees, and a
    batch's questions go in runs of ``_questions_per_gemm``: all of them,
    or one each.  A first pass lays out one table, with a row for each
    question of a run and each pair drawn with any of them, and finds
    each round's row; ``_bob_masses`` then fills the table, and one walk
    draws every round's answer.  The layout comes first so the table is
    allocated once, at its size: a table per batch, joined for the walk,
    made n = 10 touch megabytes of fresh pages per chunk.
    """
    m, db = strategy.half, strategy.dim_b
    questions, which = _compact(qb, 1 << m)
    batch = max(1, TREE_BATCH_ENTRIES // (db * db << m))
    row = np.empty_like(which)  # each round's row of the table
    batches = []
    count = 0
    for lo in range(0, len(questions), batch):
        group = questions[lo:lo + batch]
        rounds = np.flatnonzero((which >= lo) & (which < lo + batch))
        local = which[rounds] - lo
        width = _questions_per_gemm(len(group), len(reduced), len(rounds))
        # the drawn (run, pair) combinations in that order
        combos, combo = _distinct(local // width * len(reduced) + pair[rounds],
                                  len(group) // width * len(reduced))
        row[rounds] = count + combo * width + local % width
        batches.append((group, width, combos))
        count += len(combos) * width
    return _walk(_bob_masses(strategy, reduced, batches, count), row, uniforms)


def born_answers(strategy: Strategy, qa_idx: np.ndarray, qb_idx: np.ndarray,
                 uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Answers of many rounds drawn from the Born rule, one bit at a time.

    uniforms[r, j] decides the j-th bit of round r (Alice's m bits first,
    most significant first), against masses that do not depend on which
    other rounds share its chunk or batch, so neither grouping changes the
    draws.  Per chunk of rounds, one pass per player: Alice's batched
    branch trees give her marginals, her answers and, for each drawn
    (a, x), Bob's reduced operator (``_alice_draws``); his batched
    projector trees and one real GEMM per batch, or per question where
    the batch has fewer rounds than (pair, question) products, give his
    conditional answer masses, and one walk his answers
    (``_bob_draws``).  With sides of 2^(n/2) dimensions every drawn
    question shares one tree batch at n <= 8, so Alice also takes one
    walk.  Returns the big-endian integer answers (x, y).
    """
    m, db = strategy.half, strategy.dim_b
    x = np.zeros(len(qa_idx), dtype=np.int64)
    y = np.zeros_like(x)
    chunk = max(1, SAMPLE_CHUNK_ENTRIES // (db * db))
    for lo in range(0, len(x), chunk):
        span = slice(lo, lo + chunk)
        x[span], reduced, pair = _alice_draws(strategy, qa_idx[span], uniforms[span, :m])
        y[span] = _bob_draws(strategy, reduced, qb_idx[span], pair, uniforms[span, m:])
    return x, y


# ---------------------------------------------------------------------------
# serialization

def strategy_to_text(strategy: Strategy) -> str:
    """Serialize to one line of JSON text, byte for byte the text that
    ``json.dumps`` writes for the document's lists of [re, im] pairs.

    Each float is written as its shortest round-trip ``repr``, which pins
    down the double exactly (-0.0 included), so a load of the dump
    reproduces every array bit for bit.  A non-finite entry raises
    ValueError, as ``json.dumps(..., allow_nan=False)`` does.
    """
    return "".join(_document(strategy))


def _document(strategy: Strategy) -> Iterator[str]:
    """The pieces of ``strategy_to_text``, in order, one question a piece.

    Each of a player's distinct observables (``Strategy._observables``)
    is formatted once, and every question that holds one of its class
    repeats that text: a noise model's matrices are formatted 2m times per
    player, not m 2^m.
    """
    m = strategy.half
    yield (f'{{"n": {strategy.n}, "dim_A": {strategy.dim_a}, "dim_B": {strategy.dim_b}, '
           f'"state": {_pairs_text(strategy.state)}')
    for key, (distinct, cls) in zip(("alice_obs", "bob_obs"), strategy._observables):
        texts = [_pairs_text(obs) for obs in distinct]
        yield f', "{key}": {{'
        for i, (q, family) in enumerate(zip(bits.all_strings(m), cls.reshape(-1, m).tolist())):
            yield f'{", " if i else ""}"{q}": [{", ".join(texts[c] for c in family)}]'
        yield "}"
    yield "}\n"


def _pairs_text(a: np.ndarray) -> str:
    """``json.dumps`` of [[re, im], ...] over the entries of an array,
    row-major; a real array is written with +0.0 imaginary parts."""
    pairs = np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2)
    return json.dumps(pairs.tolist(), allow_nan=False)


def _pairs(obj, what: str) -> np.ndarray:
    """The float array of an array of [re, im] number pairs, its last axis
    the pair: from a float array of ``jsonio.loads`` (or its ``Rows``), or
    nested lists (possibly holding such arrays) where a payload was not all
    numbers; ``jsonio.loads`` reads every number in an array as a float."""
    try:
        raw = np.asarray(obj)  # no dtype: a float dtype would parse "1.0" and map null to nan
        ok = raw.dtype.kind == "f" and raw.shape[-1:] == (2,) and not _holds_bool(obj)
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise ValueError(f"{what} must hold nested lists of [re, im] number pairs")
    return np.ascontiguousarray(raw, dtype=float)


def _holds_bool(obj) -> bool:
    """Whether nested lists hold a JSON boolean, which numpy would read as 0 or 1."""
    if isinstance(obj, list):
        return any(map(_holds_bool, obj))
    return isinstance(obj, bool)


def _stack_from_doc(families, what: str, m: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """One player's distinct observables from its question map, as a
    (count, dim, dim) stack in class order, and the class of each slot
    [q * m + k]: the ``Strategy._observables`` of the player.

    Each question's payload is popped from the map.  ``jsonio.Rows`` give
    their rows and document ids; any other payload (a parse of the whole
    payload, or lists) gives rows that are all new.  The first row of each
    id, and each new row, is a distinct row.  The stack is float64 unless
    a distinct row has an imaginary part whose bits are not +0.0.  It
    holds the distinct rows alone, and grows in place a question at a
    time (``ndarray.resize`` reallocates): each is written once, narrowed
    to the stack's dtype as a view, and then dropped, so each payload's
    block is freed once its rows are written and the parsed and the
    stacked copy of a side never both exist in full.  ``_classes`` of the
    stack merges the distinct rows of bit-identical matrices (texts such
    as "1.0" and "1.00"); numbered by their first slots, which come in
    slot order, its classes are those ``_classes`` of the dense stack
    gives.
    """
    if not isinstance(families, dict):
        raise ValueError(f"{what} must be an object keyed by question")
    questions = sorted(families)
    distinct, counts = [], []  # each distinct row; their count after each question
    row_of = []  # [q * m + k] -> its distinct row
    index = {}  # document id -> its distinct row
    for q in questions:
        payload = families.pop(q)
        if isinstance(payload, jsonio.Rows):
            rows, ids = payload.rows, payload.ids  # float64 rows of one shape
        else:
            rows = _pairs(payload, what)
            ids = [None] * len(rows)
        if len(rows) != m or rows[0].shape != (dim * dim, 2):
            break
        for row, ident in zip(rows, ids):
            j = len(distinct) if ident is None else index.setdefault(ident, len(distinct))
            if j == len(distinct):
                distinct.append(row)
            row_of.append(j)
        counts.append(len(distinct))
    else:
        # the count's bit length is compared first, so a huge n in the document
        # builds neither the integer 2^m nor more question strings than it holds
        if len(questions).bit_length() == m + 1 and questions == list(bits.all_strings(m)):
            real = not any(row[:, 1].view(np.int64).any() for row in distinct)
            stack = np.empty((0, dim, dim), dtype=float if real else complex)
            for count in counts:
                written = len(stack)
                stack.resize((count, dim, dim), refcheck=False)  # a no-op where no row is new
                for j in range(written, count):
                    row, distinct[j] = distinct[j], None
                    stack[j] = (row[:, 0] if real else row.view(complex)[:, 0]).reshape(dim, dim)
            # the stack itself, unless two distinct texts spell one matrix
            distinct, cls = _classes(stack)
            return distinct, cls[row_of]
    raise ValueError(f"{what} must hold {m} flat {dim}x{dim} matrices "
                     f"for each length-{m} question")


def strategy_from_text(text) -> Strategy:
    """The strategy a document writes, given as text or as its UTF-8 bytes
    (``bytes``, or a read-only ``mmap``), which ``jsonio.loads`` reads in
    place.  Raises ValueError on a malformed document."""
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
        # a view of the real parts where every imaginary part is +0.0
        state = _narrowed(_pairs(doc["state"], "state").view(complex)[..., 0])
        if state.shape != (da * db,):
            raise ValueError("state must hold dim_A * dim_B amplitudes")
        # popped, so each side's parsed families are freed once stacked
        alice = _stack_from_doc(doc.pop("alice_obs"), "alice_obs", n // 2, da)
        bob = _stack_from_doc(doc.pop("bob_obs"), "bob_obs", n // 2, db)
        return Strategy._of_classes(state, n // 2, (alice, bob))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from exc


def save_strategy(strategy: Strategy, path) -> None:
    """Write ``strategy_to_text`` to ``path``, one question at a time.  A
    non-finite entry raises ValueError before the file is opened, so no
    partial document is left."""
    arrays = (strategy.state, *(distinct for distinct, _ in strategy._observables))
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("Out of range float values are not JSON compliant")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_document(strategy))


def load_strategy(path) -> Strategy:
    """The strategy in the file at ``path``, parsed from the file's bytes
    with no decoded copy of the document: a regular non-empty file is
    mapped read-only, anything else (a pipe such as /dev/stdin, an empty
    file) read whole."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not (stat.S_ISREG(info.st_mode) and info.st_size):
            return strategy_from_text(fh.read())
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as doc:
            return strategy_from_text(doc)
