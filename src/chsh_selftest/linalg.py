"""Dense linear algebra shared by the rest of the package.

Everything here is a pure function on numpy arrays; inputs are never
mutated.  Matrices are float64 or complex128, and each result takes the
dtype its operands promote to: a strategy is stored real when every
imaginary part is bitwise +0.0 (a -0.0 stays complex, so its document
writes back unchanged), and real operands then run in real arithmetic.
States on a bipartite system use A-major ordering: index = i_A * dim_B + i_B.
"""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

#: eigenvalues smaller than this in magnitude are treated as +ZERO_TOL
#: when an operator is sign-normalized
ZERO_TOL = 1e-10

#: residual ceiling for Hermiticity, unitarity, commutation and
#: normalization; a strategy within it is valid and every stage accepts it
VALIDATION_TOL = 1e-8


def dagger(m: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of each matrix in a (..., d, d) stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor is the most significant."""
    if not factors:
        raise ValueError("tensor of no factors")
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def embed_qubit_op(op: np.ndarray, k: int, num_qubits: int) -> np.ndarray:
    """Embed a one-qubit operator at position k of a num_qubits register.

    Position is 1-indexed; qubit 1 is the most significant index bit.
    """
    if not 1 <= k <= num_qubits:
        raise ValueError(f"qubit {k} out of range for {num_qubits} qubits")
    left = np.eye(1 << (k - 1))
    right = np.eye(1 << (num_qubits - k))
    return tensor(left, op, right)


def hermiticity_residual(m: np.ndarray) -> float:
    """Largest entrywise deviation of m, or of a (..., d, d) stack, from its adjoint."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def unitarity_residual(m: np.ndarray) -> float:
    """Largest entrywise deviation of m^dag m from the identity, over a stack too."""
    m = np.asarray(m)
    return float(np.max(np.abs(dagger(m) @ m - np.eye(m.shape[-1]))))


def commutation_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise magnitude of the commutator [a, b], over stacks too."""
    return float(np.max(np.abs(a @ b - b @ a)))


def sign_normalize(m: np.ndarray) -> np.ndarray:
    """Hermitian unitary with the same eigenvectors as m and +-1 eigenvalues.

    m must be Hermitian to within VALIDATION_TOL; it is symmetrized to
    (m + m^dag)/2 before diagonalizing.  Eigenvalues with magnitude below
    ZERO_TOL are treated as +ZERO_TOL, so a (near-)null direction maps to
    +1 rather than producing a division blow-up or an arbitrary sign.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not hermiticity_residual(m) <= VALIDATION_TOL:  # a NaN residual fails too
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2)
    signs = np.where(np.abs(vals) < ZERO_TOL, 1.0, np.sign(vals))
    return (vecs * signs) @ dagger(vecs)


def apply_on_a(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply (m tensor I) to states shaped (..., dim_a, dim_b)."""
    return m @ w


def apply_on_b(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply (I tensor m) to states shaped (..., dim_a, dim_b)."""
    return w @ m.T


def branch_tree(root: np.ndarray, family: np.ndarray,
                flips: np.ndarray | None = None) -> np.ndarray:
    """The 2^m leaves of the tree that splits ``root`` by one observable of
    ``family`` at a time, indexed by the big-endian answer.

    Child 0 of a node is (I + M_k)/2 applied to it from the left and child 1
    the remainder, then ``flips[k]`` when given.  Without flips these are
    the steps of a sequential collapse: on a state matrix the leaves are
    the branches P_x psi, on the identity the answer projectors.  With
    Z'_k as M_k and X'_k as the flips, the leaves on the identity are the
    branch stack of the swap isometry.  The tree grows in place in the leaf
    array: the nodes of level k sit at every 2^(m-k)-th leaf, whose dtype
    is that of root, family and flips together.
    """
    m = len(family)
    dtype = np.result_type(root, family, *(() if flips is None else (flips,)))
    leaves = np.empty((1 << m, *root.shape), dtype=dtype)
    leaves[0] = root
    for k, obs in enumerate(family):
        step = 1 << (m - k)
        nodes, ones = leaves[::step], leaves[step // 2::step]
        zero = obs @ nodes
        zero += nodes
        zero *= 0.5
        np.subtract(nodes, zero, out=ones)
        if flips is not None:
            ones[...] = flips[k] @ ones
        nodes[...] = zero
    return leaves


def pair_expectation(m_a: np.ndarray, m_b: np.ndarray, psi: np.ndarray,
                     dim_a: int, dim_b: int) -> float:
    """Real part of <psi| m_a tensor m_b |psi>."""
    mat = psi.reshape(dim_a, dim_b)
    return float(np.vdot(mat, m_a @ mat @ m_b.T).real)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase convention so the distribution is exactly Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
