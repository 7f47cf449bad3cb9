"""Dense complex linear algebra shared by the rest of the package.

Everything here is a pure function on numpy arrays; inputs are never
mutated.  Matrices are complex128.  States on a bipartite system use
A-major ordering: index = i_A * dim_B + i_B.
"""

from __future__ import annotations

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: eigenvalues smaller than this in magnitude are treated as +zero_tol
#: when an operator is sign-normalized
DEFAULT_ZERO_TOL = 1e-10

#: residual ceiling for Hermiticity, unitarity, commutation and
#: normalization; a strategy within it is valid and every stage accepts it
VALIDATION_TOL = 1e-8


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor is the most significant."""
    if not factors:
        raise ValueError("tensor of no factors")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def embed_qubit_op(op: np.ndarray, k: int, num_qubits: int) -> np.ndarray:
    """Embed a one-qubit operator at position k of a num_qubits register.

    Position is 1-indexed; qubit 1 is the most significant index bit.
    """
    if not 1 <= k <= num_qubits:
        raise ValueError(f"qubit {k} out of range for {num_qubits} qubits")
    left = np.eye(1 << (k - 1), dtype=complex)
    right = np.eye(1 << (num_qubits - k), dtype=complex)
    return tensor(left, op, right)


def hermiticity_residual(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its own adjoint."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def unitarity_residual(m: np.ndarray) -> float:
    """Largest entrywise deviation of m^dag m from the identity."""
    m = np.asarray(m)
    return float(np.max(np.abs(dagger(m) @ m - np.eye(m.shape[0]))))


def commutation_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise magnitude of the commutator [a, b]."""
    return float(np.max(np.abs(a @ b - b @ a)))


def is_hermitian(m: np.ndarray) -> bool:
    return hermiticity_residual(m) <= VALIDATION_TOL


def sign_normalize(m: np.ndarray, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Hermitian unitary with the same eigenvectors as m and +-1 eigenvalues.

    m must be Hermitian to within VALIDATION_TOL; it is symmetrized to
    (m + m^dag)/2 before diagonalizing.  Eigenvalues with magnitude below
    zero_tol are treated as +zero_tol, so a (near-)null direction maps to
    +1 rather than producing a division blow-up or an arbitrary sign.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2)
    signs = np.where(np.abs(vals) < zero_tol, 1.0, np.sign(vals))
    return (vecs * signs) @ dagger(vecs)


def apply_on_a(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply (m tensor I) to states shaped (..., dim_a, dim_b)."""
    return m @ w


def apply_on_b(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply (I tensor m) to states shaped (..., dim_a, dim_b)."""
    return w @ m.T


def pair_expectation(m_a: np.ndarray, m_b: np.ndarray, psi: np.ndarray,
                     dim_a: int, dim_b: int) -> float:
    """Real part of <psi| m_a tensor m_b |psi>."""
    mat = psi.reshape(dim_a, dim_b)
    return float(np.vdot(mat, m_a @ mat @ m_b.T).real)


def norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase convention so the distribution is exactly Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
