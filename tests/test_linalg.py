"""Matrix utilities: spectral maps, one-sided actions, trees; and the
Kronecker oracles other tests build reference operators with."""

import numpy as np
import pytest

from chsh_selftest import linalg


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


def test_pauli_algebra():
    X, Z = linalg.PAULI_X, linalg.PAULI_Z
    assert np.allclose(X @ X, np.eye(2))
    assert np.allclose(Z @ Z, np.eye(2))
    assert np.allclose(X @ Z, -Z @ X)


def test_tensor_first_factor_most_significant():
    X, Z = linalg.PAULI_X, linalg.PAULI_Z
    m = tensor(Z, X)
    # entry (0,1) of Z⊗X couples |00> and |01>: Z on qubit 1 gives +1, X flips qubit 2
    assert m[0, 1] == 1
    assert m[2, 3] == -1
    assert np.allclose(m, np.kron(Z, X))


def test_embed_qubit_op():
    X = linalg.PAULI_X
    m = embed_qubit_op(X, 1, 2)
    assert np.allclose(m, np.kron(X, np.eye(2)))
    m = embed_qubit_op(X, 2, 2)
    assert np.allclose(m, np.kron(np.eye(2), X))
    with pytest.raises(ValueError):
        embed_qubit_op(X, 3, 2)


def test_residuals():
    X = linalg.PAULI_X
    assert linalg.hermiticity_residual(X) == 0.0
    assert linalg.unitarity_residual(X) == 0.0
    assert linalg.commutation_residual(X, linalg.PAULI_Z) == 2.0
    skew = np.array([[0, 1], [-1, 0]], dtype=complex)
    assert linalg.hermiticity_residual(skew) == 2.0
    half = 0.5 * X
    assert linalg.unitarity_residual(half) == 0.75


def test_sign_normalize():
    m = (linalg.PAULI_X + linalg.PAULI_Z) / np.sqrt(2)
    out = linalg.sign_normalize(2 * m)
    assert np.allclose(out, m)
    assert np.allclose(out @ out, np.eye(2))
    # zero eigenvalues are mapped to +1, so a rank-one projector direction fills in
    out = linalg.sign_normalize(np.diag([0.0, 5.0]).astype(complex))
    assert np.allclose(out, np.eye(2))
    out = linalg.sign_normalize(np.zeros((2, 2), dtype=complex))
    assert np.allclose(out, np.eye(2))


def test_sign_normalize_uses_the_validation_ceiling():
    skew = np.array([[0, 1], [-1, 0]], dtype=complex)  # Hermiticity residual 2
    m = linalg.PAULI_Z + (0.4 * linalg.VALIDATION_TOL) * skew
    # (m + m^dag)/2 is exactly sigma_z; diagonalizing one triangle of m
    # instead would tilt the output by about 4e-9
    assert np.max(np.abs(linalg.sign_normalize(m) - linalg.PAULI_Z)) < 1e-15
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.sign_normalize(linalg.PAULI_Z + linalg.VALIDATION_TOL * skew)


def test_sign_normalize_squares_to_identity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    out = linalg.sign_normalize(h)
    assert np.allclose(out @ out, np.eye(4), atol=1e-12)
    assert linalg.hermiticity_residual(out) < 1e-12


def test_apply_on_sides():
    rng = np.random.default_rng(1)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    # A side: dim_a=2, dim_b=4
    expect = (np.kron(m, np.eye(4)) @ psi)
    assert np.allclose(linalg.apply_on_a(m, psi.reshape(2, 4)).reshape(-1), expect)
    # B side: dim_a=4, dim_b=2
    expect = (np.kron(np.eye(4), m) @ psi)
    assert np.allclose(linalg.apply_on_b(m, psi.reshape(4, 2)).reshape(-1), expect)
    # leading axes are a batch of independent states
    batch = rng.normal(size=(3, 5, 4, 2)) + 1j * rng.normal(size=(3, 5, 4, 2))
    out = linalg.apply_on_b(m, batch)
    assert out.shape == batch.shape
    assert np.allclose(out[2, 4].reshape(-1), np.kron(np.eye(4), m) @ batch[2, 4].reshape(-1))


def test_branch_tree_grows_one_tree_per_batch_index():
    rng = np.random.default_rng(4)
    family = rng.normal(size=(3, 4, 5, 5)) + 1j * rng.normal(size=(3, 4, 5, 5))
    flips = rng.normal(size=(3, 4, 5, 5))
    root = rng.normal(size=(5, 2))
    for f in (None, flips):
        batched = linalg.branch_tree(root, family, f)
        assert batched.shape == (8, 4, 5, 2)
        for j in range(4):  # the same products as the tree grown alone
            alone = linalg.branch_tree(root, family[:, j], None if f is None else f[:, j])
            assert np.array_equal(batched[:, j], alone)


def test_pair_expectation_matches_dense():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    a = rng.normal(size=(2, 2)); a = (a + a.T) / 2
    b = rng.normal(size=(2, 2)); b = (b + b.T) / 2
    dense = np.vdot(psi, np.kron(a, b) @ psi).real
    assert np.isclose(linalg.pair_expectation(a.astype(complex), b.astype(complex), psi, 2, 2), dense)


def test_haar_unitary():
    rng = np.random.default_rng(3)
    u = linalg.haar_unitary(4, rng)
    assert linalg.unitarity_residual(u) < 1e-12
    v = linalg.haar_unitary(4, np.random.default_rng(3))
    assert np.array_equal(u, v)
