import numpy as np
import pytest

from lindforge import (
    DimensionError,
    hermitian_eigendecomposition,
    hermiticity_defect,
    matrix_exponential_unitary,
    partial_trace_bath,
    tensor_product,
    unvec,
    validate_density_matrix,
    vec,
)

from _support import crandn, random_density, random_hermitian

TOL = 1e-12
RECON_TOL = 1e-11
UNITARY_TOL = 1e-10


def test_tensor_product_matches_kron():
    rng = np.random.default_rng(3)
    a = crandn(rng, 3, 3)
    b = crandn(rng, 4, 4)
    assert np.abs(tensor_product(a, b) - np.kron(a, b)).max() == 0.0


def test_tensor_product_associativity():
    rng = np.random.default_rng(4)
    a = crandn(rng, 2, 2)
    b = crandn(rng, 3, 3)
    c = crandn(rng, 2, 2)
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert np.abs(left - right).max() < TOL


def test_tensor_product_rejects_oversized_result():
    a = np.eye(128)
    b = np.eye(128)
    with pytest.raises(DimensionError):
        tensor_product(a, b)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(5)
    a = random_density(rng, 3)
    b = random_density(rng, 5)
    out = partial_trace_bath(np.kron(a, b), 3, 5)
    assert np.abs(out - a * np.trace(b)).max() < TOL


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 12)
    out = partial_trace_bath(rho, 3, 4)
    assert abs(np.trace(out) - 1.0) < TOL


def test_eigendecomposition_ascending_and_reconstructs():
    rng = np.random.default_rng(7)
    for dim in (2, 5, 64, 512):
        h = random_hermitian(rng, dim)
        w, v = hermitian_eigendecomposition(h)
        assert (np.diff(w) >= 0).all()
        recon = (v * w) @ v.conj().T
        assert np.abs(recon - h).max() < RECON_TOL * max(1.0, np.abs(h).max())


def test_eigendecomposition_deterministic():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 6)
    w1, v1 = hermitian_eigendecomposition(h)
    w2, v2 = hermitian_eigendecomposition(h.copy())
    assert np.abs(w1 - w2).max() == 0.0
    assert np.abs(v1 - v2).max() == 0.0


def test_unitary_evolution_is_unitary():
    rng = np.random.default_rng(9)
    for dim in (2, 8, 64):
        h = random_hermitian(rng, dim)
        u = matrix_exponential_unitary(h, 1.7)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < UNITARY_TOL


def test_unitary_evolution_matches_dense_expm():
    import scipy.linalg

    rng = np.random.default_rng(10)
    h = random_hermitian(rng, 5)
    t = 0.83
    u = matrix_exponential_unitary(h, t)
    ref = scipy.linalg.expm(-1j * h * t)
    assert np.abs(u - ref).max() < 1e-12


def test_hermiticity_defect_example():
    # both corners +0.01i, so M - M^dag has off-diagonal entries 0.02i
    m = np.array([[0.6, 0.01j], [0.01j, 0.4]])
    assert abs(hermiticity_defect(m) - 0.02) < TOL


def test_validate_density_matrix_reports_negative_eigenvalue():
    report = validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    assert abs(report.min_eigenvalue - (-0.5)) < TOL
    assert abs(report.trace_defect) < TOL
    assert not report.valid


def test_validate_density_matrix_never_raises_on_garbage():
    report = validate_density_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))
    assert not report.valid
    report = validate_density_matrix(np.full((3, 3), 1e300, dtype=complex))
    assert not report.valid


def test_vec_unvec_roundtrip_and_kron_identity():
    rng = np.random.default_rng(11)
    dim = 4
    rho = random_density(rng, dim)
    assert np.abs(unvec(vec(rho), dim) - rho).max() == 0.0
    a = crandn(rng, dim, dim)
    b = crandn(rng, dim, dim)
    # column-stacking convention: vec(A rho B) = (B^T kron A) vec(rho)
    lhs = vec(a @ rho @ b)
    rhs = np.kron(b.T, a) @ vec(rho)
    assert np.abs(lhs - rhs).max() < TOL
