import tracemalloc
import warnings

import numpy as np
import pytest

import lindforge.linalg

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

from lindforge.linalg import (
    DENSITY_TOL,
    MATRIX_CHUNK,
    PADE_THETA,
    expm,
    hermitian_part,
    matrix_defects,
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
    # m - m^+ overflows: inf, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermiticity_defect(np.array([[0.0, -1e308], [1e308, 0.0]])) == np.inf


def test_validate_density_matrix_reports_negative_eigenvalue():
    report = validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    assert abs(report.min_eigenvalue - (-0.5)) < TOL
    assert abs(report.trace_defect) < TOL
    assert not report.valid


@pytest.mark.parametrize("defect, valid", [(1e-7, True), (1e-5, False)])
def test_validate_density_matrix_defaults_to_the_density_tolerance(defect, valid):
    # DENSITY_TOL = 1e-6: a hermiticity defect of 1e-7 passes, 1e-5 does not
    rho = np.array([[0.5, defect], [0.0, 0.5]], dtype=complex)
    report = validate_density_matrix(rho)
    assert report.tol == DENSITY_TOL
    assert report.hermiticity_defect == defect
    assert report.valid is valid


def test_validate_density_matrix_never_raises_on_garbage():
    report = validate_density_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))
    assert not report.valid
    report = validate_density_matrix(np.full((3, 3), 1e300, dtype=complex))
    assert not report.valid
    # finite, but rho + rho^+ overflows: a NaN eigenvalue, and no warning
    report = validate_density_matrix(np.full((3, 3), 1e308, dtype=complex))
    assert not report.valid and not report.message


def sample_defects(state):
    """One sample's (trace defect, max |entry|, hermiticity defect, smallest
    eigenvalue) rows, each from its own scalar expression."""
    return [abs(np.trace(state) - 1.0), float(np.abs(state).max()),
            hermiticity_defect(state),
            float(np.linalg.eigvalsh(0.5 * (state + state.conj().T))[0])]


def test_density_defects_masks_non_finite_samples_without_warnings(monkeypatch):
    rng = np.random.default_rng(21)
    stack = np.array([random_density(rng, 3) + 1e-3 * crandn(rng, 3, 3)
                      for _ in range(7)])
    stack[1, 0, 2] = np.nan
    stack[3, 1, 1] = np.inf
    stack[4, 2, 0] = complex(0.0, -np.inf)
    bad = [1, 3, 4]
    good = [0, 2, 5, 6]
    # a rate-shaped (n, k, k) stack: positive 2 x 2 matrices, one non-finite,
    # one finite whose hermitian part overflows, and a skew pair whose
    # hermitian part is finite but whose hermiticity defect overflows
    rates = np.array([random_density(rng, 2) for _ in range(6)])
    rates[1, 0, 1] = np.nan
    rates[3] = np.array([[1.5e308, 0.0], [0.0, 1.0]]) * (1 + 1j)
    rates[4] = np.array([[0.0, -1e308], [1e308, 0.0]])
    rate_bad = [1, 3]
    # chunks of two mix masked and finite samples and leave a short last one
    for chunk in (MATRIX_CHUNK, 2):
        monkeypatch.setattr(lindforge.linalg, "MATRIX_CHUNK", chunk)
        hermitian = np.empty_like(rates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            defects = matrix_defects(stack)
            rate_rows = matrix_defects(rates, out=hermitian)
            expected_hermitian = hermitian_part(rates)
        assert defects.shape == (4, len(stack))
        assert np.isnan(defects[:, bad]).all()
        for k in good:
            report = validate_density_matrix(stack[k])
            assert defects[[0, 2, 3], k].tolist() == [report.trace_defect,
                                                      report.hermiticity_defect,
                                                      report.min_eigenvalue]
            assert defects[:, k].tolist() == sample_defects(stack[k])
        assert rate_rows.shape == (4, len(rates))
        assert np.isnan(rate_rows[:, rate_bad]).all()
        for k in sorted(set(range(len(rates))) - set(rate_bad)):
            assert rate_rows[:, k].tolist() == sample_defects(rates[k])
        assert rate_rows[2, 4] == np.inf
        assert hermitian.tobytes() == expected_hermitian.tobytes()
    assert validate_density_matrix(stack[3]).message == "non-finite entries"
    # finite entries: not valid, with NaN rows and no message
    report = validate_density_matrix(rates[3])
    assert not report.valid and not report.message
    assert np.isnan([report.trace_defect, report.hermiticity_defect,
                     report.min_eigenvalue]).all()


def test_density_defects_scratch_memory_is_one_chunk():
    rng = np.random.default_rng(22)
    stack = np.tile(random_density(rng, 16), (20001, 1, 1))  # 78 MiB
    chunk_bytes = MATRIX_CHUNK * 16 * 16 * stack.itemsize
    tracemalloc.start()
    try:
        defects = matrix_defects(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(defects).all()
    # a few chunk-sized temporaries; a whole-stack pass would allocate
    # several times the stack
    assert peak < 8 * chunk_bytes < stack.nbytes / 4


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


def _relative_to_scipy(stack):
    """Per matrix: max |expm - scipy's| over max |scipy's|."""
    import scipy.linalg

    got, want = expm(stack), scipy.linalg.expm(stack)
    assert np.isfinite(want).all()
    return np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))


def test_expm_matches_scipy_on_mixed_degree_stacks():
    # each stack mixes 1-norms from 1e-3 to 1e3: every Pade degree (3, 5, 7,
    # 9 and 13), and 13 with 0 to 8 squarings, in one call
    rng = np.random.default_rng(22)
    norms = np.array([1e-3, 0.1, 0.5, 1.5, 4.0, 30.0, 1e3])
    assert sorted(set(np.searchsorted(list(PADE_THETA.values()), norms).tolist())) == [0, 1, 2, 3, 4, 5]
    worst = 0.0
    for n in (2, 3, 5, 8, 16, 33, 64):  # 1 x 1 blocks are np.exp, as in scipy
        stack = crandn(rng, norms.size, n, n)
        stack *= (norms / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
        worst = max(worst, _relative_to_scipy(stack).max())
    assert worst < 1e-12


def test_expm_of_stiff_blocks():
    # a diagonal block (every 1x1 one) is np.exp of its diagonal, as in
    # scipy, up to norms of 1e12; a dense stiff block is as close as the
    # backward error of scaling and squaring allows any route: eps ||A||_1
    import scipy.linalg

    rng = np.random.default_rng(23)
    for scale in (1e4, 1e8, 1e12):
        diagonal = np.zeros((3, 4, 4), dtype=complex)
        diagonal[:, range(4), range(4)] = -np.logspace(-3, np.log10(scale), 4) + 1j * scale
        single = -scale * rng.uniform(0.0, 1.0, (5, 1, 1)) + 1j * scale * rng.standard_normal((5, 1, 1))
        for stack in (diagonal, single):
            assert np.array_equal(expm(stack), scipy.linalg.expm(stack))
        # a rate matrix: columns sum to zero, off-diagonal entries up to scale
        rates = rng.uniform(0.0, scale, (2, 4, 4))
        rates[:, range(4), range(4)] = 0.0
        rates[:, range(4), range(4)] = -rates.sum(axis=1)
        bound = np.finfo(float).eps * np.abs(rates).sum(axis=1).max(axis=1)
        assert (_relative_to_scipy(rates) < np.maximum(bound, 1e-12)).all()


def test_expm_keeps_the_stack_shape_and_a_real_input_real():
    rng = np.random.default_rng(24)
    stack = rng.standard_normal((2, 3, 4, 4))
    got = expm(stack)
    assert got.shape == stack.shape and got.dtype == float
    for index in np.ndindex(2, 3):
        assert np.abs(got[index] - expm(stack[index])).max() < 1e-14 * np.abs(got[index]).max()
    assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    assert np.array_equal(expm(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3)))


def test_expm_of_a_non_finite_or_overflowing_block_warns_nothing():
    # with warnings as errors: a non-finite entry makes a dense block NaN
    # (a diagonal one is np.exp of its diagonal), an exponential past the
    # float range is inf or NaN, and the other blocks of the stack are
    # untouched
    ok = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    blocks = [ok, [[np.nan, 1.0], [0.0, 1.0]], [[0.0, np.inf], [1.0, 0.0]],
              [[1e300, 1.0], [1.0, 0.0]], [[800.0, 1.0], [0.0, 0.0]],
              [[np.inf, 0.0], [0.0, 1.0]], ok]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm(np.array(blocks, dtype=complex))
        single = expm(np.array([[[np.nan]], [[1e300]], [[0.0]]]))
    assert np.isnan(got[1]).all() and np.isnan(got[2]).all()
    assert not np.isfinite(got[3]).all() and not np.isfinite(got[4]).all()
    assert got[5, 0, 0].real == np.inf and got[5, 1, 1] == np.e
    rotation = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
    assert np.abs(got[0] - rotation).max() < 1e-15 and np.array_equal(got[0], got[6])
    assert np.isnan(single[0, 0, 0]) and single[1, 0, 0] == np.inf and single[2, 0, 0] == 1.0
