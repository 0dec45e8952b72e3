import numpy as np
import pytest

from lindforge import (
    bohr_frequencies,
    build_spectrum,
    eigenoperator,
    eigenoperator_decomposition,
)

from _support import random_hermitian, random_unitary, sigma_ops

COMPLETENESS_TOL = 1e-12
COMMUTATOR_TOL = 1e-10


def test_multiplets_of_degenerate_spectrum():
    spec = build_spectrum(np.diag([0.0, 0.0, 1.0]).astype(complex))
    assert spec.degeneracies == (2, 1)
    assert np.abs(np.asarray(spec.multiplet_frequencies) - [0.0, 1.0]).max() < 1e-14


def test_bohr_frequencies_equidistant_levels():
    spec = build_spectrum(np.diag([0.0, 1.0, 2.0]).astype(complex))
    omegas = bohr_frequencies(spec)
    assert np.abs(np.sort(omegas.values) - [-2.0, -1.0, 0.0, 1.0, 2.0]).max() < 1e-14


def test_bohr_frequencies_nondegenerate_gaps():
    spec = build_spectrum(np.diag([0.0, 1.0, 2.5]).astype(complex))
    omegas = bohr_frequencies(spec)
    expected = [-2.5, -1.5, -1.0, 0.0, 1.0, 1.5, 2.5]
    assert np.abs(np.sort(omegas.values) - expected).max() < 1e-14


def test_identity_coupling_is_a_single_zero_frequency_term():
    spec = build_spectrum(np.diag([0.0, 1.0, 2.5]).astype(complex))
    decomp = eigenoperator_decomposition(np.eye(3, dtype=complex), spec)
    assert set(decomp.terms) == {0.0}
    assert np.abs(decomp.terms[0.0] - np.eye(3)).max() < 1e-14


def test_sigma_x_splits_into_raising_and_lowering():
    sx, _, _, sm = sigma_ops()
    omega = 1.3
    spec = build_spectrum(np.diag([0.0, omega]).astype(complex))
    decomp = eigenoperator_decomposition(sx, spec)
    assert set(decomp.terms) == {omega, -omega}
    # A(+omega) lowers the system energy by omega: |g><e| here
    assert np.abs(decomp.terms[omega] - sm).max() < 1e-14
    assert np.abs(decomp.terms[-omega] - sm.conj().T).max() < 1e-14


def test_eigenoperator_at_unmatched_frequency_is_zero():
    sx, _, _, _ = sigma_ops()
    spec = build_spectrum(np.diag([0.0, 1.0]).astype(complex))
    piece = eigenoperator(sx, spec, 0.4)
    assert np.abs(piece).max() == 0.0


def test_eigenoperators_on_chained_gaps_sum_back():
    # gaps 0.90, 0.95, 1.00, 1.05 chain into one Bohr frequency at this
    # tolerance; each gap goes to its nearest Bohr frequency, whether the
    # piece is asked for alone or through the decomposition
    levels = np.cumsum([0.0, 0.90, 0.95, 1.00, 1.05])
    spec = build_spectrum(np.diag(levels).astype(complex), degeneracy_tol=0.06)
    a = random_hermitian(np.random.default_rng(22), 5)
    decomp = eigenoperator_decomposition(a, spec)
    total = np.zeros((5, 5), dtype=complex)
    for omega in bohr_frequencies(spec).values:
        piece = eigenoperator(a, spec, omega)
        if omega in decomp.terms:
            assert np.abs(piece - decomp.terms[omega]).max() < 1e-15
        total += piece
    assert np.abs(total - a).max() < COMPLETENESS_TOL


def test_bohr_frequencies_computed_once_per_spectrum():
    spec = build_spectrum(np.diag([0.0, 1.0, 2.5]).astype(complex))
    first = bohr_frequencies(spec)
    assert bohr_frequencies(spec) is first
    assert bohr_frequencies(spec).values is first.values
    with pytest.raises(ValueError):
        first.values[0] = 1.0


def test_decomposition_completeness_random_ensemble():
    rng = np.random.default_rng(21)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        h = random_hermitian(rng, dim)
        if rng.uniform() < 0.4:
            # force a degeneracy by duplicating one eigenvalue
            w, v = np.linalg.eigh(h)
            w[0] = w[1]
            h = (v * w) @ v.conj().T
        a = random_hermitian(rng, dim) + 1j * random_hermitian(rng, dim)
        spec = build_spectrum(h)
        decomp = eigenoperator_decomposition(a, spec)
        total = sum(decomp.terms.values())
        scale = max(1.0, np.abs(a).max())
        assert np.abs(total - a).max() < COMPLETENESS_TOL * scale


def test_eigenoperator_commutators():
    rng = np.random.default_rng(22)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        h = random_hermitian(rng, dim)
        a = random_hermitian(rng, dim) + 1j * random_hermitian(rng, dim)
        spec = build_spectrum(h)
        decomp = eigenoperator_decomposition(a, spec)
        h_rec = (spec.basis * spec.frequencies) @ spec.basis.conj().T
        scale = max(1.0, np.abs(h).max()) * max(1.0, np.abs(a).max())
        for omega, piece in decomp.terms.items():
            comm = h_rec @ piece - piece @ h_rec
            assert np.abs(comm - (-omega) * piece).max() < COMMUTATOR_TOL * scale
            adj = piece.conj().T
            comm_adj = h_rec @ adj - adj @ h_rec
            assert np.abs(comm_adj - omega * adj).max() < COMMUTATOR_TOL * scale
            inv = adj @ piece
            assert np.abs(h_rec @ inv - inv @ h_rec).max() < COMMUTATOR_TOL * scale


def test_near_degenerate_chain_collapses_with_warning():
    # three levels pairwise closer than the tolerance, endpoints farther apart
    eps = 0.8e-9
    h = np.diag([1.0, 1.0 + eps, 1.0 + 2 * eps]).astype(complex)
    spec = build_spectrum(h, degeneracy_tol=1e-9)
    assert spec.degeneracies == (3,)
    assert any("chain" in w for w in spec.warnings)


def test_spectrum_in_rotated_basis():
    rng = np.random.default_rng(23)
    u = random_unitary(rng, 3)
    levels = np.array([0.0, 0.7, 1.9])
    h = (u * levels) @ u.conj().T
    spec = build_spectrum(h)
    assert np.abs(spec.frequencies - levels).max() < 1e-12
    sx = random_hermitian(rng, 3)
    decomp = eigenoperator_decomposition(sx, spec)
    total = sum(decomp.terms.values())
    assert np.abs(total - sx).max() < COMPLETENESS_TOL * max(1.0, np.abs(sx).max())


def test_bohr_index_is_the_nearest_bohr_frequency():
    rng = np.random.default_rng(24)
    for trial in range(20):
        dim = int(rng.integers(1, 9))
        levels = np.sort(rng.uniform(0.0, 3.0, dim))
        if trial % 3 == 1:
            levels = np.round(levels)  # degenerate multiplets and shared gaps
        tol = 0.1 if trial % 3 == 2 else None  # coarse: gaps chain together
        spec = build_spectrum(np.diag(levels).astype(complex), degeneracy_tol=tol)
        values = bohr_frequencies(spec).values
        reps = spec.representative_frequencies()
        gaps = reps[None, :] - reps[:, None]
        nearest = np.abs(gaps[:, :, None] - values[None, None, :]).argmin(axis=2)
        assert spec.bohr_index.shape == (dim, dim)
        assert np.array_equal(spec.bohr_index, nearest)


def _ladder(dim):
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


BOHR_SPECTRA = {
    # (hamiltonian, degeneracy tolerance)
    "degenerate": (np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 2.5]).astype(complex), None),
    # a coarse tolerance chains the gaps 0.92-1.16 into one Bohr frequency
    "chained-gap": (np.diag([0.0, 1.0, 1.16, 2.08]).astype(complex), 0.1),
    "chained-merge": (np.diag([0.0, 0.52, 1.69, 2.25, 2.41, 3.0]).astype(complex), 0.05),
    "ladder-91": (_ladder(91), None),
    "rotated-random": (None, None),
}


@pytest.mark.parametrize("case", sorted(BOHR_SPECTRA))
def test_bohr_set_matches_the_per_pair_loop(case):
    from _support import reference_bohr_values

    h, tol = BOHR_SPECTRA[case]
    if h is None:
        rng = np.random.default_rng(91)
        h = random_hermitian(rng, 7)
    spec = build_spectrum(h, degeneracy_tol=tol)
    got, want = spec.bohr_set.values, reference_bohr_values(spec)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, signs of zero too


@pytest.mark.parametrize("case", sorted(BOHR_SPECTRA))
def test_eigenoperator_split_matches_the_per_frequency_loop(case):
    from _support import reference_eigenoperators

    h, tol = BOHR_SPECTRA[case]
    rng = np.random.default_rng(92)
    if h is None:
        h = random_hermitian(rng, 7)
    spec = build_spectrum(h, degeneracy_tol=tol)
    dim = spec.dim
    # a rotated coupling, so every piece is a dense product
    a_op = random_hermitian(rng, dim)
    a_op[0, dim - 1] = a_op[dim - 1, 0] = 0.0
    decomp = eigenoperator_decomposition(a_op, spec)
    want = reference_eigenoperators(a_op, spec)
    assert list(decomp.terms) == list(want)  # same kept frequencies, ascending
    for omega, piece in want.items():
        got = decomp.terms[omega]
        assert got.tobytes() == piece.tobytes()
        assert got.base is None  # its own array, not a view of a stack

