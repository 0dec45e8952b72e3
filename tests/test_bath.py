import math

import numpy as np
import pytest

from lindforge import (
    FiniteBath,
    center_couplings,
    correlation_function,
    default_broadening,
    delta_matrix,
    estimate_correlation_time,
    flat_thermal_bath,
    gamma_matrix,
    gibbs_state,
    half_fourier_w,
    hermitize_coupling,
    qubit_mode_bath,
    table_bath,
    two_time_correlation,
)

from _support import (
    crandn,
    random_hermitian,
    record_eigh,
    reference_correlation_time,
    sigma_ops,
)

CORRELATION_TOL = 1e-10
EXACT_TOL = 1e-13


def test_gibbs_state_two_level():
    h_b = np.diag([0.0, 1.0]).astype(complex)
    sigma = gibbs_state(h_b, 1.0)
    z = 1.0 + math.exp(-1.0)
    expected = np.diag([1.0 / z, math.exp(-1.0) / z])
    assert np.abs(sigma - expected).max() < EXACT_TOL
    sigma_inf = gibbs_state(h_b, math.inf)
    assert np.abs(sigma_inf - np.eye(2) / 2).max() < EXACT_TOL


def test_default_broadening_examples():
    # bath Bohr frequencies of diag(0,1,2) are {-2,-1,0,1,2}: mean spacing 1
    assert abs(default_broadening(np.array([0.0, 1.0, 2.0])) - 4.0) < EXACT_TOL
    # two-level bath: Bohr set {-nu, 0, nu}, mean spacing nu
    nu = 0.7
    assert abs(default_broadening(np.array([0.0, nu])) - 4.0 * nu) < EXACT_TOL
    with pytest.raises(ValueError):
        default_broadening(np.array([1.0, 1.0]))


def test_center_couplings_identity_bath_operator():
    sx, _, _, _ = sigma_ops()
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [np.eye(2)], broadening=1.0)
    new_bath, h_shift = center_couplings(bath, [sx])
    # <1>_B = 1, so the whole coupling moves into the hamiltonian
    assert np.abs(h_shift - sx).max() < EXACT_TOL
    assert np.abs(new_bath.coupling_ops[0]).max() < EXACT_TOL


def test_center_couplings_thermal_sigma_z():
    sx, _, sz, _ = sigma_ops()
    # T = 1/ln 2 puts populations at (2/3, 1/3), so <sigma_z>_B = 1/3
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0 / math.log(2.0), [sz], broadening=1.0)
    assert abs(bath.expectation(sz) - 1.0 / 3.0) < 1e-12
    new_bath, h_shift = center_couplings(bath, [sx])
    assert np.abs(h_shift - sx / 3.0).max() < 1e-12
    assert abs(new_bath.expectation(new_bath.coupling_ops[0])) < 1e-12


def test_center_couplings_matches_freshly_built_bath():
    # the c-number shift reuses the eigenbasis; a bath built from scratch on
    # the shifted operators is the reference
    rng = np.random.default_rng(34)
    h_b = random_hermitian(rng, 6)
    xs = [random_hermitian(rng, 6) + 0.7 * np.eye(6), random_hermitian(rng, 6)]
    bath = FiniteBath(h_b, 0.8, xs, broadening=0.6)
    a_ops = [random_hermitian(rng, 3) for _ in xs]
    new_bath, _ = center_couplings(bath, a_ops)
    fresh = FiniteBath(h_b, 0.8, new_bath.coupling_ops, broadening=0.6)
    for a in range(2):
        mean = bath.expectation(xs[a])
        assert abs(mean) > 0.1
        assert np.abs(new_bath.coupling_ops[a] - (xs[a] - mean * np.eye(6))).max() == 0.0
        for b in range(2):
            for tau in (0.0, 0.3, 2.2, -1.4):
                g_new = correlation_function(new_bath, a, b, tau)
                g_ref = correlation_function(fresh, a, b, tau)
                assert abs(g_new - g_ref) < 1e-12
            for omega in (-1.7, 0.0, 0.4, 2.5):
                w_new = half_fourier_w(new_bath, a, b, omega)
                w_ref = half_fourier_w(fresh, a, b, omega)
                assert abs(w_new - w_ref) < 1e-12


def test_center_couplings_does_not_rediagonalise(monkeypatch):
    rng = np.random.default_rng(35)
    bath = FiniteBath(random_hermitian(rng, 8), 1.2,
                      [random_hermitian(rng, 8) + np.eye(8)], broadening=0.5)
    sizes = record_eigh(monkeypatch)
    center_couplings(bath, [sigma_ops()[0]])
    assert sizes == []


def test_sigma_is_read_only():
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [sigma_ops()[0]], broadening=1.0)
    sigma = bath.sigma()
    assert sigma is bath.sigma()
    with pytest.raises(ValueError):
        sigma[0, 0] = 0.5
    assert abs(np.trace(bath.sigma()) - 1.0) < EXACT_TOL


def test_hermitize_coupling_sigma_x_pair():
    sx, _, _, _ = sigma_ops()
    out = hermitize_coupling([(sx, sx)])
    assert len(out) == 1
    a, x = out[0]
    assert np.abs(a - math.sqrt(2.0) * sx).max() < EXACT_TOL
    assert np.abs(x - sx / math.sqrt(2.0)).max() < EXACT_TOL


def test_hermitize_coupling_reassembles_total():
    rng = np.random.default_rng(31)
    _, _, _, sm = sigma_ops()
    b = crandn(rng, 3, 3)
    pairs = [(sm, b), (sm.conj().T, b.conj().T)]
    out = hermitize_coupling(pairs)
    total_in = sum(np.kron(a, x) for a, x in pairs)
    total_out = sum(np.kron(a, x) for a, x in out)
    assert np.abs(total_in - total_out).max() < 1e-12 * np.abs(total_in).max()
    for a, x in out:
        assert np.abs(a - a.conj().T).max() < 1e-12
        assert np.abs(x - x.conj().T).max() < 1e-12


def test_hermitize_coupling_rejects_missing_partner():
    _, _, _, sm = sigma_ops()
    with pytest.raises(ValueError, match="adjoint"):
        hermitize_coupling([(sm, np.diag([1.0, 2.0]))])


def test_correlation_function_infinite_temperature_cosine():
    sx, _, _, _ = sigma_ops()
    nu = 1.3
    bath = FiniteBath(np.diag([0.0, nu]), math.inf, [sx], broadening=0.1)
    for tau in (0.0, 0.4, 2.7):
        g = correlation_function(bath, 0, 0, tau)
        assert abs(g - math.cos(nu * tau)) < EXACT_TOL


def test_correlation_function_thermal_two_level():
    sx, _, _, _ = sigma_ops()
    nu, temp = 0.9, 0.7
    bath = FiniteBath(np.diag([0.0, nu]), temp, [sx], broadening=0.1)
    p0 = 1.0 / (1.0 + math.exp(-nu / temp))
    p1 = 1.0 - p0
    for tau in (0.0, 0.3, 1.9):
        expected = p0 * np.exp(-1j * nu * tau) + p1 * np.exp(1j * nu * tau)
        assert abs(correlation_function(bath, 0, 0, tau) - expected) < EXACT_TOL


def test_correlation_conjugation_and_stationarity():
    rng = np.random.default_rng(32)
    for dim in (2, 5, 16):
        h_b = random_hermitian(rng, dim)
        xs = [random_hermitian(rng, dim), crandn(rng, dim, dim)]
        xs[1] = xs[1] + xs[1].conj().T
        bath = FiniteBath(h_b, 0.8, xs, broadening=1.0)
        scale = max(abs(correlation_function(bath, a, a, 0.0)) for a in range(2))
        for tau in (0.2, 1.1):
            for a in range(2):
                for b in range(2):
                    g = correlation_function(bath, a, b, tau)
                    g_rev = correlation_function(bath, b, a, -tau)
                    assert abs(g - np.conj(g_rev)) < CORRELATION_TOL * scale
                    # independent dense-unitary route, shifted by t2
                    for t2 in (0.0, 0.6):
                        g2 = two_time_correlation(bath, a, b, tau + t2, t2)
                        assert abs(g - g2) < CORRELATION_TOL * scale


def test_half_fourier_resonant_value():
    sx, _, _, _ = sigma_ops()
    nu, eps = 1.0, 0.05
    bath = FiniteBath(np.diag([0.0, nu]), math.inf, [sx], broadening=eps)
    w = half_fourier_w(bath, 0, 0, nu)
    expected = 0.5 * (1j / (0j + 1j * eps)) + 0.5 * (1j / (2 * nu + 1j * eps))
    assert abs(w - expected) < EXACT_TOL
    assert abs(w.real - 0.5 / eps - 0.5 * eps / (4 * nu * nu + eps * eps)) < EXACT_TOL


def test_gamma_matrix_two_level_lorentzians():
    sx, _, _, _ = sigma_ops()
    nu, eps = 1.2, 0.08
    bath = FiniteBath(np.diag([0.0, nu]), math.inf, [sx], broadening=eps)
    for omega in (-2.0, 0.0, 0.5, nu):
        g = gamma_matrix(bath, omega)[0, 0]
        expected = eps / ((omega - nu) ** 2 + eps**2) + eps / ((omega + nu) ** 2 + eps**2)
        assert abs(g - expected) < EXACT_TOL * max(1.0, abs(expected))
        assert abs(g.imag) == 0.0


def test_gamma_is_hermitian_psd_and_w_splits():
    rng = np.random.default_rng(33)
    for dim in (3, 6):
        h_b = random_hermitian(rng, dim)
        xs = [random_hermitian(rng, dim) for _ in range(2)]
        bath = FiniteBath(h_b, 1.5, xs, broadening=0.7)
        for omega in (-1.3, 0.0, 0.8, 2.1):
            g = gamma_matrix(bath, omega)
            d = delta_matrix(bath, omega)
            assert np.abs(g - g.conj().T).max() == 0.0
            assert np.abs(d - d.conj().T).max() < 1e-14 * max(1.0, np.abs(d).max())
            evals = np.linalg.eigvalsh(g)
            assert evals.min() > -1e-12 * max(1.0, evals.max())
            # W = Gamma/2 + i Delta reproduces the half-range transform
            w = np.array(
                [[half_fourier_w(bath, a, b, omega) for b in range(2)] for a in range(2)]
            )
            assert np.abs(g / 2 + 1j * d - w).max() < 1e-12 * max(1.0, np.abs(w).max())


def test_flat_thermal_bath_rates_and_detailed_balance():
    gamma, temp, omega = 0.2, 1.0, 1.0
    bath = flat_thermal_bath(gamma, temp, gamma_dephasing=0.05)
    nbar = 1.0 / math.expm1(omega / temp)
    g_down = gamma_matrix(bath, omega)[0, 0].real
    g_up = gamma_matrix(bath, -omega)[0, 0].real
    assert abs(g_down - gamma * (nbar + 1.0)) < EXACT_TOL
    assert abs(g_up - gamma * nbar) < EXACT_TOL
    assert abs(gamma_matrix(bath, 0.0)[0, 0].real - 0.05) < EXACT_TOL
    assert abs(g_up / g_down - math.exp(-omega / temp)) < 1e-12
    with pytest.raises(ValueError):
        flat_thermal_bath(0.2, math.inf)


def test_table_bath_lookup_and_rejections():
    gamma0 = np.array([[0.3, 0.1], [0.1, 0.2]], dtype=complex)
    bath = table_bath([(0.7, gamma0, None), (-0.7, 0.5 * gamma0, None)])
    assert np.abs(gamma_matrix(bath, 0.7) - gamma0).max() < EXACT_TOL
    assert np.abs(gamma_matrix(bath, 0.7 + 1e-10) - gamma0).max() < EXACT_TOL
    assert np.abs(delta_matrix(bath, 0.7)).max() == 0.0
    with pytest.raises(ValueError, match="no table entry"):
        gamma_matrix(bath, 0.3)
    bad = np.array([[0.1, 0.9], [0.9, 0.1]], dtype=complex)  # indefinite
    with pytest.raises(ValueError, match="omega=0.7"):
        table_bath([(0.7, bad, None)])
    skew = np.array([[0.1, 0.2], [0.3, 0.1]], dtype=complex)
    with pytest.raises(ValueError, match="not hermitian"):
        table_bath([(0.7, skew, None)])


def test_correlation_time_zero_coupling():
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [np.zeros((2, 2))], broadening=1.0)
    table = estimate_correlation_time(bath)
    assert table.tau_b_estimate == 0.0
    assert not table.non_decaying


def test_correlation_time_single_mode_recurs():
    nu = 0.8
    bath = qubit_mode_bath([(nu, 0.1)], math.inf, broadening=0.1)
    table = estimate_correlation_time(bath)
    assert table.non_decaying
    assert abs(table.tau_b_estimate - math.pi / nu) < 1e-12


def test_correlation_time_commuting_coupling_never_decays():
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [np.diag([1.0, 2.0])], broadening=1.0)
    table = estimate_correlation_time(bath)
    assert table.non_decaying
    assert table.tau_b_estimate == math.inf


def test_qubit_mode_bath_structure():
    modes = [(1.0, 0.1), (1.5, 0.2)]
    bath = qubit_mode_bath(modes, 2.0, broadening=0.3)
    assert bath.dim == 4
    evals = np.sort(np.linalg.eigvalsh(bath.h_b))
    assert np.abs(evals - [0.0, 1.0, 1.5, 2.5]).max() < 1e-12
    # one collective channel, weighted Bohr lines only at the mode frequencies
    freqs = bath.weighted_bohr_frequencies()
    assert np.abs(np.sort(freqs) - [-1.5, -1.0, 1.0, 1.5]).max() < 1e-12
    with pytest.raises(ValueError):
        qubit_mode_bath([(1.0, 0.1)] * 13, 1.0)


@pytest.mark.parametrize("kind, decays", [
    ("modes", False), ("dense-two-channel", False), ("dense-two-channel", True)])
def test_correlation_time_matches_per_pair_reference(kind, decays):
    if kind == "modes":
        bath = qubit_mode_bath([(0.94, 0.02), (0.97, 0.025), (1.01, 0.018),
                                (1.05, 0.022), (1.08, 0.02)], 1.5)
    else:
        # 20 levels at infinite temperature dephase below the 5% threshold;
        # 12 thermal levels recur
        dim, temp = (20, math.inf) if decays else (12, 0.9)
        rng = np.random.default_rng(36)
        x = crandn(rng, dim, dim)
        bath = FiniteBath(random_hermitian(rng, dim), temp,
                          [x + x.conj().T, random_hermitian(rng, dim)],
                          broadening=0.4)
    table = estimate_correlation_time(bath)
    ref = reference_correlation_time(bath)
    assert table.non_decaying is not decays
    assert np.array_equal(table.taus, ref.taus)
    assert table.values.shape == ref.values.shape
    assert np.abs(table.values - ref.values).max() < 1e-12
    assert table.tau_b_estimate == ref.tau_b_estimate
    assert table.non_decaying == ref.non_decaying
