import math

import numpy as np
import pytest

from lindforge import (
    AnalyticBath,
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
    kron_chain_mode_bath,
    random_hermitian,
    record_eigh,
    reference_correlation_time,
    reference_expectation,
    reference_w_matrix,
    reference_weighted_bohr_frequencies,
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


@pytest.mark.parametrize("kind", ["dense", "comb"])
def test_expectation_matches_the_eigenbasis_sum(kind):
    rng = np.random.default_rng(35)
    if kind == "dense":
        bath = FiniteBath(random_hermitian(rng, 12), 0.7,
                          [random_hermitian(rng, 12)], broadening=0.3)
    else:
        bath = qubit_mode_bath([(0.6, 0.2), (1.1, 0.1), (1.9, 0.3), (2.4, 0.15)], 0.9)
    d = bath.dim
    ops = [bath.coupling_ops[0], crandn(rng, d, d), np.eye(d)]
    ops += [x.conj().T @ x for x in ops]
    for x in ops:
        want = reference_expectation(bath, x)
        scale = max(abs(want), float(np.abs(x).max()))  # a sigma_x mean is 0
        assert abs(bath.expectation(x) - want) <= 1e-13 * scale


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
    # nbar past the float range of e^(|Omega|/T) is 0: e^709 is a float,
    # e^710 is not
    cold = flat_thermal_bath(gamma, 1e-3)
    assert gamma_matrix(cold, -0.709)[0, 0] == gamma * (1.0 / math.expm1(709.0))
    assert gamma_matrix(cold, -0.71)[0, 0] == 0.0
    assert gamma_matrix(cold, 0.71)[0, 0] == gamma


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


@pytest.mark.parametrize("kind", ["table", "flat-thermal"])
def test_analytic_bath_called_once_per_omega(kind):
    omegas = [-1.3, 0.0, 0.7, 1.3]
    if kind == "table":
        rng = np.random.default_rng(71)
        entries = []
        for omega in omegas:
            m = crandn(rng, 2, 2)
            entries.append((omega, m @ m.conj().T, random_hermitian(rng, 2)))
        bath = table_bath(entries)
    else:
        bath = flat_thermal_bath(0.4, 0.9, gamma_dephasing=0.1, channel_count=2)
    calls = []
    for name in ("gamma_fn", "delta_fn"):
        fn = getattr(bath, name)
        if fn is not None:
            def counted(*args, fn=fn, name=name):
                calls.append((name, args[-1]))
                return fn(*args)
            setattr(bath, name, counted)
    for omega in omegas:
        gamma_matrix(bath, omega)
        delta_matrix(bath, omega)
    names = ("gamma_fn", "delta_fn") if kind == "table" else ("gamma_fn",)
    assert calls == [(name, omega) for omega in omegas for name in names]


def test_table_lookup_tie_goes_to_first_entry():
    h = 2.0 ** -30  # both entries lie exactly h from 1.0, well inside 1e-8
    one = np.eye(1, dtype=complex)
    low = (1.0 - h, 0.2 * one, 0.05 * one)
    high = (1.0 + h, 0.3 * one, -0.05 * one)
    for first, second in ((low, high), (high, low)):
        bath = table_bath([first, second])
        assert gamma_matrix(bath, 1.0)[0, 0] == first[1][0, 0]
        assert delta_matrix(bath, 1.0)[0, 0] == first[2][0, 0]
        # off the tie the nearer entry wins, whatever its place
        assert gamma_matrix(bath, 1.0 + h / 2)[0, 0] == 0.3
        assert gamma_matrix(bath, 1.0 - h / 2)[0, 0] == 0.2


@pytest.mark.parametrize("shape", [(), (2,), (1, 1), (3, 3), (2, 1)])
def test_analytic_bath_rejects_wrongly_shaped_matrix(shape):
    bath = AnalyticBath(lambda omega: np.zeros(shape), lambda omega: np.zeros(shape),
                        channel_count=2)
    with pytest.raises(ValueError, match=r"Gamma\(0.5\) has shape"):
        gamma_matrix(bath, 0.5)
    with pytest.raises(ValueError, match=r"Delta\(0.5\) has shape"):
        delta_matrix(bath, 0.5)


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


@pytest.mark.parametrize("n_modes", range(1, 9))
def test_qubit_mode_bath_matches_kron_chains(n_modes):
    rng = np.random.default_rng(300 + n_modes)
    modes = [(float(nu), float(g)) for nu, g in
             zip(rng.uniform(0.5, 1.5, n_modes), rng.uniform(-0.1, 0.1, n_modes))]
    h_b, x = kron_chain_mode_bath(modes)
    bath = qubit_mode_bath(modes, 1.0, broadening=0.1)
    assert np.array_equal(bath.h_b, h_b)
    assert np.array_equal(bath.coupling_ops[0], x)


def test_correlation_table_kept_once_per_bath():
    rng = np.random.default_rng(36)
    h_b = random_hermitian(rng, 6)
    x = random_hermitian(rng, 6) + 0.7 * np.eye(6)
    bath = FiniteBath(h_b, 0.8, [x], broadening=0.6)
    table = estimate_correlation_time(bath)
    assert estimate_correlation_time(bath) is table
    with pytest.raises(ValueError):
        table.values[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        table.taus[0] = 1.0
    # the centred copy has other correlations: its own table, as a fresh bath's
    shifted, _ = center_couplings(bath, [sigma_ops()[0]])
    own = estimate_correlation_time(shifted)
    assert own is not table
    fresh = estimate_correlation_time(
        FiniteBath(h_b, 0.8, shifted.coupling_ops, broadening=0.6))
    assert np.array_equal(own.taus, fresh.taus)
    assert np.abs(own.values - fresh.values).max() < 1e-12
    assert own.tau_b_estimate == fresh.tau_b_estimate
    assert np.abs(own.values - table.values).max() > 0.1
    assert estimate_correlation_time(bath) is table


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


def _table_test_bath(kind):
    rng = np.random.default_rng(37)
    if kind.startswith("dense-"):
        channels = int(kind[len("dense-"):])
        xs = [random_hermitian(rng, 6) for _ in range(channels)]
        return FiniteBath(random_hermitian(rng, 6), 1.1, xs, broadening=0.5)
    if kind == "mode-comb":
        return qubit_mode_bath([(0.94, 0.02), (0.97, 0.025), (1.01, 0.018),
                                (1.05, 0.022), (1.08, 0.02)], 1.5)
    if kind == "zero-channel":
        xs = [random_hermitian(rng, 5), np.zeros((5, 5)), random_hermitian(rng, 5)]
        return FiniteBath(random_hermitian(rng, 5), 0.9, xs, broadening=0.4)
    if kind == "low-temperature":
        h_b = np.diag([0.0, 0.3, 1.0, 2.0, 3.5]) + 0.05 * random_hermitian(rng, 5)
        xs = [random_hermitian(rng, 5), random_hermitian(rng, 5)]
        return FiniteBath(h_b, 0.002, xs, broadening=0.3)
    if kind == "centred":
        xs = [random_hermitian(rng, 6) + 0.8 * np.eye(6), random_hermitian(rng, 6)]
        bath = FiniteBath(random_hermitian(rng, 6), 0.7, xs, broadening=0.6)
        return center_couplings(bath, [random_hermitian(rng, 3) for _ in xs])[0]
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["dense-1", "dense-2", "dense-3", "mode-comb",
                                  "zero-channel", "low-temperature", "centred"])
def test_finite_bath_rates_match_per_element_reference(kind):
    bath = _table_test_bath(kind)
    if kind == "low-temperature":
        # some Gibbs weights underflow to exactly 0 and leave the table
        assert (bath._populations == 0).any()
        assert (bath.transitions[1] > 0).all()
    for omega in (-2.3, -1.0, 0.0, 0.45, 1.0, 3.1):
        w = reference_w_matrix(bath, omega)
        scale = max(1.0, float(np.abs(w).max()))
        gamma = gamma_matrix(bath, omega)
        delta = delta_matrix(bath, omega)
        assert np.abs(gamma - (w + w.conj().T)).max() < 1e-12 * scale
        assert np.abs(delta - (w - w.conj().T) / 2j).max() < 1e-12 * scale
        k = bath.channel_count
        single = [[half_fourier_w(bath, a, b, omega) for b in range(k)] for a in range(k)]
        assert np.abs(np.array(single) - w).max() < 1e-12 * scale
    assert np.array_equal(bath.weighted_bohr_frequencies(),
                          reference_weighted_bohr_frequencies(bath))


def test_transition_table_is_read_only():
    bath = _table_test_bath("dense-2")
    for array in bath.transitions:
        with pytest.raises(ValueError):
            array[0] = 0


def _rate_baths():
    rng = np.random.default_rng(81)
    omegas = np.array([-2.5, -1.0, 0.0, 0.4, 1.0, 2.5])
    entries = []
    for omega in omegas:
        m = crandn(rng, 2, 2)
        entries.append((omega, m @ m.conj().T, random_hermitian(rng, 2)))
    sx, _, sz, _ = sigma_ops()
    finite = FiniteBath(random_hermitian(rng, 4), 0.8,
                        [np.kron(sx, np.eye(2)), np.kron(np.eye(2), sz)])
    return omegas, {
        "table": table_bath(entries),
        "flat-thermal": flat_thermal_bath(0.4, 0.9, gamma_dephasing=0.1, channel_count=2),
        "finite": finite,
    }


@pytest.mark.parametrize("kind", ["table", "flat-thermal", "finite"])
def test_stacked_rates_equal_the_scalar_calls(kind):
    omegas, baths = _rate_baths()
    bath = baths[kind]
    for fn in (gamma_matrix, delta_matrix):
        stack = fn(bath, omegas)
        assert stack.shape == (len(omegas), 2, 2)
        for omega, m in zip(omegas, stack):
            assert m.tobytes() == fn(bath, omega).tobytes()
        assert fn(bath, omegas[:0]).shape == (0, 2, 2)


def _faulty_bath(matrices):
    """An analytic bath that answers each omega in matrices with its matrix
    (Gamma and Delta alike) and misses any other omega like a table."""
    def lookup(omega):
        if omega not in matrices:
            raise ValueError(f"no table entry for omega={omega:g}")
        return matrices[omega]
    return AnalyticBath(lookup, lookup, channel_count=2)


GOOD = np.eye(2)
NEGATIVE = np.diag([0.2, -0.7])
SKEW = np.array([[0.2, 0.05], [0.3, 0.2]])
INFINITE = np.array([[np.inf, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("name, matrices, omegas, message", [
    ("non-PSD before non-hermitian", {0.1: GOOD, 0.2: NEGATIVE, 0.3: SKEW},
     [0.1, 0.2, 0.3], r"Gamma\(0.2\) is not positive semidefinite"),
    ("non-hermitian before non-PSD", {0.1: SKEW, 0.2: NEGATIVE},
     [0.1, 0.2], r"Gamma\(0.1\) is not hermitian"),
    ("non-finite before non-hermitian", {0.1: GOOD, 0.2: INFINITE, 0.3: SKEW},
     [0.1, 0.2, 0.3], r"Gamma\(0.2\) has a non-finite"),
    ("lookup miss after a bad entry", {0.1: NEGATIVE, 0.2: GOOD},
     [0.1, 0.2, 0.5], r"Gamma\(0.1\) is not positive semidefinite"),
    ("shape after a bad entry", {0.1: SKEW, 0.2: np.zeros(2)},
     [0.1, 0.2], r"Gamma\(0.1\) is not hermitian"),
    ("lookup miss after good entries", {0.1: GOOD, 0.2: NEGATIVE},
     [0.1, 0.5, 0.2], r"no table entry for omega=0.5"),
    ("shape after good entries", {0.1: GOOD, 0.2: np.zeros(2), 0.3: SKEW},
     [0.1, 0.2, 0.3], r"Gamma\(0.2\) has shape \(2,\)"),
])
def test_stacked_rate_check_raises_the_first_per_omega_error(name, matrices, omegas,
                                                              message):
    bath = _faulty_bath(matrices)
    with pytest.raises(ValueError, match=message):
        gamma_matrix(bath, np.array(omegas))
    # the per-omega loop raises the same error first
    with pytest.raises(ValueError, match=message):
        for omega in omegas:
            gamma_matrix(bath, omega)


def test_stacked_delta_check_ignores_positivity():
    bath = _faulty_bath({0.1: NEGATIVE, 0.2: SKEW})
    assert delta_matrix(bath, np.array([0.1]))[0].tobytes() == NEGATIVE.astype(
        complex).tobytes()
    with pytest.raises(ValueError, match=r"Delta\(0.2\) is not hermitian"):
        delta_matrix(bath, np.array([0.1, 0.2]))


def _message(fn):
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def test_rate_error_messages_are_unchanged():
    wide = np.array([[1.5e308, 0.0], [0.0, 1.0]]) * (1 + 1j)
    expected = {
        "shape": ("Gamma(0.5) has shape (2,), expected (2, 2)",
                  "Delta(-1.25) has shape (2,), expected (2, 2)"),
        "non-finite": ("Gamma(0.5) has a non-finite or overflowing entry",
                       "Delta(-1.25) has a non-finite or overflowing entry"),
        "overflow": ("Gamma(0.5) has a non-finite or overflowing entry",
                     "Delta(-1.25) has a non-finite or overflowing entry"),
        "skew": ("Gamma(0.5) is not hermitian", "Delta(-1.25) is not hermitian"),
        "negative": ("Gamma(0.5) is not positive semidefinite "
                     "(min eigenvalue -7.000e-01)", None),
    }
    matrices = {"shape": np.zeros(2), "non-finite": INFINITE, "overflow": wide,
                "skew": SKEW, "negative": NEGATIVE}
    for case, (gamma_msg, delta_msg) in expected.items():
        m = matrices[case]
        bath = AnalyticBath(lambda omega, m=m: m, lambda omega, m=m: m, 2)
        for omega in (0.5, np.array([0.5])):
            assert _message(lambda: gamma_matrix(bath, omega)) == gamma_msg, case
        for omega in (-1.25, np.array([-1.25])):
            assert _message(lambda: delta_matrix(bath, omega)) == delta_msg, case

    tables = {
        "table gamma at omega=0.7 is not hermitian (defect 2.500e-01)":
            [(0.7, SKEW, None)],
        "table gamma at omega=-2.1 is not positive semidefinite "
        "(min eigenvalue -5.000e-01)":
            [(-2.1, np.diag([0.2, -0.5]), None)],
        "table delta at omega=0.7 is not hermitian": [(0.7, GOOD, SKEW)],
        "gamma/delta shapes differ at omega=0.7": [(0.7, GOOD, np.eye(3))],
        "gamma at omega=0.7 must be a square matrix, got shape (2,)":
            [(0.7, np.zeros(2), None)],
        "gamma at omega=0.7 contains non-finite entries": [(0.7, INFINITE, None)],
        "inconsistent channel count at omega=1.0": [(0.7, GOOD, None), (1, np.eye(3), None)],
        "table bath needs at least one entry": [],
        "table gamma at omega=1.1 is not positive semidefinite "
        "(min eigenvalue -1.000e+00)":
            [(0.7, GOOD, None), (1.1, np.diag([1.0, -1.0]), None),
             (1.5, np.array([[0.0, 1.0], [0.0, 0.0]]), None)],
    }
    for message, entries in tables.items():
        assert _message(lambda: table_bath(entries)) == message
    assert (_message(lambda: table_bath([(0.7, GOOD, None)], channel_count=3))
            == "table matrices are 2x2, expected 3")
    bath = table_bath([(0.7, GOOD, None)])
    for fn in (gamma_matrix, delta_matrix):
        for omega in (0.3, np.array([0.7, 0.3])):
            assert _message(lambda: fn(bath, omega)) == \
                "no table entry for omega=0.3 (have: 0.7)"


@pytest.mark.parametrize("entries, message", [
    # an earlier entry's bad delta comes before a later entry's bad gamma
    ([(0.7, GOOD, SKEW), (1.1, NEGATIVE, None)], "table delta at omega=0.7"),
    # an entry's gamma comes before its own delta
    ([(0.7, NEGATIVE, SKEW)], "table gamma at omega=0.7 is not positive"),
    # the value checks of the entries before a malformed or wrongly sized
    # one come first, and that entry comes before the entries after it
    ([(0.7, SKEW, None), (1.1, np.zeros(2), None)], "table gamma at omega=0.7"),
    ([(0.7, GOOD, None), (1.1, np.zeros(2), None), (1.5, SKEW, None)],
     "gamma at omega=1.1 must be a square matrix"),
    ([(0.7, NEGATIVE, None), (1.1, np.eye(3), None)], "table gamma at omega=0.7"),
    ([(0.7, GOOD, None), (1.1, np.eye(3), None), (1.5, SKEW, None)],
     "inconsistent channel count at omega=1.1"),
    ([(0.7, GOOD, None), (1.1, SKEW, np.eye(3))], "gamma/delta shapes differ at omega=1.1"),
])
def test_table_bath_rejects_the_first_bad_entry_in_table_order(entries, message):
    with pytest.raises(ValueError, match=message):
        table_bath(entries)
