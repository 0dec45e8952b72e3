import math
import tracemalloc
import warnings

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
    exact_oracle,
    flat_thermal_bath,
    gamma_matrix,
    gibbs_state,
    half_fourier_w,
    hermitian_eigendecomposition,
    hermitize_coupling,
    qubit_mode_bath,
    table_bath,
    two_time_correlation,
)
from lindforge.bath import (DECAY_THRESHOLD, _boltzmann_weights, _coupling_pattern,
                            _transitions)
from lindforge.linalg import as_hermitian, hermitian_diagonal

from _support import (
    crandn,
    kron_chain_mode_bath,
    random_hermitian,
    record_eigh,
    reference_correlation_time,
    reference_default_broadening,
    reference_expectation,
    reference_transitions,
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


_COMB_RNG = np.random.default_rng(1990)
BROADENING_COMBS = [[(float(nu), 0.05) for nu in _COMB_RNG.uniform(0.5, 1.5, n)]
                    for n in range(2, 11)] + [
    [(1.0, 0.05)] * 6,  # one frequency: degenerate levels
    [(0.5 * k, 0.05) for k in range(1, 7)],  # commensurate
    [(0.9466517888250567, 0.005), (0.9619077807270838, 0.005),
     (1e-10, 0.005)],  # a mode below the tolerance
]


@pytest.mark.parametrize("modes", BROADENING_COMBS)
def test_default_broadening_matches_the_greedy_loop(modes):
    # single linkage and the greedy loop agree wherever no run of
    # sub-tolerance steps spans more than the tolerance
    bath = qubit_mode_bath(modes, 0.8)
    want = reference_default_broadening(bath._energies)
    assert bath.broadening == default_broadening(bath._energies) == want
    levels = np.random.default_rng(len(modes)).permutation(bath._energies)
    assert default_broadening(levels) == want


def test_default_broadening_counts_a_chain_of_bohr_frequencies_once():
    # steps of 0.6e-9 below the tolerance 1e-9 (1 + 1.2e-9) chain the
    # differences near -1, 0 and 1 into three frequencies; the greedy loop
    # kept one more wherever the chain passed the tolerance, seven in all
    top = 1.0 + 1.2e-9
    levels = np.array([0.0, 1.0, 1.0 + 0.6e-9, top])
    chained = 4.0 * (1.0 + top) / 2
    assert reference_default_broadening(levels) == 4.0 * (top + top) / 6
    assert default_broadening(levels) == chained
    x = np.ones((4, 4)) - np.eye(4)
    assert FiniteBath(np.diag(levels), 1.0, [x]).broadening == chained


def test_center_couplings_keeps_a_centred_comb():
    # every <X>_B of a comb is exactly zero: no copy, and a zero shift
    bath = qubit_mode_bath([(0.8, 0.1), (1.1, 0.2), (1.3, 0.05)], 0.7)
    assert bath.expectation(bath.coupling_ops[0]) == 0
    shifted, h_shift = center_couplings(bath, [sigma_ops()[0]])
    assert shifted is bath
    assert h_shift.shape == (2, 2) and not h_shift.any()
    copied = bath._shifted([0j])  # what the shift would have been
    assert copied.coupling_ops[0].tobytes() == bath.coupling_ops[0].tobytes()
    for got, want in zip(copied.transitions, bath.transitions):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(copied._static, bath._static)


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


@pytest.mark.parametrize("kind", ["dense", "comb", "levels"])
def test_expectation_matches_the_eigenbasis_sum(kind):
    # and the dense trace sum_ij X_ij (sigma_B)_ji, which a diagonal H_B (a
    # comb, or levels under a full X) reads off the diagonal of X alone
    rng = np.random.default_rng(35)
    if kind == "dense":
        bath = FiniteBath(random_hermitian(rng, 12), 0.7,
                          [random_hermitian(rng, 12)], broadening=0.3)
    elif kind == "comb":
        bath = qubit_mode_bath([(0.6, 0.2), (1.1, 0.1), (1.9, 0.3), (2.4, 0.15)], 0.9)
    else:
        bath = FiniteBath(np.diag(rng.permutation(np.linspace(-1.0, 2.0, 12))), 1.3,
                          [random_hermitian(rng, 12)], broadening=0.3)
    assert (bath._order is None) == (kind == "dense")
    d = bath.dim
    ops = [bath.coupling_ops[0], crandn(rng, d, d), np.eye(d)]
    ops += [x.conj().T @ x for x in ops]
    for x in ops:
        want = reference_expectation(bath, x)
        scale = max(abs(want), float(np.abs(x).max()))  # a sigma_x mean is 0
        assert abs(bath.expectation(x) - want) <= 1e-13 * scale
        dense = complex(np.sum(x * bath.sigma().T))
        assert abs(bath.expectation(x) - dense) <= 1e-14 * float(np.abs(x).max())


def test_comb_expectation_forms_no_dense_product():
    # a 10-mode comb: one dense d_B x d_B complex array is 16 MiB, and the
    # mean of X reads its diagonal (as_operator's finiteness mask is 1 MiB)
    bath = qubit_mode_bath([(0.5 + 0.1 * k, 0.02) for k in range(10)], 0.8, broadening=0.1)
    x = bath.coupling_ops[0]
    dense = x.nbytes
    tracemalloc.start()
    try:
        mean = bath.expectation(x)
        shifted, _ = center_couplings(bath, [sigma_ops()[0]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mean == 0 and shifted is bath
    assert peak < dense / 4


@pytest.mark.parametrize("diagonal", [[0.0, 1.0 + 1e-3j], [0.0, 1e308j], [2e9 + 3.0j, 0.0],
                                      [0.0, np.nan], [np.inf, 1.0]])
def test_diagonal_hamiltonian_refusals_read_the_diagonal(diagonal):
    # hermitian_diagonal refuses what as_hermitian refuses on the whole
    # matrix, with its message; FiniteBath takes the diagonal route there
    h = np.diag(np.array(diagonal, dtype=complex))
    with pytest.raises(ValueError) as want:
        as_hermitian(h)
    with pytest.raises(ValueError) as got:
        hermitian_diagonal(h)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as bath_error:
        FiniteBath(h, 1.0, [sigma_ops()[0]], broadening=0.5)
    finite = np.isfinite(h).all()
    assert str(bath_error.value) == (str(want.value) if finite
                                     else "h_b contains non-finite entries")


def test_diagonal_hamiltonian_keeps_a_rounding_imaginary_part():
    # an imaginary part within DEFAULT_TOL * max(1, max |h|) passes, and the
    # levels are the real parts
    levels = hermitian_diagonal(np.diag([0.0, 1e3 + 1e-7j, -2.0]))
    assert levels.dtype == float and levels.tolist() == [0.0, 1e3, -2.0]
    bath = FiniteBath(np.diag([0.0, 1.0 + 1e-12j]), 1.0, [sigma_ops()[0]], broadening=0.5)
    assert bath._order is not None and bath._energies.tolist() == [0.0, 1.0]


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


@pytest.mark.parametrize("temperature", [5e-324, 1e-320])
def test_subnormal_temperature_gives_the_ground_state_without_a_warning(temperature):
    # E / T overflows to inf for every excited level, and exp(-inf) = 0 is
    # the T -> 0 limit, not a fault to warn about
    sx, _, _, _ = sigma_ops()
    x = np.kron(sx, np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bath = FiniteBath(np.diag([0.4, 0.0, 1.1, 0.7]), temperature, [x], broadening=0.1)
    assert np.array_equal(bath.sigma(), np.diag([0.0, 1.0, 0.0, 0.0]))


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


@pytest.mark.parametrize("channels", [1, 3])
def test_flat_thermal_stack_has_the_bits_of_each_omega(channels):
    # one call on an array of omegas gives, byte for byte, the matrices of
    # one call per omega (math.expm1 each), the overflowing rates included
    omegas = np.concatenate((np.random.default_rng(4).standard_normal(200) * 5,
                             [0.0, -0.0, 1e-13, -1e-12, 0.71, -0.71, 1e300, -1e300]))
    for gamma, temp in ((0.2, 1.0), (0.2, 1e-3), (1.7e308, 0.5)):
        bath = flat_thermal_bath(gamma, temp, gamma_dephasing=0.05, channel_count=channels)
        with np.errstate(invalid="ignore"):  # inf times the zeros of the identity
            each = np.array([bath.gamma_fn(w) for w in omegas.tolist()])
            assert bath.gamma_fn(omegas).tobytes() == each.tobytes()


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


def test_table_lookup_is_argmin_on_an_unsorted_table_with_ties():
    # out of order; 0.5 three times; 2.0 exactly h from two entries;
    # -1.2e-8 rounds to one distance from -3e-9 and the float below it; a
    # tie goes to the entry first in table order, as np.argmin has it
    tiny, h = -3e-9, 2.0**-30
    omegas = [2.0 + h, 0.5, -2.0, 0.5, 3.0, tiny, 0.0, np.nextafter(tiny, -1.0),
              0.5, -0.25, 1.5, -1e-300, 2.0 - h, 1.5]
    assert abs(-1.2e-8 - tiny) == abs(-1.2e-8 - np.nextafter(tiny, -1.0))
    bath = table_bath([(w, (i + 1.0) * np.eye(1), -(i + 1.0) * np.eye(1))
                       for i, w in enumerate(omegas)])
    queries = [2.0, -1.2e-8, 0.0, -1e-301, 1e-300, 5e-9, -2.0 + 1e-9, 0.5, 1.5 - 1e-9,
               3.0 + 2e-8, 2.0 - h / 2, 0.5 + 2**-40, np.nextafter(tiny, 1.0)]
    queries += omegas
    rows = [int(np.argmin(np.abs(np.array(omegas) - w))) for w in queries]
    assert rows[:3] == [0, 5, 6]
    calls = []
    for name, sign in (("gamma_fn", 1.0), ("delta_fn", -1.0)):
        fn = getattr(bath, name)

        def counted(omega, fn=fn):
            calls.append(np.shape(omega))
            return fn(omega)

        counted.stacked = True
        setattr(bath, name, counted)
        rate = gamma_matrix if name == "gamma_fn" else delta_matrix
        want = sign * (np.array(rows) + 1.0)
        assert np.array_equal(rate(bath, np.array(queries))[:, 0, 0], want)
        assert [rate(bath, w)[0, 0] for w in queries] == want.tolist()
    # one call answers each stack, one call each scalar omega
    assert calls == ([(len(queries),)] + [()] * len(queries)) * 2


def test_table_lookup_misses_name_the_first_miss_in_order():
    bath = table_bath([(1.0, np.eye(1), None), (-1.0, 2.0 * np.eye(1), None)])
    known = "(have: 1, -1)"
    for fn in (gamma_matrix, delta_matrix):
        for omegas, miss in (([1.0, 0.5, 2.0], 0.5), ([-1.0, 1.0 + 2e-8, 0.5], 1.00000002),
                             ([1.0 + 1e-8, 3e-9], 3e-09)):
            with pytest.raises(ValueError) as err:
                fn(bath, np.array(omegas))
            assert str(err.value) == f"no table entry for omega={miss:g} {known}"
        # within 1e-8 * max(1, |omega|) is a match
        hits = fn(bath, np.array([1.0 + 1e-8, -1.0 - 0.9e-8]))[:, 0, 0]
        assert hits.tolist() == ([1.0, 2.0] if fn is gamma_matrix else [0.0, 0.0])


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


def test_correlation_time_grid_at_a_frequency_near_the_float_limit():
    # 16 nu_max overflows at nu = 1e308; the grid step pi / 16 / nu_max does not
    bath = qubit_mode_bath([(1.0, 0.1), (1e308, 0.1)], 1.0, broadening=0.1)
    table = estimate_correlation_time(bath)
    assert len(table.taus) >= 64
    assert np.isfinite(table.taus).all() and np.isfinite(table.values).all()
    assert 0.0 < table.tau_b_estimate < math.inf


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


@pytest.mark.parametrize("kind", ["comb", "levels"])
def test_transition_table_matches_the_loop_reference(kind):
    # ties in nu keep (z, xi) order, and unpopulated levels carry nothing
    rng = np.random.default_rng(405)
    if kind == "comb":  # repeated modes: many transitions share a frequency
        bath = qubit_mode_bath([(1.0, 0.1)] * 3 + [(2.0, -0.05)] * 2, 0.005)
        energies, populations, pattern = bath._energies, bath._populations, bath._pattern()
        v = bath._basis  # a permutation: X in the sorted-level basis, exactly
        x_eig = [v.T @ x @ v for x in bath.coupling_ops]
        assert (populations == 0).any()
    else:  # repeated levels, two sparse channels, some levels unpopulated
        energies = np.sort(np.round(rng.normal(size=12), 1))
        x_eig = [random_hermitian(rng, 12) * (rng.random((12, 12)) < 0.4) for _ in range(2)]
        populations = rng.random(12) * (rng.random(12) < 0.7)
        pattern = _coupling_pattern(x_eig, 12)
    (amps, pop, nu), z, xi = _transitions(pattern, energies, populations)
    (want_amps, want_pop, want_nu), want_z, want_xi = reference_transitions(
        x_eig, energies, populations)
    assert np.array_equal(z, want_z) and np.array_equal(xi, want_xi)
    for got, want in ((amps, want_amps), (pop, want_pop), (nu, want_nu)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dense_bath_keeps_one_read_only_pattern():
    # read off X in the eigenbasis once per bath, and again for a shifted copy
    rng = np.random.default_rng(71)
    bath = FiniteBath(random_hermitian(rng, 9), 1.1,
                      [random_hermitian(rng, 9), random_hermitian(rng, 9)])
    pattern = bath._pattern()
    assert bath._pattern() is pattern
    assert not any(array.flags.writeable for array in pattern)
    v = bath._basis
    for b in (bath, bath._shifted([0.3, -0.2j])):
        x_eig = [v.conj().T @ x @ v for x in b.coupling_ops]
        want = _coupling_pattern(b._x_eig, 9)
        assert all(np.array_equal(got, w) for got, w in zip(b._pattern(), want))
        assert np.abs(_coupling_pattern(x_eig, 9)[2] - b._pattern()[2]).max() < 1e-12


@pytest.mark.parametrize("kind, d", [("comb", 4), ("comb", 256), ("levels", 24)])
def test_diagonal_bath_is_the_dense_route_bitwise(kind, d, monkeypatch):
    # on distinct levels the dense route's products multiply by exact zeros
    # and ones, so the diagonal route's gathers give the same bytes
    rng = np.random.default_rng(390 + d)
    sizes = record_eigh(monkeypatch)
    if kind == "comb":
        n = d.bit_length() - 1
        bath = qubit_mode_bath(list(zip(rng.uniform(0.5, 1.5, n),
                                        rng.uniform(-0.1, 0.1, n))), 0.8)
    else:  # distinct levels of both signs in no order, two channels
        levels = rng.permutation(np.linspace(-3.0, 2.0, d))
        bath = FiniteBath(np.diag(levels), 1.3,
                          [random_hermitian(rng, d), random_hermitian(rng, d)])
    assert bath.dim == d and sizes == []
    w, v = hermitian_eigendecomposition(bath.h_b)
    p = _boltzmann_weights(w, bath.temperature)
    x_eig = [v.conj().T @ x @ v for x in bath.coupling_ops]
    same = lambda a, b: a.tobytes() == b.tobytes()
    assert same(bath._energies, w) and same(bath._basis, v)
    assert same(bath._populations, p)
    assert same(bath.sigma(), (v * p) @ v.conj().T)
    pattern = _coupling_pattern(x_eig, d)
    assert all(same(a, b) for a, b in zip(bath._pattern(), pattern))
    assert all(same(a, b) for a, b in zip(bath.transitions, _transitions(pattern, w, p)[0]))


def _turned(bath, rng):
    """The same bath in a basis turned by a real orthogonal matrix: H_B is
    no longer diagonal, so FiniteBath takes the dense route."""
    q, _ = np.linalg.qr(rng.standard_normal((bath.dim, bath.dim)))
    return FiniteBath(q @ bath.h_b @ q.T, bath.temperature,
                      [q @ x @ q.T for x in bath.coupling_ops], bath.broadening)


@pytest.mark.parametrize("kind, d", [("comb", 4), ("comb", 64), ("levels", 6),
                                     ("levels", 64)])
def test_degenerate_diagonal_bath_agrees_with_the_dense_route(kind, d):
    # eigh may order equal levels otherwise than the stable argsort (with
    # OpenBLAS it does at dimension 64), so the routes agree in what they
    # compute, not in bytes
    rng = np.random.default_rng(398)
    if kind == "comb":
        n = d.bit_length() - 1  # equal mode frequencies repeat levels
        bath = qubit_mode_bath([(1.0, 0.05), (0.5, 0.03)] * (n // 2) + [(1.0, 0.04)] * (n % 2),
                               0.9, broadening=0.2)
    else:  # a few negative and positive levels, each repeated
        levels = rng.choice([-1.5, -0.25, 0.0, 0.75, 2.0], d)
        bath = FiniteBath(np.diag(levels), 1.1, [random_hermitian(rng, d, 0.05),
                                                random_hermitian(rng, d, 0.05)],
                          broadening=0.3)
    dense = _turned(bath, rng)
    assert bath._order is not None and dense._order is None
    k = bath.channel_count
    for a in range(k):
        for b in range(k):
            for tau in (-0.7, 0.0, 1.3, 9.0):
                assert abs(correlation_function(bath, a, b, tau)
                           - correlation_function(dense, a, b, tau)) < 1e-12
            for t1, t2 in ((0.0, 0.0), (0.4, 1.7), (2.3, -0.6)):
                assert abs(two_time_correlation(bath, a, b, t1, t2)
                           - two_time_correlation(dense, a, b, t1, t2)) < 1e-12
    for omega in (-2.0, 0.0, 0.5, 1.0):
        assert np.abs(bath.w_matrix(omega) - dense.w_matrix(omega)).max() < 1e-12
    sx, _, sz, _ = sigma_ops()
    couplings = [sx, sz][:k]
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    times = np.linspace(0.0, 12.0, 7)
    states = exact_oracle(np.diag([0.0, 1.0]), bath, couplings, rho0, times).states
    dense_states = exact_oracle(np.diag([0.0, 1.0]), dense, couplings, rho0, times).states
    assert np.abs(states - dense_states).max() < 1e-12


def test_eight_mode_comb_agrees_with_the_turned_dense_route():
    # distinct mode frequencies, d_B = 256: the comb's pattern route (levels,
    # populations, X on its 8 nonzeros per row) against the same bath turned
    # so that the dense route diagonalises it and keeps every array
    rng = np.random.default_rng(399)
    bath = qubit_mode_bath(list(zip(rng.uniform(0.5, 1.5, 8), rng.uniform(0.02, 0.06, 8))),
                           0.9, broadening=0.2)
    dense = _turned(bath, rng)
    assert bath.dim == 256 and bath._order is not None and dense._order is None
    for tau in (-0.7, 0.0, 1.3, 9.0):
        assert abs(correlation_function(bath, 0, 0, tau)
                   - correlation_function(dense, 0, 0, tau)) < 1e-12
    for t1, t2 in ((0.0, 0.0), (0.4, 1.7), (2.3, -0.6)):
        assert abs(two_time_correlation(bath, 0, 0, t1, t2)
                   - two_time_correlation(dense, 0, 0, t1, t2)) < 1e-12
    for omega in (-2.0, 0.0, 0.5, 1.0):
        assert np.abs(bath.w_matrix(omega) - dense.w_matrix(omega)).max() < 1e-12
    sx = sigma_ops()[0]
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    times = np.linspace(0.0, 12.0, 7)
    states = exact_oracle(np.diag([0.0, 1.0]), bath, [sx], rho0, times).states
    dense_states = exact_oracle(np.diag([0.0, 1.0]), dense, [sx], rho0, times).states
    assert np.abs(states - dense_states).max() < 1e-12
    assert np.abs(states[-1] - states[0]).max() > 1e-3


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


@pytest.mark.parametrize("kind", ["low-temperature", "first-window", "commuting"])
def test_correlation_table_edge_cases_match_reference(kind):
    if kind == "low-temperature":
        # zero Gibbs weights leave some -nu of the table without its +nu
        bath = _table_test_bath(kind)
        nu = bath.transitions[2]
        assert not np.isin(-nu[nu < 0], nu).all()
    elif kind == "first-window":
        # a near-degenerate pair stretches the grid, and 24 levels at
        # infinite temperature have dephased by its first step
        rng = np.random.default_rng(5)
        levels = np.sort(rng.uniform(0.0, 10.0, 24))
        levels[1] = levels[0] + 1e-3
        bath = FiniteBath(np.diag(levels), math.inf, [random_hermitian(rng, 24)],
                          broadening=0.4)
    else:  # X commutes with H_B: only nu = 0 carries weight
        bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [np.diag([1.0, 2.0])], broadening=1.0)
    table = estimate_correlation_time(bath)
    ref = reference_correlation_time(bath)
    assert np.array_equal(table.taus, ref.taus)
    assert table.values.shape == ref.values.shape
    assert np.abs(table.values - ref.values).max() < 1e-12
    assert table.tau_b_estimate == ref.tau_b_estimate
    assert table.non_decaying == ref.non_decaying
    if kind == "first-window":
        assert table.tau_b_estimate == table.taus[1] and not table.non_decaying


def _dense_decay_rule(table):
    """(tau_b, non_decaying) from one scan of the whole envelope of the
    table's values: the first i >= 1 whose columns i..2i all stay at or
    below 5% of max |G(0)|; a table without one keeps its own tau_b."""
    envelope = np.abs(table.values).max(axis=(0, 1))
    below = envelope <= DECAY_THRESHOLD * envelope[0]
    for i in range(1, (len(below) - 1) // 2 + 1):
        if below[i:2 * i + 1].all():
            return float(table.taus[i]), False
    return table.tau_b_estimate, True


def _far_level_bath(seed):
    """40 levels uniform on [0, 10] and one at 1e307 or 2e307, infinite
    temperature: the far transitions' |nu| tau_end overflows, so their
    phase rows are taken by repeated squaring."""
    rng = np.random.default_rng(seed)
    levels = np.append(rng.uniform(0.0, 10.0, 40), [1e307, 2e307][seed % 2])
    return FiniteBath(np.diag(levels), math.inf, [random_hermitian(rng, 41)],
                      broadening=0.4)


@pytest.mark.parametrize("kind, seed, decays", [
    *[("dense", seed, True) for seed in range(4)],
    *[("thermal", seed, False) for seed in range(4)],
    ("far", 0, False), ("far", 1, True), ("far", 2, True), ("far", 5, False)])
def test_windowed_decay_rule_matches_the_dense_scan(kind, seed, decays):
    # tau_b_estimate is decided from the grid columns its windows read;
    # values, built afterwards from the same columns and the rest, give
    # the same decision when the whole envelope is scanned at once
    if kind == "far":
        bath = _far_level_bath(seed)
    else:
        rng = np.random.default_rng(seed)
        # 40 levels at infinite temperature dephase; 6-10 thermal ones recur
        dim, temp = (40, math.inf) if kind == "dense" else (6 + 2 * (seed % 3), 0.7)
        bath = FiniteBath(random_hermitian(rng, dim), temp,
                          [random_hermitian(rng, dim) for _ in range(1 + seed % 2)],
                          broadening=0.4)
    table = estimate_correlation_time(bath)
    decision = (table.tau_b_estimate, table.non_decaying)
    assert table.non_decaying is not decays
    assert _dense_decay_rule(table) == decision
    assert np.isfinite(table.values).all()
    if kind != "far":
        # the per-pair reference samples no phase past the float range
        ref = reference_correlation_time(bath)
        assert decision == (ref.tau_b_estimate, ref.non_decaying)
        assert np.array_equal(table.taus, ref.taus)
        assert np.abs(table.values - ref.values).max() < 1e-12


def test_correlation_time_of_a_dense_256_level_bath_stays_small():
    # 32641 distinct |nu| on a 4096-column grid: one 512-column phase chunk
    # was 267 MB. The decay rule reads blocks of a few columns, each at
    # most PHASE_ENTRIES phases, and reading tau_b builds no values table
    rng = np.random.default_rng(32)
    bath = FiniteBath(random_hermitian(rng, 256), math.inf, [random_hermitian(rng, 256)],
                      broadening=0.4)
    tracemalloc.start()
    try:
        table = estimate_correlation_time(bath)
        tau_b = table.tau_b_estimate
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.taus) == 4096 and not table.non_decaying
    assert 0.0 < tau_b < table.taus[-1] / 2
    assert peak < 32 * 2**20, peak


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
