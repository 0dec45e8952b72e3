"""End-to-end acceptance gate, one test per guaranteed property.

Every derivation guarantee the library advertises is pinned here with its
tolerance and, where relevant, a wall-clock budget. The rest of the suite
exists to localize failures; this file is the contract.
"""

import time

import numpy as np

from lindforge import (
    SecularPolicy,
    apply_rhs,
    bohr_frequencies,
    build_spectrum,
    coarse_graining_f,
    correlation_function,
    derive_generator,
    eigenoperator_decomposition,
    exact_oracle,
    flat_thermal_bath,
    generator_superoperator_matrix,
    kernel_superoperator_matrix,
    partial_trace_bath,
    propagate,
    qubit_mode_bath,
    table_bath,
    timescale_report,
    two_time_correlation,
)
from lindforge.bath import FiniteBath
from lindforge.cli import trace_distance
from lindforge.dynamics import interaction_picture

from _support import random_density, random_hermitian, sigma_ops

COMPLETENESS_TOL = 1e-12
COMMUTATOR_TOL = 1e-10
STRUCTURE_TOL = 1e-12
POSITIVITY_FLOOR = -1e-8
BALANCE_TOL = 1e-6
PAULI_TOL = 1e-10
ORACLE_TD_CAP = 0.05
SCALING_FACTOR = 1.5
SECULAR_LIMIT_TOL = 1e-6
FILTER_ZERO_TOL = 1e-12
CORRELATION_TOL = 1e-10
PICTURE_TOL = 1e-11


def random_spectra_ensemble(seed=401, count=50):
    """50 random hermitian hamiltonians, dims 2-8, degeneracies forced in."""
    rng = np.random.default_rng(seed)
    systems = []
    for i in range(count):
        dim = int(rng.integers(2, 9))
        if i % 3 == 0 and dim >= 3:
            # force a degenerate pair (plus sometimes a triple)
            levels = np.sort(rng.uniform(0.0, 5.0, dim))
            levels[1] = levels[0]
            if i % 6 == 0 and dim >= 4:
                levels[2] = levels[0]
            u = np.linalg.qr(rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))[0]
            h = u @ np.diag(levels) @ u.conj().T
            h = (h + h.conj().T) / 2
        else:
            h = random_hermitian(rng, dim, scale=2.0)
        a = random_hermitian(rng, dim)
        systems.append((h, a))
    return systems


def test_c01_eigenoperator_completeness():
    """sum_Omega A(Omega) reassembles A to 1e-12 across 50 random systems."""
    t0 = time.monotonic()
    worst = 0.0
    for h, a in random_spectra_ensemble():
        s = build_spectrum(h)
        ops = eigenoperator_decomposition(a, s)
        total = sum(ops.terms.values())
        worst = max(worst, float(np.abs(total - a).max()))
    elapsed = time.monotonic() - t0
    assert worst < COMPLETENESS_TOL
    assert elapsed < 5.0


def test_c02_eigenoperator_commutators():
    """[H, A(W)] = -W A(W), adjoint flips the sign, [H, A^dag A] = 0."""
    worst = 0.0
    for h, a in random_spectra_ensemble():
        s = build_spectrum(h)
        ops = eigenoperator_decomposition(a, s)
        for omega, a_om in ops.terms.items():
            d1 = h @ a_om - a_om @ h + omega * a_om
            adj = a_om.conj().T
            d2 = h @ adj - adj @ h - omega * adj
            prod = adj @ a_om
            d3 = h @ prod - prod @ h
            worst = max(worst, float(np.abs(d1).max()),
                        float(np.abs(d2).max()), float(np.abs(d3).max()))
    assert worst < COMMUTATOR_TOL


def _structure_scenario():
    """4-level system on a 5-level bath, two coupling channels."""
    rng = np.random.default_rng(733)
    h = random_hermitian(rng, 4, scale=1.5)
    h_b = random_hermitian(rng, 5, scale=2.0)
    coup = [(random_hermitian(rng, 4), random_hermitian(rng, 5))
            for _ in range(2)]
    bath = FiniteBath(h_b, 1.0, [b for _, b in coup])
    return h, bath, [a for a, _ in coup]


def test_c03_generator_structure():
    """rhs is trace-free and conjugation-covariant in both modes, 1e-12."""
    t0 = time.monotonic()
    h, bath, coup = _structure_scenario()
    spec = build_spectrum(h)
    gaps = np.abs(np.subtract.outer(bohr_frequencies(spec).values,
                                    bohr_frequencies(spec).values))
    min_gap = float(gaps[gaps > 1e-12].min())
    secular = derive_generator(h, bath, coup, mode="secular").generator
    presecular = derive_generator(
        h, bath, coup, mode="presecular",
        policy=SecularPolicy(dt=50.0 / min_gap),
    ).generator

    rng = np.random.default_rng(734)
    worst_trace = 0.0
    worst_conj = 0.0
    for i in range(100):
        if i % 2 == 0:
            rho = random_density(rng, 4)
        else:
            rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for g in (secular, presecular):
            out = apply_rhs(g, rho)
            worst_trace = max(worst_trace, abs(complex(np.trace(out))))
            out_dag = apply_rhs(g, rho.conj().T)
            worst_conj = max(worst_conj,
                             float(np.abs(out_dag - out.conj().T).max()))
    elapsed = time.monotonic() - t0
    assert worst_trace < STRUCTURE_TOL
    assert worst_conj < STRUCTURE_TOL
    assert elapsed < 5.0


def test_c04_positivity_preservation():
    """Two-level thermal damping keeps every sampled state positive."""
    t0 = time.monotonic()
    gamma = 0.25
    sx = sigma_ops()[0]
    h = np.diag([0.0, 1.0]).astype(complex)
    bath = flat_thermal_bath(gamma, 1.0)
    g = derive_generator(h, bath, [sx]).generator

    rng = np.random.default_rng(88)
    times = np.linspace(0.0, 20.0 / gamma, 81)
    worst = 0.0
    for _ in range(20):
        traj = propagate(random_density(rng, 2), g, times)
        worst = min(worst, float(traj.min_eigenvalues.min()))
    elapsed = time.monotonic() - t0
    assert worst > POSITIVITY_FLOOR
    assert elapsed < 10.0


def test_c05_detailed_balance():
    """Stationary populations reach the Boltzmann ratio to 1e-6."""
    gamma, omega, temp = 0.3, 1.2, 0.9
    sx = sigma_ops()[0]
    h = np.diag([0.0, omega]).astype(complex)
    bath = flat_thermal_bath(gamma, temp)
    g = derive_generator(h, bath, [sx]).generator

    rng = np.random.default_rng(89)
    times = np.linspace(0.0, 120.0 / gamma, 25)
    traj = propagate(random_density(rng, 2), g, times, method="expm")
    rho_inf = traj.states[-1]
    ratio = float(rho_inf[1, 1].real / rho_inf[0, 0].real)
    assert abs(ratio - np.exp(-omega / temp)) < BALANCE_TOL


def _four_level_scenario(scale=3e-5, seed=608, n_channels=2):
    """Non-degenerate 4-level system with tabulated rates at every gap.

    Rates are kept weak so the same scenario doubles as the secular-limit
    testbed; structure checks compare entries five orders above tolerance.
    """
    levels = np.array([0.0, 0.9, 2.1, 3.8])
    h = np.diag(levels).astype(complex)
    spec = build_spectrum(h)
    bohr = bohr_frequencies(spec).values

    rng = np.random.default_rng(seed)
    entries = []
    for om in bohr:
        m = (rng.standard_normal((n_channels, n_channels))
             + 1j * rng.standard_normal((n_channels, n_channels)))
        gam = m @ m.conj().T * (scale / n_channels)
        dl = (rng.standard_normal((n_channels, n_channels))
              + 1j * rng.standard_normal((n_channels, n_channels)))
        dl = (dl + dl.conj().T) / 2 * scale
        entries.append((float(om), gam, dl))
    bath = table_bath(entries)
    coup = [random_hermitian(rng, 4) for _ in range(n_channels)]
    return h, bath, coup, bohr


def test_c06_pauli_reduction():
    """Secular superoperator blocks match the assembled rate formulas."""
    h, bath, coup, _ = _four_level_scenario()
    res = derive_generator(h, bath, coup, mode="secular")
    assert not res.pauli.degenerate

    # route one: the standard-form generator, hamiltonian part removed
    m_full = generator_superoperator_matrix(res.generator)
    dim = 4
    ident = np.eye(dim)
    h_eff = res.generator.h_eff
    m_comm = -1j * (np.kron(ident, h_eff) - np.kron(h_eff.T, ident))
    dissipator = m_full - m_comm

    # route two: the rate-tensor kernel assembled from K and kappa alone
    kernel = kernel_superoperator_matrix(res.rate_tensors)
    assert np.abs(dissipator - kernel).max() < PAULI_TOL

    # population block equals gain minus escape in closed form
    gain = res.pauli.gain
    escape = res.pauli.escape
    for a in range(dim):
        row = a * dim + a
        for m in range(dim):
            col = m * dim + m
            expected = gain[a, m] - (escape[a] if a == m else 0.0)
            assert abs(dissipator[row, col] - expected) < PAULI_TOL

    # coherence diagonal decays at the closed-form rate
    decay = res.pauli.coherence_decay
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            idx = b * dim + a
            assert abs(dissipator[idx, idx].real + decay[a, b]) < PAULI_TOL


# weak-coupling oracle scenario: an eight-mode comb straddling the qubit
# frequency; mode positions carry a fixed irregular offset so the finite
# bath does not rephase inside the comparison window
C7_MODE_FREQS = [
    0.9466517888250567, 0.9619077807270838, 0.975023195643077,
    0.9904537424331107, 1.0084630566742057, 1.024893575542738,
    1.0373632729751479, 1.0529387866624487,
]
C7_COUPLING = 5.0e-3
C7_BROADENING = 0.01085
C7_TEMPERATURE = 1.0


def test_c07_weak_coupling_oracle_agreement():
    """Lindblad tracks the exact reduced dynamics over three lifetimes."""
    t0 = time.monotonic()
    sx = sigma_ops()[0]
    h = np.diag([0.0, 1.0]).astype(complex)
    bath = qubit_mode_bath([(f, C7_COUPLING) for f in C7_MODE_FREQS],
                           C7_TEMPERATURE, broadening=C7_BROADENING)
    assert 2 * bath.h_b.shape[0] <= 512

    report = timescale_report(bath, [sx])
    assert report.two_scale_ratio <= 0.05

    res = derive_generator(h, bath, [sx])
    gamma_total = float(res.pauli.escape[0] + res.pauli.escape[1])
    t_a = 1.0 / gamma_total
    times = np.linspace(0.0, 3.0 * t_a, 61)
    rho0 = np.diag([0.5, 0.5]).astype(complex)

    lind = propagate(rho0, res.generator, times)
    orac = exact_oracle(h, bath, [sx], rho0, times)
    max_td = max(trace_distance(a, b)
                 for a, b in zip(lind.states, orac.states))
    assert max_td <= ORACLE_TD_CAP

    # halving the coupling must shrink the error by at least 1.5x
    res_half = derive_generator(h, bath, [0.5 * sx])
    lind_half = propagate(rho0, res_half.generator, times)
    orac_half = exact_oracle(h, bath, [0.5 * sx], rho0, times)
    max_td_half = max(trace_distance(a, b)
                      for a, b in zip(lind_half.states, orac_half.states))
    assert max_td >= SCALING_FACTOR * max_td_half

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0


def test_c08_secular_limit():
    """Presecular generator collapses onto secular at large windows."""
    h, bath, coup, bohr = _four_level_scenario()
    gaps = np.abs(np.subtract.outer(bohr, bohr))
    min_gap = float(gaps[gaps > 1e-12].min())
    dt = 1e3 / min_gap

    secular = derive_generator(h, bath, coup, mode="secular")
    presecular = derive_generator(
        h, bath, coup, mode="presecular",
        policy=SecularPolicy(dt=dt),
    )
    m_sec = generator_superoperator_matrix(secular.generator)
    m_pre = generator_superoperator_matrix(presecular.generator)
    assert np.abs(m_pre - m_sec).max() < SECULAR_LIMIT_TOL

    # the coarse-graining filter vanishes exactly at multiples of 2 pi / dt
    for n in range(1, 7):
        assert abs(coarse_graining_f(2.0 * np.pi * n / dt, dt)) < FILTER_ZERO_TOL


def test_c09_correlation_function_laws():
    """Conjugation and time-translation invariance on random finite baths."""
    rng = np.random.default_rng(555)
    worst = 0.0
    for dim in (2, 3, 5, 9, 16):
        h_b = random_hermitian(rng, dim, scale=1.5)
        xs = [random_hermitian(rng, dim) for _ in range(2)]
        temp = float(rng.uniform(0.5, 2.5)) if dim % 2 else np.inf
        bath = FiniteBath(h_b, temp, xs)
        for _ in range(6):
            a, b = rng.integers(0, 2, 2)
            tau = float(rng.uniform(-4.0, 4.0))
            t1, t2 = rng.uniform(-3.0, 3.0, 2)
            g_ab = correlation_function(bath, a, b, tau)
            g_ba = correlation_function(bath, b, a, -tau)
            worst = max(worst, abs(g_ab - np.conj(g_ba)))
            shifted = two_time_correlation(bath, a, b, float(t1), float(t2))
            direct = correlation_function(bath, a, b, float(t1 - t2))
            worst = max(worst, abs(shifted - direct))
    assert worst < CORRELATION_TOL


def test_c10_picture_invariance():
    """Partial trace commutes with the free interaction-picture rotation."""
    rng = np.random.default_rng(556)
    worst = 0.0
    for d_a, d_b in ((2, 3), (3, 4), (4, 5), (2, 8)):
        h_a = random_hermitian(rng, d_a, scale=1.5)
        h_b = random_hermitian(rng, d_b, scale=1.5)
        h0 = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
        for _ in range(5):
            rho_ab = random_density(rng, d_a * d_b)
            t = float(rng.uniform(0.1, 2.0))
            lhs = partial_trace_bath(
                interaction_picture(rho_ab, h0, t, "to"), d_a, d_b)
            rhs_val = interaction_picture(
                partial_trace_bath(rho_ab, d_a, d_b), h_a, t, "to")
            worst = max(worst, float(np.abs(lhs - rhs_val).max()))
    assert worst < PICTURE_TOL
