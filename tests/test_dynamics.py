import math
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import lindforge.dynamics
import lindforge.generator

from lindforge import (
    DimensionError,
    DissipatorTerm,
    FiniteBath,
    Generator,
    PropagationError,
    SecularPolicy,
    apply_rhs,
    build_spectrum,
    center_couplings,
    derive_generator,
    exact_oracle,
    flat_thermal_bath,
    generator_superoperator_matrix,
    interaction_picture,
    propagate,
    qubit_mode_bath,
    table_bath,
    timescale_report,
    unvec,
    vec,
)

from _support import (
    random_density,
    random_hermitian,
    random_unitary,
    rate_table_bath,
    record_eigh,
    reference_exact_oracle,
    reference_rk4_states,
    sigma_ops,
)

EXPM_TRACE_TOL = 1e-10
RK4_TRACE_TOL = 1e-8
HERM_TOL = 1e-10
POSITIVITY_FLOOR = -1e-8

OMEGA0 = 1.3
GAMMA = 0.21


def damping_bath(gamma_down, gamma_up=0.0):
    one = np.array([[1.0]], dtype=complex)
    return table_bath(
        [
            (OMEGA0, gamma_down * one, None),
            (-OMEGA0, gamma_up * one, None),
            (0.0, 0.0 * one, None),
        ]
    )


def damping_generator(gamma_down, gamma_up=0.0, **options):
    sx, _, _, _ = sigma_ops()
    h = np.diag([0.0, OMEGA0]).astype(complex)
    return derive_generator(h, damping_bath(gamma_down, gamma_up), [sx],
                            **options).generator


def test_liouvillian_of_trivial_generator_is_zero():
    gen = Generator(h_eff=np.zeros((2, 2), dtype=complex), dissipator_terms=())
    assert np.abs(generator_superoperator_matrix(gen)).max() == 0.0


def test_superoperator_is_capped_before_allocation():
    dim = 91  # dim^2 = 8281 exceeds linalg.MAX_TENSOR_DIM = 8192
    gen = Generator(h_eff=np.zeros((dim, dim), dtype=complex), dissipator_terms=())
    rho0 = np.eye(dim, dtype=complex) / dim
    with pytest.raises(DimensionError):
        generator_superoperator_matrix(gen)
    # rk4 steps the same one block, so both methods refuse before allocating
    for method in ("expm", "rk4"):
        with pytest.raises(DimensionError, match="superoperator would be 8281x8281"):
            propagate(rho0, gen, [0.0, 1.0], method=method)


def test_liouvillian_of_free_evolution_has_bohr_eigenvalues():
    h = np.diag([0.0, OMEGA0]).astype(complex)
    gen = Generator(h_eff=h, dissipator_terms=())
    evals = np.sort_complex(np.linalg.eigvals(generator_superoperator_matrix(gen)))
    expected = np.sort_complex([0.0, 0.0, -1j * OMEGA0, 1j * OMEGA0])
    assert np.abs(evals - expected).max() < 1e-12


def test_liouvillian_of_damped_qubit_has_known_spectrum():
    gen = damping_generator(GAMMA)
    evals = np.linalg.eigvals(generator_superoperator_matrix(gen))
    expected = np.sort_complex(
        [0.0, -GAMMA, -0.5 * GAMMA + 1j * OMEGA0, -0.5 * GAMMA - 1j * OMEGA0]
    )
    assert np.abs(np.sort_complex(evals) - expected).max() < 1e-10


@pytest.mark.parametrize("options", [
    {"mode": "secular"},
    {"mode": "presecular",
     "policy": SecularPolicy(dt=3.0 / OMEGA0)},
], ids=["secular", "presecular"])
def test_liouvillian_matches_rhs(options):
    rng = np.random.default_rng(61)
    gen = damping_generator(GAMMA, 0.08, **options)
    mat = generator_superoperator_matrix(gen)
    for _ in range(5):
        rho = random_density(rng, 2)
        assert np.abs(unvec(mat @ vec(rho), 2) - apply_rhs(gen, rho)).max() < 1e-12


def dense_expm_states(rho0, g, times):
    """The dense reference for propagate's expm: the d^2 x d^2 superoperator
    exponentiated afresh for every step."""
    import scipy.linalg

    mat = generator_superoperator_matrix(g)
    v = vec(rho0)
    states = [rho0]
    for gap in np.diff(times):
        v = scipy.linalg.expm(mat * gap) @ v
        states.append(unvec(v, g.dim))
    return np.array(states)


def random_secular_result(levels, n_channels, rotated, tol, seed, **options):
    rng = np.random.default_rng(seed)
    dim = len(levels)
    u = random_unitary(rng, dim) if rotated else np.eye(dim)
    h = u @ np.diag(np.array(levels, dtype=complex)) @ u.conj().T
    ops = [random_hermitian(rng, dim) for _ in range(n_channels)]
    bath = rate_table_bath(build_spectrum(h, tol), n_channels, rng)
    return (derive_generator(h, bath, ops, degeneracy_tol=tol, **options),
            random_density(rng, dim))


# levels, channels, user basis rotated, degeneracy tolerance (None: default)
BLOCK_CASES = {
    "nondegenerate": ([0.0, 0.9, 2.1, 3.8], 1, False, None),
    "degenerate": ([0.0, 0.0, 1.3, 1.3, 1.3, 2.9], 1, False, None),
    "rotated": ([0.0, 0.9, 2.1, 3.8], 1, True, None),
    "two-channel": ([0.0, 0.9, 2.1, 3.8], 2, True, None),
    "shared-gap": ([0.0, 1.0, 2.0, 3.5], 1, True, None),
    # two channels with off-diagonal Delta: the Lamb shift mixes a multiplet
    "lamb-shift-mixes-multiplet": ([0.0, 0.0, 1.3, 1.3, 1.3, 2.9], 2, True, None),
    # gaps 0.52, 0.56 and 0.59 chain into one Bohr frequency whose K entries
    # cross labels, which merges their blocks
    "chained-merge": ([0.0, 0.52, 1.69, 2.25, 2.41, 3.0], 2, True, 0.05),
}
# unequal steps, so several exponentials are cached
BLOCK_TIMES = [0.0, 0.5, 1.0, 1.7, 2.4, 4.0, 5.6]


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_secular_expm_blocks_match_dense_superoperator(case):
    levels, n_channels, rotated, tol = BLOCK_CASES[case]
    res, rho0 = random_secular_result(levels, n_channels, rotated, tol,
                                      [71, len(case)])
    g = res.generator
    blocks = g.bohr_blocks
    assert blocks is not None
    got = propagate(rho0, g, BLOCK_TIMES).states
    want = dense_expm_states(rho0, g, BLOCK_TIMES)
    assert np.abs(got - want).max() < 1e-12
    # each block's indices, in ascending order, cover every coherence once
    index = np.concatenate([idx.ravel() for idx, _ in blocks.groups])
    assert np.array_equal(np.sort(index), np.arange(g.dim ** 2))
    labels = res.spectrum.bohr_index.ravel(order="F")
    n_labels = np.unique(labels).size
    n_blocks = sum(len(idx) for idx, _ in blocks.groups)
    if case == "chained-merge":
        assert n_blocks < n_labels
    else:
        assert n_blocks == n_labels
        for idx, _ in blocks.groups:
            assert (labels[idx] == labels[idx[:, :1]]).all()
    if case == "lamb-shift-mixes-multiplet":
        v = res.spectrum.basis
        h_ls = v.conj().T @ g.h_ls @ v
        assert abs(h_ls[2, 3]) > 1e-3


# gaps 1.0 and 1.16 from level 0 chain into one Bohr frequency, so the
# escape sum links levels 1 and 2 of different multiplets
CHAINED_GAP = ([0.0, 1.0, 1.16, 2.08], 2, True, 0.1)


def test_chaining_across_multiplets_steps_on_the_bohr_blocks():
    res, rho0 = random_secular_result(*CHAINED_GAP, 72)
    kappa = res.rate_tensors.kappa
    assert abs(kappa[1, 2]) > 1e-3 * np.abs(kappa).max()
    blocks = res.generator.bohr_blocks
    assert blocks is not None
    assert max(idx.shape[1] for idx, _ in blocks.groups) < res.spectrum.dim ** 2
    got = propagate(rho0, res.generator, BLOCK_TIMES).states
    assert np.abs(got - dense_expm_states(rho0, res.generator, BLOCK_TIMES)).max() < 1e-12


# 21 equal steps, one longer step, then three of the first length again:
# runs of 21, 1 and 3 steps, the first and last on one step propagator
RUNS_TIMES = np.concatenate([np.linspace(0.0, 2.0, 22),
                             2.5 + np.arange(4) * (2.0 / 21)])


def runs_cases():
    """(generator, rho0) pairs: two secular generators with Bohr blocks, then
    a presecular and a hand-built generator, which have none."""
    cases = []
    for case in ("degenerate", "two-channel"):
        res, rho0 = random_secular_result(*BLOCK_CASES[case], 74)
        cases.append((res.generator, rho0))
    res, rho0 = random_secular_result(*BLOCK_CASES["two-channel"], 75,
                                      mode="presecular",
                                      policy=SecularPolicy(dt=3.0))
    cases.append((res.generator, rho0))
    rng = np.random.default_rng(76)
    ops = (random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3),)
    hand_built = Generator(
        h_eff=random_hermitian(rng, 3),
        dissipator_terms=(DissipatorTerm(omega=1.0, gamma=np.array([[0.4]]), ops=ops),))
    cases.append((hand_built, random_density(rng, 3)))
    return cases


def test_block_route_steps_through_runs_of_equal_gaps():
    cases = runs_cases()
    for g, rho0 in cases:
        got = propagate(rho0, g, RUNS_TIMES).states
        assert np.abs(got - dense_expm_states(rho0, g, RUNS_TIMES)).max() < 1e-12
        # a grid of one sample has no step at all
        assert np.array_equal(propagate(rho0, g, [0.0]).states, [rho0])
    # the presecular and hand-built generators step as the one superoperator block
    assert [g.bohr_blocks is None for g, _ in cases] == [False, False, True, True]


def test_a_uniform_grid_is_one_gap_class(monkeypatch):
    # linspace's 40 gaps here are 7 distinct floats a few ulps apart; single
    # linkage on log(gap) makes them one class, so expm runs once per block
    # size, over one gap
    times = np.linspace(0.0, 4.938271560494, 41)
    assert np.unique(np.diff(times)).size == 7
    shapes, expm = [], lindforge.dynamics.expm

    def counted(stack):
        shapes.append(stack.shape)
        return expm(stack)

    monkeypatch.setattr(lindforge.dynamics, "expm", counted)
    for g, rho0 in runs_cases():
        shapes.clear()
        got = propagate(rho0, g, times).states
        assert np.abs(got - dense_expm_states(rho0, g, times)).max() < 1e-12
        sizes = len(g.bohr_blocks.groups) if g.bohr_blocks is not None else 1
        assert [shape[0] for shape in shapes] == [1] * sizes


def test_rk4_matches_the_per_step_loop():
    # the degenerate and hand-built cases of runs_cases; a rotated secular
    # and a three-level presecular generator stand in for the other two,
    # whose 4416 and 3976 steps over 104 and 1352 reference pairs would
    # make the per-step loop slow
    degenerate, _, _, hand_built = runs_cases()
    rotated, rho_rotated = random_secular_result(*BLOCK_CASES["rotated"], 78)
    presecular, rho_pre = random_secular_result(
        [0.0, 0.9, 2.1], 1, True, None, 78, mode="presecular",
        policy=SecularPolicy(dt=3.0))
    cases = [degenerate, (rotated.generator, rho_rotated),
             (presecular.generator, rho_pre), hand_built]
    for g, rho0 in cases:
        got = propagate(rho0, g, RUNS_TIMES, method="rk4").states
        assert np.abs(got - reference_rk4_states(rho0, g, RUNS_TIMES)).max() < 1e-12
        assert np.array_equal(propagate(rho0, g, [0.0], method="rk4").states, [rho0])


def test_secular_rk4_never_forms_the_superoperator(monkeypatch):
    def refuse(g):
        raise AssertionError("superoperator formed")

    monkeypatch.setattr(lindforge.dynamics, "generator_superoperator_matrix", refuse)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    times = np.linspace(0.0, 5.0, 11)
    traj = propagate(rho0, damping_generator(GAMMA, 0.05), times, method="rk4")
    assert traj.complete
    chained, rho_chained = random_secular_result(*CHAINED_GAP, 72)
    assert propagate(rho_chained, chained.generator, times, method="rk4").complete
    # presecular and hand-built generators keep the superoperator route
    presecular = damping_generator(GAMMA, 0.05, mode="presecular",
                                   policy=SecularPolicy(dt=3.0 / OMEGA0))
    for gen in (presecular, negative_rate_generator()):
        with pytest.raises(AssertionError, match="superoperator formed"):
            propagate(rho0, gen, times, method="rk4")


def test_zero_block_is_the_pauli_matrix():
    res, _ = random_secular_result([0.0, 0.9, 2.1, 3.8], 2, True, None, 73)
    dim = res.spectrum.dim
    populations = np.arange(dim) * (dim + 1)  # rho_aa at a + d a
    zero = [mats[r] for index, mats in res.generator.bohr_blocks.groups
            for r in range(len(index)) if np.array_equal(index[r], populations)]
    assert len(zero) == 1
    pauli = res.pauli.gain - np.diag(res.pauli.escape)
    assert np.abs(zero[0] - pauli).max() < 1e-12 * np.abs(pauli).max()


def test_derive_hands_the_secular_generator_its_spectrum_and_rate_tensors():
    sx = sigma_ops()[0]
    h = np.diag([0.0, OMEGA0]).astype(complex)
    res = derive_generator(h, damping_bath(GAMMA, 0.05), [sx])
    assert res.generator.spectrum is res.spectrum
    assert res.generator.rate_tensors is res.rate_tensors
    pre = derive_generator(h, damping_bath(GAMMA, 0.05), [sx], mode="presecular",
                           policy=SecularPolicy(dt=3.0 / OMEGA0))
    assert pre.generator.bohr_blocks is None


def test_secular_expm_never_forms_the_superoperator(monkeypatch):
    def refuse(g):
        raise AssertionError("superoperator formed")

    monkeypatch.setattr(lindforge.dynamics, "generator_superoperator_matrix", refuse)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    times = np.linspace(0.0, 5.0, 11)
    traj = propagate(rho0, damping_generator(GAMMA, 0.05), times)
    assert traj.complete
    chained, rho_chained = random_secular_result(*CHAINED_GAP, 72)
    assert propagate(rho_chained, chained.generator, times).complete
    # presecular and hand-built generators keep the superoperator route
    presecular = damping_generator(GAMMA, 0.05, mode="presecular",
                                   policy=SecularPolicy(dt=3.0 / OMEGA0))
    for gen in (presecular, negative_rate_generator()):
        with pytest.raises(AssertionError, match="superoperator formed"):
            propagate(rho0, gen, times)


def test_largest_block_is_capped_before_allocation(monkeypatch):
    gen = damping_generator(GAMMA)  # blocks: the 2 x 2 populations, two 1 x 1
    monkeypatch.setattr(lindforge.generator, "MAX_TENSOR_DIM", 1)
    with pytest.raises(DimensionError, match="largest secular block would be 2x2"):
        propagate(np.eye(2, dtype=complex) / 2, gen, [0.0, 1.0])


def test_excited_population_decays_exponentially():
    gen = damping_generator(GAMMA)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    times = np.linspace(0.0, 5.0 / GAMMA, 21)
    traj = propagate(rho0, gen, times)
    pops = traj.states[:, 1, 1].real
    assert np.abs(pops - np.exp(-GAMMA * times)).max() < 1e-10
    assert traj.trace_defects.max() < 1e-12
    assert traj.complete


def test_rk4_agrees_with_expm():
    rng = np.random.default_rng(62)
    gen = damping_generator(GAMMA, 0.07)
    rho0 = random_density(rng, 2)
    times = np.linspace(0.0, 6.0, 13)
    t_expm = propagate(rho0, gen, times, method="expm")
    t_rk4 = propagate(rho0, gen, times, method="rk4")
    assert np.abs(t_expm.states - t_rk4.states).max() < 1e-8
    assert t_rk4.trace_defects.max() < RK4_TRACE_TOL


def test_rk4_keeps_the_trace_on_the_population_block():
    # the block that holds the populations steps B itself, whose trace row
    # is a left null vector (it is not one of B - c)
    rng = np.random.default_rng(62)
    gen = damping_generator(GAMMA, 0.07)
    traj = propagate(random_density(rng, 2), gen, np.linspace(0.0, 6.0, 13), method="rk4")
    assert traj.trace_defects.max() <= 1e-13


@pytest.mark.parametrize("rotated", [False, True], ids=["eigenbasis", "rotated"])
def test_lamb_shifted_coherence_follows_its_closed_form(rotated):
    # with Gamma(0) = 0 the coherence rho_01 decouples: it turns at the
    # Lamb-shifted gap omega0 + Delta(omega0) - Delta(-omega0) and decays at
    # the Pauli coherence rate, along the whole trajectory
    rng = np.random.default_rng(64)
    sx, _, _, _ = sigma_ops()
    one = np.array([[1.0]], dtype=complex)
    delta_down, delta_up, gamma_up = 0.043, -0.017, 0.08
    bath = table_bath([(OMEGA0, GAMMA * one, delta_down * one),
                       (-OMEGA0, gamma_up * one, delta_up * one),
                       (0.0, 0.0 * one, None)])
    u = random_unitary(rng, 2) if rotated else np.eye(2, dtype=complex)
    h = u @ np.diag([0.0, OMEGA0]).astype(complex) @ u.conj().T
    res = derive_generator(h, bath, [u @ sx @ u.conj().T])
    decay = res.pauli.coherence_decay[0, 1]
    assert abs(decay - 0.5 * (GAMMA + gamma_up)) < 1e-14
    rho0 = random_density(rng, 2)
    times = np.linspace(0.0, 20.0, 41)
    want = rho0[0, 1] * np.exp((1j * (OMEGA0 + delta_down - delta_up) - decay) * times)
    for method, tol in (("expm", 1e-13), ("rk4", 1e-6)):
        traj = propagate(u @ rho0 @ u.conj().T, res.generator, times, method=method)
        got = (u.conj().T @ traj.states @ u)[:, 0, 1]
        assert np.abs(got - want).max() < tol, method


@pytest.mark.parametrize("dim", [60, 91])
def test_coherent_state_stays_coherent_above_the_dense_cap(dim):
    # the T = 0 damped oscillator (omega / T = 1000 overflows expm1, so
    # nbar = 0, and a flat bath has no Lamb shift): |alpha> stays
    # |alpha e^{-(gamma/2 + i) t}>, at d = 91 past the superoperator cap
    gamma, alpha = 0.1, 2.0
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    h = np.diag(np.arange(float(dim))).astype(complex)
    res = derive_generator(h, flat_thermal_bath(gamma, 1e-3), [lower + lower.conj().T])

    def coherent(z):
        amp = np.empty(dim, dtype=complex)
        amp[0] = np.exp(-0.5 * abs(z) ** 2)
        for n in range(1, dim):
            amp[n] = amp[n - 1] * z / math.sqrt(n)
        return np.outer(amp, amp.conj())

    times = np.linspace(0.0, 30.0, 31)
    want = np.array([coherent(alpha * np.exp(-(0.5 * gamma + 1j) * t)) for t in times])
    # rk4 steps the same Bohr blocks (measured 7.6e-11 off at d = 60, 1.1e-10 at 91)
    for method, tol in (("expm", 1e-13), ("rk4", 5e-10)):
        traj = propagate(coherent(alpha), res.generator, times, method=method)
        assert np.abs(traj.states - want).max() < tol, method


def test_thermal_stationary_state_obeys_detailed_balance():
    sx, _, _, _ = sigma_ops()
    omega, temp = 1.0, 1.0
    h = np.diag([0.0, omega]).astype(complex)
    bath = flat_thermal_bath(0.25, temp)
    gen = derive_generator(h, bath, [sx]).generator
    rho0 = np.diag([0.2, 0.8]).astype(complex)
    times = np.linspace(0.0, 160.0, 9)
    traj = propagate(rho0, gen, times)
    final = traj.states[-1]
    ratio = final[1, 1].real / final[0, 0].real
    assert abs(ratio - math.exp(-omega / temp)) < 1e-6


def test_trajectory_invariants_thermal_qubit():
    rng = np.random.default_rng(63)
    sx, _, _, _ = sigma_ops()
    h = np.diag([0.0, 1.0]).astype(complex)
    gen = derive_generator(h, flat_thermal_bath(0.15, 0.8), [sx]).generator
    times = np.linspace(0.0, 20.0 / 0.15, 41)
    for _ in range(5):
        rho0 = random_density(rng, 2)
        traj = propagate(rho0, gen, times)
        assert traj.trace_defects.max() < EXPM_TRACE_TOL
        assert traj.hermiticity_defects.max() < HERM_TOL
        assert traj.min_eigenvalues.min() > POSITIVITY_FLOOR


def test_exactly_one_stationary_mode_for_ergodic_qubit():
    sx, _, _, _ = sigma_ops()
    h = np.diag([0.0, 1.0]).astype(complex)
    gen = derive_generator(h, flat_thermal_bath(0.2, 1.0), [sx]).generator
    evals = np.linalg.eigvals(generator_superoperator_matrix(gen))
    n_zero = int(np.sum(np.abs(evals.real) <= 1e-10))
    assert n_zero == 1


def negative_rate_generator():
    # a negative rate is unphysical: the excited population grows past one
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    term = DissipatorTerm(
        omega=OMEGA0, gamma=np.array([[-0.5]], dtype=complex), ops=(sm,)
    )
    return Generator(
        h_eff=np.diag([0.0, OMEGA0]).astype(complex),
        dissipator_terms=(term,),
    )


def test_positivity_violation_raises_with_partial_trajectory():
    gen = negative_rate_generator()
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    times = np.linspace(0.0, 6.0, 25)
    with pytest.raises(PropagationError) as err:
        propagate(rho0, gen, times)
    assert err.value.time > 0.0
    assert err.value.defect < -1e-6
    partial = err.value.partial
    assert partial is not None
    assert not partial.complete
    assert len(partial) >= 1


def test_non_finite_state_raises_with_partial_trajectory():
    # rates of 1e300 overflow the superoperator exponential to NaN, whose
    # minimum eigenvalue compares False against any floor; rk4 is left out,
    # it refuses up front the about 4e302 steps its step rule asks for
    sx = sigma_ops()[0]
    gen = derive_generator(np.diag([0.0, 1.0]), flat_thermal_bath(1e300, 1.0),
                           [sx]).generator
    with pytest.raises(PropagationError) as err:
        propagate(np.diag([0.0, 1.0]).astype(complex), gen,
                  np.linspace(0.0, 2.0, 5), method="expm")
    assert err.value.time == 0.5
    assert math.isnan(err.value.defect)
    partial = err.value.partial
    assert not partial.complete
    assert len(partial) == 1
    assert np.isfinite(partial.states).all()


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_overflowing_steps_raise_without_a_warning(method):
    # a rate of -1e3 grows the state past the float range within the run:
    # the steps that overflow to inf and NaN warn nothing, and the first
    # sample that is no density matrix raises
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    term = DissipatorTerm(omega=OMEGA0, gamma=np.array([[-1e3]], dtype=complex), ops=(sm,))
    gen = Generator(h_eff=np.diag([0.0, OMEGA0]).astype(complex), dissipator_terms=(term,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError) as err:
            propagate(np.diag([0.5, 0.5]).astype(complex), gen,
                      np.linspace(0.0, 6.0, 25), method=method)
    assert err.value.time == 0.25
    assert err.value.defect < -1e100
    assert len(err.value.partial) == 1


def record_matrix_defects(monkeypatch):
    """(stack, defects) of every matrix_defects call dynamics makes."""
    calls = []
    original = lindforge.dynamics.matrix_defects

    def recording(states):
        calls.append((np.array(states), original(states)))
        return calls[-1][1]

    monkeypatch.setattr(lindforge.dynamics, "matrix_defects", recording)
    return calls


def assert_rows_of(traj, stack, defects):
    n = len(traj)
    assert np.array_equal(traj.states, stack[:n])
    trace, _, herm, low = defects
    for got, want in zip(
            (traj.trace_defects, traj.hermiticity_defects, traj.min_eigenvalues),
            (trace, herm, low)):
        assert np.array_equal(got, want[:n])


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_propagation_failure_diagnoses_each_sample_once(monkeypatch, method):
    calls = record_matrix_defects(monkeypatch)
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    times = np.linspace(0.0, 6.0, 25)
    with pytest.raises(PropagationError) as err:
        propagate(rho0, negative_rate_generator(), times, method=method)
    partial = err.value.partial
    # one call over every sample, rho0 first, also those after the failure
    assert len(calls) == 1
    stack, defects = calls[0]
    assert len(stack) == len(times) > len(partial) + 1
    assert np.array_equal(stack[0], rho0)
    # the partial trajectory is that call's rows before the failing one
    assert np.array_equal(partial.times, times[:len(partial)])
    assert_rows_of(partial, stack, defects)
    assert defects[3][len(partial)] == err.value.defect
    assert partial.min_eigenvalues.min() >= -1e-6 > err.value.defect


BAD_INITIAL_STATES = {
    "trace-2": np.eye(2),
    "not-hermitian": np.array([[0.5, 0.3], [0.0, 0.5]]),
    "negative": np.diag([1.5, -0.5]),
}


@pytest.mark.parametrize("case", sorted(BAD_INITIAL_STATES))
def test_bad_initial_states_are_refused_by_propagate_and_oracle(case):
    # the one initial-state check: propagate refuses before any sample, the
    # oracle before any diagonalisation; diag(1.5, -0.5) passes the trace
    # and hermiticity checks but is not positive
    rho0 = BAD_INITIAL_STATES[case].astype(complex)
    h_a, sx = np.diag([0.0, 1.0]), sigma_ops()[0]
    gen = derive_generator(h_a, flat_thermal_bath(0.2, 1.0), [sx]).generator
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="^rho0 "):
        propagate(rho0, gen, times)
    bath = qubit_mode_bath([(0.9, 0.05), (1.1, 0.05)], 1.0, broadening=0.1)
    with pytest.raises(ValueError, match="^rho_a0 "):
        exact_oracle(h_a, bath, [sx], rho0, times)


def test_oracle_refuses_a_non_hermitian_system_hamiltonian():
    bath = qubit_mode_bath([(0.9, 0.05), (1.1, 0.05)], 1.0, broadening=0.1)
    with pytest.raises(ValueError, match="system hamiltonian is not hermitian"):
        exact_oracle(np.array([[0.0, 1.0], [0.0, 1.0]]), bath, [sigma_ops()[0]],
                     np.eye(2) / 2, np.linspace(0.0, 1.0, 3))


def test_oracle_diagnoses_its_samples_in_one_call(monkeypatch):
    calls = record_matrix_defects(monkeypatch)
    sx = sigma_ops()[0]
    bath = FiniteBath(np.diag([0.0, 0.9, 2.1]), 1.0, [np.diag([1.0, 0.0, -1.0])],
                      broadening=0.5)
    times = np.linspace(0.0, 5.0, 9)
    traj = exact_oracle(np.diag([0.0, 1.0]), bath, [0.2 * sx],
                        np.diag([0.0, 1.0]), times)
    assert len(calls) == 1
    stack, defects = calls[0]
    assert len(stack) == len(traj) == len(times)
    assert_rows_of(traj, stack, defects)


def test_one_channel_count_refusal():
    # a coupling list of the wrong length gets one message, wherever it is
    # refused
    sx, _, sz, _ = sigma_ops()
    h = np.diag([0.0, 1.0]).astype(complex)
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [sx], broadening=1.0)
    calls = (lambda: derive_generator(h, bath, [sx, sz]),
             lambda: exact_oracle(h, bath, [sx, sz], np.eye(2) / 2, [0.0, 1.0]),
             lambda: center_couplings(bath, [sx, sz]))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "bath provides 1 coupling channels, got 2 system operators"


def test_oracle_zero_coupling_is_free_evolution():
    rng = np.random.default_rng(64)
    levels = np.array([0.0, 0.9, 2.2])
    h = np.diag(levels).astype(complex)
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [np.zeros((2, 2))], broadening=1.0)
    rho0 = random_density(rng, 3)
    times = np.linspace(0.0, 7.0, 11)
    traj = exact_oracle(h, bath, [np.zeros((3, 3))], rho0, times)
    for k, t in enumerate(times):
        phases = np.exp(-1j * np.subtract.outer(levels, levels) * t)
        assert np.abs(traj.states[k] - rho0 * phases).max() < 1e-12
    assert traj.trace_defects.max() < 1e-12


def test_oracle_preserves_trace_with_coupling():
    rng = np.random.default_rng(65)
    sx, _, _, _ = sigma_ops()
    h = np.diag([0.0, 1.0]).astype(complex)
    bath = qubit_mode_bath([(1.0, 0.2), (1.4, 0.15)], 1.0, broadening=0.5)
    rho0 = random_density(rng, 2)
    times = np.linspace(0.0, 12.0, 7)
    traj = exact_oracle(h, bath, [sx], rho0, times)
    assert traj.trace_defects.max() < 1e-10
    assert traj.hermiticity_defects.max() < 1e-12
    assert traj.min_eigenvalues.min() > -1e-10


def test_oracle_real_solver_matches_complex_basis(monkeypatch):
    # a mode comb gives a real joint H (real symmetric solver); the same
    # physics written in a complex-rotated system basis diagonalises H_A on
    # the complex solver, and its real gauge puts the blocks on the real one
    rng = np.random.default_rng(67)
    bath = qubit_mode_bath([(0.95, 0.03), (1.0, 0.04), (1.06, 0.035)], 1.0,
                           broadening=0.1)
    h = np.diag([0.0, 0.98, 2.01]).astype(complex)
    a = np.diag([1.0, np.sqrt(2.0)], 1).astype(complex)
    a = a + a.T
    rho0 = np.array([[0.2, 0.05, 0.0], [0.05, 0.3, 0.1], [0.0, 0.1, 0.5]],
                    dtype=complex)
    times = np.linspace(0.0, 40.0, 9)
    u = random_unitary(rng, 3)
    rot = lambda m: u @ m @ u.conj().T
    dtypes = record_eigh(monkeypatch, key=lambda m: m.dtype)
    real = exact_oracle(h, bath, [a], rho0, times)
    # H_A, then the symmetry blocks: every one on the real solver
    assert len(dtypes) >= 2 and set(dtypes) == {np.dtype(np.float64)}
    n_real = len(dtypes)
    rotated = exact_oracle(rot(h), bath, [rot(a)], rot(rho0), times)
    assert dtypes[n_real] == np.dtype(np.complex128)
    assert dtypes[n_real + 1:] and set(dtypes[n_real + 1:]) == {np.dtype(np.float64)}
    for k in range(len(times)):
        back = u.conj().T @ rotated.states[k] @ u
        assert np.abs(back - real.states[k]).max() < 1e-10
    assert np.abs(real.states[-1] - real.states[0]).max() > 1e-3


@pytest.mark.parametrize("case", ["phase-cycle", "two-channel-gauge"])
def test_oracle_real_gauge_only_where_one_exists(monkeypatch, case):
    # the product A_01 A_12 A_20 = i of the cycle is the same in every gauge,
    # so that coupling stays complex; two channels that are real in one
    # basis share its gauge, however the system basis is turned
    rng = np.random.default_rng(68)
    u = random_unitary(rng, 3)
    rot = lambda m: u @ m @ u.conj().T
    h = rot(np.diag([0.0, 0.97, 2.03]))
    if case == "phase-cycle":
        bath = qubit_mode_bath([(0.95, 0.04), (1.04, 0.05)], 1.1, broadening=0.1)
        ops = [rot(np.array([[0, 1, 1], [1, 0, 1j], [1, -1j, 0]]))]
    else:
        x1 = np.diag([0.3, -0.1, 0.0, 0.2]) + np.diag([0.06, 0.05, 0.07], 1)
        x2 = np.diag([0.04, 0.05], 2) + np.diag([0.03], 3)
        bath = FiniteBath(np.diag([0.0, 0.93, 1.06, 2.01]), 1.2,
                          [x1 + x1.T, x2 + x2.T], broadening=0.2)
        ladder = np.diag([1.0, 0.8], 1) + np.diag([0.3, -0.2, 0.5])
        ops = [rot(ladder + ladder.T), rot(np.diag([0.6], 2) + np.diag([0.6], -2))]
    rho0 = rot(random_density(rng, 3))
    times = np.linspace(0.0, 30.0, 9)
    dtypes = record_eigh(monkeypatch, key=lambda m: m.dtype)
    traj = exact_oracle(h, bath, ops, rho0, times)
    blocks = set(dtypes[1:])
    assert blocks == {np.dtype(np.complex128 if case == "phase-cycle" else np.float64)}
    want = reference_exact_oracle(h, bath, ops, rho0, times)
    assert np.abs(traj.states - want).max() < 1e-12
    assert np.abs(want[-1] - want[0]).max() > 1e-3


WEAK_COMB_FREQS = (0.9466517888250567, 0.9619077807270838, 0.975023195643077,
                   0.9904537424331107, 1.0084630566742057, 1.024893575542738,
                   1.0373632729751479, 1.0529387866624487)


def _ladder(dim, rng):
    a = np.diag(rng.uniform(0.7, 1.3, dim - 1), 1).astype(complex)
    return a + a.T


def _oracle_case(name):
    """(h_a, bath, couplings, rho0, times, bins) of one case."""
    rng = np.random.default_rng(["real-comb", "rotated-weak-comb", "coherent-comb",
                                 "degenerate", "dense-two-channel",
                                 "zero-coupling"].index(name) + 70)
    times = np.linspace(0.0, 60.0, 13)
    comb = lambda n, g: qubit_mode_bath(
        [(f, g) for f in rng.uniform(0.9, 1.1, n)], 1.2, broadening=0.05)
    if name == "real-comb":
        h = np.diag([0.0, 1.02, 1.98]).astype(complex)
        return h, comb(4, 0.05), [_ladder(3, rng)], np.eye(3) / 3, times, 1
    if name == "rotated-weak-comb":
        u = random_unitary(rng, 2)
        rot = lambda m: u @ m @ u.conj().T
        bath = qubit_mode_bath([(f, 5.0e-3) for f in WEAK_COMB_FREQS], 1.0,
                               broadening=0.01085)
        sx = sigma_ops()[0]
        return (rot(np.diag([0.0, 1.0])), bath, [rot(sx)], np.eye(2) / 2,
                np.linspace(0.0, 375.0, 61), 2)
    if name == "coherent-comb":
        # coherences between the parity sectors: off-diagonal block pairs
        h = np.diag([0.0, 0.97, 2.03, 2.99]).astype(complex)
        return h, comb(3, 0.08), [_ladder(4, rng)], random_density(rng, 4), times, 1
    if name == "degenerate":
        # in a rotated basis eigh picks any basis of the degenerate pair
        u = random_unitary(rng, 3)
        rot = lambda m: u @ m @ u.conj().T
        h = rot(np.diag([0.0, 1.0, 1.0]))
        return (h, comb(3, 0.06), [rot(_ladder(3, rng))], random_density(rng, 3),
                times, 1)
    if name == "dense-two-channel":
        bath = FiniteBath(random_hermitian(rng, 6), 1.5,
                          [0.1 * random_hermitian(rng, 6) for _ in range(2)])
        ops = [random_hermitian(rng, 3) for _ in range(2)]
        return np.diag([0.0, 0.8, 1.9]), bath, ops, random_density(rng, 3), times, 1
    # zero coupling: every product state is a block of its own, and the 48
    # blocks share one bin
    bath = comb(4, 0.0)
    return (np.diag([0.0, 0.9, 2.2]), bath, [_ladder(3, rng)],
            random_density(rng, 3), times, 1)


@pytest.mark.parametrize("name", ["real-comb", "rotated-weak-comb",
                                  "coherent-comb", "degenerate",
                                  "dense-two-channel", "zero-coupling"])
def test_block_oracle_matches_dense_reference(monkeypatch, name):
    h, bath, ops, rho0, times, n_bins = _oracle_case(name)
    shapes = record_eigh(monkeypatch, key=np.shape)
    traj = exact_oracle(h, bath, ops, rho0, times)
    # after H_A's own, one 2-D eigh per bin, the bins covering the joint space
    assert shapes[0] == (h.shape[0],) * 2
    assert all(len(shape) == 2 and shape[0] == shape[1] for shape in shapes[1:])
    assert sum(shape[0] for shape in shapes[1:]) == h.shape[0] * bath.dim
    assert len(shapes) - 1 == n_bins
    want = reference_exact_oracle(h, bath, ops, rho0, times)
    assert np.abs(traj.states - want).max() < 1e-12
    assert traj.hermiticity_defects.max() == 0.0
    assert np.abs(want[-1] - want[0]).max() > 1e-3 or name == "zero-coupling"


def test_oracle_rounding_rule_splits_rotated_comb(monkeypatch):
    # without the rounding rule, the rotation's dust on the diagonal of A'
    # joins the two parity sectors into one block
    h, bath, ops, rho0, times, _ = _oracle_case("rotated-weak-comb")
    monkeypatch.setattr(lindforge.dynamics, "ROUNDING_ULPS", 0)
    shapes = record_eigh(monkeypatch, key=np.shape)
    exact_oracle(h, bath, ops, rho0, times[:3])
    assert shapes[1:] == [(512, 512)]


def test_oracle_memory_on_the_largest_comb():
    # D = 1024 (a four-level ladder against eight modes) is two blocks of 512,
    # one bin each and one alive at a time: 9.8 MiB on a first call, 8.7 on
    # a repeat
    rng = np.random.default_rng(75)
    bath = qubit_mode_bath([(f, 4.0e-3) for f in WEAK_COMB_FREQS], 1.0,
                           broadening=0.01)
    h = np.diag([0.0, 1.0, 2.01, 2.98]).astype(complex)
    ops = [_ladder(4, rng)]
    times = np.linspace(0.0, 375.0, 61)
    tracemalloc.start()
    try:
        exact_oracle(h, bath, ops, np.eye(4) / 4, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def _ladder_cap_case():
    """The weak comb's eight modes against a four-level ladder, D = 1024 at
    the oracle cap: two parity halves of 512 states, each one bin."""
    bath = qubit_mode_bath([(f, 5.0e-3) for f in WEAK_COMB_FREQS], 1.0,
                           broadening=0.01085)
    a = np.diag(np.sqrt([1.0, 2.0, 3.0]), 1)
    return np.diag([0.0, 1.0, 2.0, 3.0]), bath, [a + a.T], np.linspace(0.0, 60.0, 31)


def test_oracle_memory_one_bin_at_a_time():
    # each bin's eigenvectors are let go before the next bin is built; with
    # both halves held at once the peak was 17.4 MiB
    h, bath, ops, times = _ladder_cap_case()
    tracemalloc.start()
    try:
        traj = exact_oracle(h, bath, ops, np.eye(4) / 4, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert traj.trace_defects.max() < 1e-13
    assert traj.hermiticity_defects.max() == 0.0


@pytest.mark.parametrize("coherent", [False, True])
def test_oracle_diagonalises_each_bin_once_and_lets_it_go(monkeypatch, coherent):
    # a diagonal rho_A(0) couples each bin only to itself, so no two bins'
    # eigenvectors are alive at once; coherences between the parity halves
    # couple the two bins, which are then diagonalised once each and held
    # together only while their pairs need them
    h, bath, ops, times = _ladder_cap_case()
    rho0 = random_density(np.random.default_rng(76), 4) if coherent else np.eye(4) / 4
    original = lindforge.dynamics._bin_eigen
    held, alive = [], []

    def recording(*args):
        alive.append([ref() is not None for ref in held])
        w, p = original(*args)
        held.append(weakref.ref(p))
        return w, p

    monkeypatch.setattr(lindforge.dynamics, "_bin_eigen", recording)
    traj = exact_oracle(h, bath, ops, rho0, times[:5])
    assert alive == ([[], [True]] if coherent else [[], [False]])
    assert all(ref() is None for ref in held)
    want = reference_exact_oracle(h, bath, ops, rho0, times[:5])
    assert np.abs(traj.states - want).max() < 1e-12


def _complex_factor_case(name, rng):
    """Couplings with complex rotated factors. 'xy-exchange': sigma_x x X +
    sigma_y x Y with Y imaginary, which no gauge makes real but whose
    products, and so blocks, are all real. 'mixed-bins': sigma_x x X plus
    |1><1| x Z, with X flipping and Z keeping the parity of the bath level and
    Z complex on odd levels only, so the two parity halves (one bin each)
    are one complex and one real, and rho_A(0)'s coherence pairs them."""
    sx, sy, _, _ = sigma_ops()
    n = 6 if name == "xy-exchange" else 64
    bath_h = np.diag(np.sort(rng.uniform(0.0, 2.0, n)))
    if name == "xy-exchange":
        x = rng.normal(size=(n, n))
        y = rng.normal(size=(n, n))
        bath = FiniteBath(bath_h, 1.0, [0.1 * (x + x.T), 0.1j * (y - y.T)])
        return np.diag([0.0, 1.1]), bath, [sx, sy]
    odd = np.arange(n) % 2
    flips = odd[:, None] != odd[None, :]
    x = rng.normal(size=(n, n))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) * np.outer(odd, odd)
    bath = FiniteBath(bath_h, 1.0, [0.05 * (x + x.T) * flips,
                                    0.05 * (z + z.conj().T) * ~flips])
    return np.diag([0.0, 0.9]), bath, [sx, np.diag([0.0, 1.0])]


@pytest.mark.parametrize("name", ["xy-exchange", "mixed-bins"])
def test_oracle_keeps_real_bins_real_under_complex_factors(monkeypatch, name):
    # whether a bin's eigenvectors are real follows from its own H, not from
    # the factors': a real bin is never cast to complex, and every phase
    # table is real
    h, bath, ops = _complex_factor_case(name, np.random.default_rng(77))
    rho0 = np.array([[0.6, 0.3], [0.3, 0.4]])
    times = np.linspace(0.0, 20.0, 9)
    bins, pairs = [], []
    bin_eigen = lindforge.dynamics._bin_eigen
    pair_series = lindforge.dynamics._pair_series

    def recording_bin(*args):
        w, p = bin_eigen(*args)
        bins.append(np.iscomplexobj(p))
        return w, p

    def recording_pair(rows, rows2, rho_bar, ph, ph2):
        assert ph.dtype == ph2.dtype == np.float64
        pairs.append((np.iscomplexobj(rows), np.iscomplexobj(rows2)))
        return pair_series(rows, rows2, rho_bar, ph, ph2)

    monkeypatch.setattr(lindforge.dynamics, "_bin_eigen", recording_bin)
    monkeypatch.setattr(lindforge.dynamics, "_pair_series", recording_pair)
    traj = exact_oracle(h, bath, ops, rho0, times)
    if name == "xy-exchange":
        assert bins == [False] and set(pairs) == {(False, False)}
    else:  # coherences pair the real bin with the complex one, both ways
        assert sorted(bins) == [False, True]
        assert set(pairs) == {(False, False), (False, True), (True, False), (True, True)}
    want = reference_exact_oracle(h, bath, ops, rho0, times)
    assert np.abs(traj.states - want).max() < 1e-12
    assert np.abs(want[-1] - want[0]).max() > 1e-2


def test_oracle_dimension_cap(monkeypatch):
    sx, _, _, _ = sigma_ops()
    h = np.diag([0.0, 1.0]).astype(complex)
    bath = qubit_mode_bath([(1.0, 0.1), (1.3, 0.1)], 1.0, broadening=0.5)
    monkeypatch.setenv("LF_MAX_DIM", "4")
    with pytest.raises(DimensionError, match="LF_MAX_DIM"):
        exact_oracle(h, bath, [sx], np.eye(2) / 2, [0.0, 1.0])
    monkeypatch.setenv("LF_MAX_DIM", "not-a-number")
    with pytest.raises(ValueError):
        exact_oracle(h, bath, [sx], np.eye(2) / 2, [0.0, 1.0])


def test_interaction_picture_round_trip():
    rng = np.random.default_rng(66)
    h0 = random_hermitian(rng, 4)
    op = random_hermitian(rng, 4)
    t = 0.73
    rotated = interaction_picture(op, h0, t, direction="to")
    back = interaction_picture(rotated, h0, t, direction="from")
    assert np.abs(back - op).max() < 1e-12
    # commuting operators are fixed points of the rotation
    diag_op = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    h_diag = np.diag([0.0, 0.5, 1.5, 2.0]).astype(complex)
    assert np.abs(interaction_picture(diag_op, h_diag, t) - diag_op).max() < 1e-13


def test_timescale_zero_coupling_passes():
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [np.zeros((2, 2))], broadening=1.0)
    report = timescale_report(bath, [np.zeros((2, 2))])
    assert report.two_scale_ratio == 0.0
    assert report.t_a_estimate == math.inf
    assert report.verdict == "pass"


def test_timescale_verdict_thresholds():
    sx, _, _, _ = sigma_ops()
    bath = FiniteBath(np.diag([0.0, 1.0]), 1.0, [sx], broadening=1.0)
    moment = bath.expectation(sx @ sx).real  # = 1
    tau = 2.0
    for target, verdict in ((0.05, "pass"), (0.5, "warn"), (2.0, "fail")):
        scale = target / (math.sqrt(moment) * tau)
        report = timescale_report(bath, [scale * sx], tau_b=tau)
        assert abs(report.two_scale_ratio - target) < 1e-12
        assert report.verdict == verdict
        expected_ta = 1.0 / (scale**2 * moment * tau)
        assert abs(report.t_a_estimate - expected_ta) < 1e-9 * expected_ta


def test_timescale_analytic_bath_needs_tau_b_and_spectrum():
    from lindforge import build_spectrum

    sx, _, _, _ = sigma_ops()
    bath = flat_thermal_bath(0.2, 1.0)
    with pytest.raises(ValueError, match="tau_b"):
        timescale_report(bath, [sx])
    spec = build_spectrum(np.diag([0.0, 1.0]).astype(complex))
    report = timescale_report(bath, [sx], spectrum=spec, tau_b=0.5)
    # strength convention: moment = max_W ||Gamma(W)|| / (2 tau_b)
    nbar = 1.0 / math.expm1(1.0)
    gnorm = 0.2 * (nbar + 1.0)
    expected = math.sqrt(gnorm / (2 * 0.5)) * 1.0 * 0.5
    assert abs(report.two_scale_ratio - expected) < 1e-12


def test_propagate_rejects_bad_time_grids():
    gen = damping_generator(GAMMA)
    rho0 = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        propagate(rho0, gen, [0.5, 1.0])  # must start at zero
    with pytest.raises(ValueError):
        propagate(rho0, gen, [0.0, 1.0, 1.0])  # strictly increasing
    with pytest.raises(ValueError):
        propagate(rho0, gen, [0.0, 1.0], method="euler")


def test_derive_and_rk4_leave_scipy_unloaded():
    # scipy.linalg is imported by propagate's expm branch alone
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np\n"
        "from lindforge import derive_generator, flat_thermal_bath, propagate\n"
        "sx = np.array([[0.0, 1.0], [1.0, 0.0]])\n"
        "g = derive_generator(np.diag([0.0, 1.0]), flat_thermal_bath(0.1, 1.0),"
        " [sx]).generator\n"
        "propagate(np.diag([0.0, 1.0]), g, [0.0, 1.0], method='rk4')\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = pathlib.Path(lindforge.dynamics.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", script, str(src)], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_no_route_loads_scipy(tmp_path):
    # propagate's expm is lindforge.linalg.expm: neither it, the exact
    # oracle nor any subcommand imports a scipy module
    script = (
        "import contextlib, io, pathlib, sys; sys.path.insert(0, sys.argv[1])\n"
        "import numpy as np\n"
        "from lindforge import (derive_generator, exact_oracle, flat_thermal_bath,\n"
        "                       propagate, qubit_mode_bath)\n"
        "from lindforge.cli import main\n"
        "sx = np.array([[0.0, 1.0], [1.0, 0.0]])\n"
        "rho = np.diag([0.0, 1.0])\n"
        "g = derive_generator(np.diag([0.0, 1.0]), flat_thermal_bath(0.1, 1.0), [sx]).generator\n"
        "propagate(rho, g, [0.0, 1.0, 2.0, 3.5], method='expm')\n"
        "bath = qubit_mode_bath([(0.9, 0.05), (1.1, 0.04)], 1.0, broadening=0.1)\n"
        "exact_oracle(np.diag([0.0, 1.0]), bath, [sx], rho, [0.0, 1.0, 2.0])\n"
        "demos = pathlib.Path(sys.argv[2])\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for name in ('thermal_qubit', 'four_level_table', 'weak_coupling_comb'):\n"
        "        scenario = str(demos / f'{name}.json')\n"
        "        codes += [main(['derive', scenario]), main(['verify', scenario]),\n"
        "                  main(['evolve', scenario, '--method', 'expm', '--out', 'e.csv']),\n"
        "                  main(['evolve', scenario, '--method', 'rk4', '--out', 'r.csv'])]\n"
        "    codes.append(main(['oracle', str(demos / 'weak_coupling_comb.json')]))\n"
        "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = pathlib.Path(lindforge.dynamics.__file__).parents[1]
    demos = pathlib.Path(__file__).parents[1] / "demos" / "scenarios"
    out = subprocess.run([sys.executable, "-c", script, str(src), str(demos)],
                         capture_output=True, text=True, timeout=300, check=True,
                         cwd=tmp_path)
    assert out.stdout.strip() == f"{[0] * 13} []"
    assert (tmp_path / "weak_coupling_comb.oracle.csv").exists()


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_propagate_holds_one_sample_stack(method):
    # d = 16 on a 20001-sample grid: one (n, d, d) stack of states is 82 MB.
    # Every block size steps straight into the states, which are then put in
    # order and rotated back in place, a chunk at a time, so the peak stays
    # near one stack, where two were alive with a separate per-step stack
    rng = np.random.default_rng(16)
    dim = 16
    h = np.diag(np.arange(dim) + 0.01 * rng.standard_normal(dim)).astype(complex)
    ladder = np.diag(np.ones(dim - 1), 1).astype(complex)
    res = derive_generator(h, flat_thermal_bath(0.05, 1.0), [ladder + ladder.T])
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[-1, -1] = 1.0
    times = np.linspace(0.0, 20.0, 20001)
    stack = times.size * dim * dim * 16
    res.generator.bohr_blocks  # built before the measurement, as for any run
    tracemalloc.start()
    try:
        traj = propagate(rho0, res.generator, times, method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.complete and traj.states.flags.c_contiguous
    assert peak < 1.5 * stack
