import importlib.util
import json
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest

import lindforge.generator

from lindforge import (
    FiniteBath,
    SecularPolicy,
    apply_rhs,
    bohr_frequencies,
    build_spectrum,
    center_couplings,
    coarse_graining_f,
    derive_generator,
    flat_thermal_bath,
    generator_superoperator_matrix,
    kernel_superoperator_matrix,
    table_bath,
)
from lindforge.dynamics import propagate
from lindforge.generator import _support_rhs, build_bohr_blocks, rhs_function
from lindforge.scenario import loads_scenario

from _support import (
    crandn,
    generic_scenario_data,
    random_density,
    random_hermitian,
    random_unitary,
    rate_table_bath,
    reference_kernel,
    reference_lamb_shift,
    reference_pauli,
    reference_rate_tensors,
    reference_rhs,
    reference_superoperator,
    sigma_ops,
)

EXACT_TOL = 1e-13
RHS_TOL = 1e-12
# the support form against the term-by-term reference, relative to the
# reference's largest entry
SUPPORT_TOL = 1e-13
COMMUTE_TOL = 1e-10
ROOT = pathlib.Path(__file__).resolve().parents[1]

GAMMA_DOWN = 0.3
GAMMA_UP = 0.1
OMEGA0 = 1.4


def two_level_table_bath(delta_down=0.0, delta_up=0.0):
    one = np.array([[1.0]], dtype=complex)
    return table_bath(
        [
            (OMEGA0, GAMMA_DOWN * one, delta_down * one),
            (-OMEGA0, GAMMA_UP * one, delta_up * one),
            (0.0, 0.0 * one, None),
        ]
    )


def k_entries(rate_tensors):
    """The gain tensor as a dict (a, m, b, n) -> K for lookups by quadruple."""
    return dict(zip(map(tuple, rate_tensors.index.tolist()), rate_tensors.K))


def dissipator(l_op, rho):
    anti = l_op.conj().T @ l_op
    return l_op @ rho @ l_op.conj().T - 0.5 * (anti @ rho + rho @ anti)


def test_two_level_standard_form_matches_hand_built_lindblad():
    rng = np.random.default_rng(41)
    sx, _, _, sm = sigma_ops()
    h = np.diag([0.0, OMEGA0]).astype(complex)
    res = derive_generator(h, two_level_table_bath(), [sx])
    gen = res.generator
    assert gen.policy is None  # secular
    assert np.abs(gen.h_ls).max() < EXACT_TOL
    assert np.abs(gen.h_eff - h).max() < EXACT_TOL
    for _ in range(5):
        rho = random_density(rng, 2)
        got = apply_rhs(gen, rho)
        expected = (
            -1j * (h @ rho - rho @ h)
            + GAMMA_DOWN * dissipator(sm, rho)
            + GAMMA_UP * dissipator(sm.conj().T, rho)
        )
        assert np.abs(got - expected).max() < EXACT_TOL


def test_scalar_delta_gives_scalar_lamb_shift():
    sx, _, _, _ = sigma_ops()
    h = np.diag([0.0, OMEGA0]).astype(complex)
    delta = 0.07
    res = derive_generator(h, two_level_table_bath(delta, delta), [sx])
    # delta * (sigma_+ sigma_- + sigma_- sigma_+) = delta * identity
    assert np.abs(res.generator.h_ls - delta * np.eye(2)).max() < EXACT_TOL
    h_ls = res.generator.h_ls
    assert np.abs(h @ h_ls - h_ls @ h).max() < COMMUTE_TOL


def test_zero_coupling_reduces_to_pure_commutator():
    rng = np.random.default_rng(42)
    h = random_hermitian(rng, 3)
    bath = flat_thermal_bath(0.2, 1.0)
    res = derive_generator(h, bath, [np.zeros((3, 3))])
    assert res.generator.dissipator_terms == ()
    rho = random_density(rng, 3)
    got = apply_rhs(res.generator, rho)
    expected = -1j * (res.generator.h_eff @ rho - rho @ res.generator.h_eff)
    assert np.abs(got - expected).max() < EXACT_TOL
    assert np.abs(res.generator.h_eff - h).max() < 1e-11


def test_channel_count_mismatch_is_rejected():
    sx, _, sz, _ = sigma_ops()
    h = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="channels"):
        derive_generator(h, flat_thermal_bath(0.1, 1.0), [sx, sz])


@pytest.mark.parametrize("mode, policy, message", [
    ("secular", SecularPolicy(dt=1.0), "takes no SecularPolicy"),
    ("presecular", None, "requires a SecularPolicy"),
    ("markov", None, "unknown mode"),
])
def test_mode_and_policy_must_agree(mode, policy, message):
    # a secular derivation refuses a window rather than drop it
    sx = sigma_ops()[0]
    h = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match=message):
        derive_generator(h, flat_thermal_bath(0.1, 1.0), [sx], mode=mode, policy=policy)


def test_rate_tensor_two_level_values():
    sx, _, _, _ = sigma_ops()
    h = np.diag([0.0, OMEGA0]).astype(complex)
    res = derive_generator(h, two_level_table_bath(), [2.0 * sx])
    k_map = k_entries(res.rate_tensors)
    # gain into g from e: Gamma(+omega) |<g|A|e>|^2 with |<g|A|e>| = 2
    assert abs(k_map[(0, 1, 0, 1)] - 4.0 * GAMMA_DOWN) < EXACT_TOL
    assert abs(k_map[(1, 0, 1, 0)] - 4.0 * GAMMA_UP) < EXACT_TOL
    kap = res.rate_tensors.kappa
    assert abs(kap[1, 1] - 4.0 * GAMMA_DOWN) < EXACT_TOL
    assert abs(kap[0, 0] - 4.0 * GAMMA_UP) < EXACT_TOL
    assert abs(res.pauli.gain[0, 1] - 4.0 * GAMMA_DOWN) < EXACT_TOL
    assert abs(res.pauli.escape[1] - 4.0 * GAMMA_DOWN) < EXACT_TOL
    # coherence between g and e decays at half the total escape
    decay = res.pauli.coherence_decay[0, 1]
    assert abs(decay - 2.0 * (GAMMA_DOWN + GAMMA_UP)) < EXACT_TOL


def test_pure_dephasing_coherence_rate():
    _, _, sz, _ = sigma_ops()
    gamma_d = 0.11
    h = np.diag([0.0, OMEGA0]).astype(complex)
    one = np.array([[1.0]], dtype=complex)
    bath = table_bath(
        [(0.0, gamma_d * one, None), (OMEGA0, 0.0 * one, None), (-OMEGA0, 0.0 * one, None)]
    )
    res = derive_generator(h, bath, [sz])
    # D[sqrt(gamma_d) sigma_z] damps rho_ge at 2 gamma_d
    assert abs(res.pauli.coherence_decay[0, 1] - 2.0 * gamma_d) < EXACT_TOL
    assert abs(res.pauli.escape[0] - gamma_d) < EXACT_TOL
    assert np.abs(res.pauli.gain - np.diag([gamma_d, gamma_d])).max() < EXACT_TOL


def random_rate_scenario(rng, levels, bath_dim=5, n_channels=2):
    h = np.diag(np.array(levels, dtype=complex))
    ops = [random_hermitian(rng, len(levels)) for _ in range(n_channels)]
    h_b = random_hermitian(rng, bath_dim)
    xs = [random_hermitian(rng, bath_dim) for _ in range(n_channels)]
    bath = FiniteBath(h_b, 1.3, xs, broadening=0.8)
    return h, ops, bath


def random_table_scenario(rng, levels, n_channels=2, scale=0.3):
    """Diagonal hamiltonian plus a rate table covering every Bohr frequency.

    Table baths skip the coupling-centering step, so the energy eigenbasis
    stays exactly the user basis and eigenbasis expressions can be compared
    entry by entry.
    """
    h = np.diag(np.array(levels, dtype=complex))
    ops = [random_hermitian(rng, len(levels)) for _ in range(n_channels)]
    spec = build_spectrum(h)
    entries = []
    for omega in bohr_frequencies(spec).values:
        m = rng.standard_normal((n_channels, n_channels)) + 1j * rng.standard_normal(
            (n_channels, n_channels)
        )
        gamma = scale * (m @ m.conj().T) / n_channels
        delta = scale * random_hermitian(rng, n_channels)
        entries.append((float(omega), gamma, delta))
    return h, ops, table_bath(entries)


@pytest.mark.parametrize("seed", range(6))
def test_contracted_form_matches_term_by_term_reference(seed):
    rng = np.random.default_rng(300 + seed)
    dim = 2 + seed % 4
    n_channels = 1 + seed % 2
    levels = np.cumsum(rng.uniform(0.3, 1.5, dim)) - 0.5
    h, ops, bath = random_table_scenario(rng, levels, n_channels=n_channels)
    min_gap = np.diff(levels).min()
    options = [("secular", None)] + [
        ("presecular", SecularPolicy(dt=dt)) for dt in (1.0 / min_gap, 20.0 / min_gap)
    ]
    for mode, policy in options:
        gen = derive_generator(h, bath, ops, mode=mode, policy=policy).generator
        assert any(np.abs(t.delta).max() > 0 for t in gen.dissipator_terms)
        expected = reference_superoperator(gen)
        got = generator_superoperator_matrix(gen)
        assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()
        for rho in (random_density(rng, dim), rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim))):
            expected = reference_rhs(gen, rho)
            got = apply_rhs(gen, rho)
            assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("mode", ["secular", "presecular"])
def test_pieces_store_both_factors_row_major(mode):
    rng = np.random.default_rng(310)
    h, ops, bath = random_table_scenario(rng, [0.0, 0.7, 1.9, 3.2])
    policy = SecularPolicy(dt=3.0) if mode == "presecular" else None
    gen = derive_generator(h, bath, ops, mode=mode, policy=policy).generator
    big_g, left, right = gen.pieces
    # R row-major; L a view of its rows (i, p, j), so the rhs reads both
    # factors as flat GEMM operands without a copy
    rows = left.transpose(1, 0, 2)
    assert rows.flags.c_contiguous and right.flags.c_contiguous
    assert np.shares_memory(rows.reshape(-1, 4), left)
    # one pair per term and channel: the mirror pairs fold in, in both modes
    assert left.shape[0] == right.shape[0] == len(gen.dissipator_terms) * len(ops)
    # the rhs reads the factors as they are stored
    rho = random_density(rng, 4)
    expected = reference_rhs(gen, rho)
    assert np.abs(apply_rhs(gen, rho) - expected).max() < 1e-12 * np.abs(expected).max()


def test_lamb_shift_without_delta_is_zero_without_contracting(monkeypatch):
    rng = np.random.default_rng(311)
    h = np.diag([0.0, 0.7, 1.9, 3.2]).astype(complex)
    ops = [random_hermitian(rng, 4) for _ in range(2)]
    bath = flat_thermal_bath(0.3, 0.8, gamma_dephasing=0.05, channel_count=2)
    contracted = []
    original = lindforge.generator._channel_contraction

    def counted(terms, rates, *args):
        contracted.append(len(terms))
        return original(terms, rates, *args)

    monkeypatch.setattr(lindforge.generator, "_channel_contraction", counted)
    gen = derive_generator(h, bath, ops).generator
    assert contracted == []  # no Lamb-shift contraction over zero Delta
    assert not gen.h_ls.any()
    assert gen.h_eff.tobytes() == (0.5 * (h + h.conj().T)).tobytes()
    gen.pieces  # the dissipator still contracts its Gamma
    assert contracted == [len(gen.dissipator_terms)]


def _bench_workloads():
    """bench/workloads.py, loaded from its file (its dataclasses look their
    module up in sys.modules)."""
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


def assert_support_rhs_matches_reference(gen, rng):
    """rhs_function (the dense user-basis matrix at d <= DENSE_RHS_DIM) and
    the support list itself against reference_rhs, on a density matrix and
    on a non-hermitian operator."""
    assert gen.support is not None
    dim = gen.dim
    rhs_list = _support_rhs(gen.spectrum.basis, *gen.support)
    for x in (random_density(rng, dim), crandn(rng, dim, dim)):
        want = reference_rhs(gen, x)
        scale = np.abs(want).max()
        for rhs in (rhs_function(gen), rhs_list):
            assert np.abs(rhs(x) - want).max() <= SUPPORT_TOL * scale


@pytest.mark.parametrize("seed", [1, 20080117])
@pytest.mark.parametrize("workload", ["secular-sweep", "presecular-oracle"])
def test_support_rhs_matches_the_reference_on_every_secular_bench_job(workload, seed):
    rng = np.random.default_rng(seed)
    secular = 0
    for job in _bench_workloads().generate(workload, seed):
        sc = loads_scenario(job.text, job.name)
        if sc.mode != "secular":
            continue
        gen = derive_generator(sc.h_a, sc.bath, sc.couplings, degeneracy_tol=sc.degeneracy_tol
                               ).generator
        assert_support_rhs_matches_reference(gen, rng)
        secular += 1
    assert secular == {"secular-sweep": 40, "presecular-oracle": 15}[workload]


def _generic(dim, multiplet=1):
    sc = loads_scenario(json.dumps(generic_scenario_data(dim, multiplet)))
    return sc.h_a, sc.couplings, sc.bath


def _rotated_table(dim):
    rng = np.random.default_rng(dim)
    levels = np.sort(rng.uniform(0.0, 10.0, dim))
    u = random_unitary(rng, dim)
    h = (u * levels) @ u.conj().T
    return h, [random_hermitian(rng, dim) for _ in range(2)], rate_table_bath(
        build_spectrum(h), 2, rng)


SUPPORT_CASES = {
    "generic-16": lambda: _generic(16),
    "generic-32": lambda: _generic(32),
    "generic-48": lambda: _generic(48),
    "multiplets-48": lambda: _generic(48, multiplet=4),
    "table-k2-16": lambda: _rotated_table(16),
    "table-k2-32": lambda: _rotated_table(32),
}


@pytest.mark.parametrize("case", sorted(SUPPORT_CASES))
def test_support_rhs_matches_the_reference_on_generic_spectra(case):
    h, ops, bath = SUPPORT_CASES[case]()
    res = derive_generator(h, bath, ops)
    gen = res.generator
    dim = gen.dim
    if case.startswith("multiplets"):
        assert res.spectrum.degeneracies == (4,) * 12
    else:  # a generic spectrum: every gap its own Bohr frequency
        assert len(gen.dissipator_terms) == dim * (dim - 1) + 1
    assert_support_rhs_matches_reference(gen, np.random.default_rng(dim))
    # neither the rhs nor propagation forms the (P, d, d) pieces
    propagate(random_density(np.random.default_rng(0), dim), gen, [0.0, 1.0])
    assert "pieces" not in gen.__dict__


def test_support_form_holds_a_dropped_channel_at_zero():
    # sigma_x on a qubit plus a channel whose only entry is below the
    # negligible-entry cutoff: the decomposition drops it, and the support
    # form, like the pieces, holds that channel at zero
    sx, _, _, _ = sigma_ops()
    tiny = np.array([[0.0, 1e-15], [1e-15, 0.0]], dtype=complex)
    bath = flat_thermal_bath(0.3, 0.8, channel_count=2)
    gen = derive_generator(np.diag([0.0, 1.0]), bath, [sx, tiny]).generator
    assert len(gen.eigenops[1].labels) == 0
    rho = random_density(np.random.default_rng(5), 2)
    want = reference_rhs(gen, rho)
    assert np.abs(rhs_function(gen)(rho) - want).max() <= SUPPORT_TOL * np.abs(want).max()
    got = generator_superoperator_matrix(gen)
    want = reference_superoperator(gen)
    assert np.abs(got - want).max() <= SUPPORT_TOL * np.abs(want).max()


@pytest.mark.parametrize("levels, rotated", [
    ([0.0, 0.8, 2.1], False),
    ([0.0, 0.8, 2.1, 3.7], True),
    ([0.0, 0.0, 1.1, 2.6], False),
    ([0.0, 0.0, 1.1, 1.1, 1.1, 2.6], True),
])
def test_lamb_shift_matches_per_entry_reference(levels, rotated):
    rng = np.random.default_rng(310 + len(levels))
    h, ops, bath = random_table_scenario(rng, levels)
    if rotated:
        u = random_unitary(rng, len(levels))
        h = u @ h @ u.conj().T
        ops = [u @ a @ u.conj().T for a in ops]
    gen = derive_generator(h, bath, ops).generator
    assert all(abs(t.delta[0, 1]) > 0 for t in gen.dissipator_terms)
    want = reference_lamb_shift(gen)
    scale = np.abs(want).max()
    assert scale > 0
    assert np.abs(gen.h_ls - want).max() <= 1e-12 * scale
    assert np.abs(gen.h_eff - h - want).max() <= 1e-12 * max(scale, np.abs(h).max())


def test_rate_tensor_symmetries_random_scenario():
    rng = np.random.default_rng(43)
    h, ops, bath = random_rate_scenario(rng, [0.0, 0.9, 2.1, 3.8])
    res = derive_generator(h, bath, ops)
    k_map = k_entries(res.rate_tensors)
    scale = max(abs(v) for v in k_map.values())
    for (a, m, b, n), val in k_map.items():
        assert abs(val - np.conj(k_map[(b, n, a, m)])) < 1e-13 * scale
        if (a, m) == (b, n):
            assert abs(val.imag) < 1e-13 * scale
            assert val.real > -1e-13 * scale
    kap = res.rate_tensors.kappa
    assert np.abs(kap - kap.conj().T).max() < 1e-13 * scale
    # population conservation: total gain out of column m equals its escape
    gain, escape = res.pauli.gain, res.pauli.escape
    assert np.abs(gain.sum(axis=0) - escape).max() < 1e-13 * max(scale, 1.0)


def test_kernel_matches_standard_form_dissipator_degenerate():
    rng = np.random.default_rng(44)
    levels = [0.0, 0.0, 1.1, 2.6]  # degenerate ground multiplet
    h, ops, bath = random_table_scenario(rng, levels)
    res = derive_generator(h, bath, ops)
    spec = res.spectrum
    # diagonal ascending hamiltonian: eigenbasis is the user basis
    assert np.abs(spec.basis - np.eye(len(levels))).max() < 1e-12
    dim = spec.dim
    eye = np.eye(dim)
    l_full = generator_superoperator_matrix(res.generator)
    h_eff = res.generator.h_eff
    l_comm = -1j * (np.kron(eye, h_eff) - np.kron(h_eff.T, eye))
    l_diss = l_full - l_comm
    l_kernel = kernel_superoperator_matrix(res.rate_tensors)
    scale = max(1.0, np.abs(l_diss).max())
    assert np.abs(l_diss - l_kernel).max() < RHS_TOL * scale
    assert res.pauli.degenerate
    assert "degenerate-multiplets" in res.pauli.flags
    assert res.pauli.block_gain[(0, 1)].shape == (2, 2, 1, 1)
    assert res.pauli.block_escape[0].shape == (2, 2)


def test_kernel_matches_standard_form_dissipator_nondegenerate():
    rng = np.random.default_rng(45)
    h, ops, bath = random_table_scenario(rng, [0.0, 0.9, 2.1, 3.8])
    res = derive_generator(h, bath, ops)
    assert np.abs(res.spectrum.basis - np.eye(4)).max() < 1e-12
    dim = res.spectrum.dim
    eye = np.eye(dim)
    l_full = generator_superoperator_matrix(res.generator)
    h_eff = res.generator.h_eff
    l_comm = -1j * (np.kron(eye, h_eff) - np.kron(h_eff.T, eye))
    l_kernel = kernel_superoperator_matrix(res.rate_tensors)
    scale = max(1.0, np.abs(l_kernel).max())
    assert np.abs((l_full - l_comm) - l_kernel).max() < RHS_TOL * scale


# levels, channels and degeneracy tolerance of spectra whose Bohr
# frequencies chain: in chained-gap the gaps 1.0 and 1.16 from level 0 share
# one, so the escape sum links levels 1 and 2 of different multiplets
CHAINED = {
    "chained-gap-1": ([0.0, 1.0, 1.16, 2.08], 1, 0.1),
    "chained-gap-2": ([0.0, 1.0, 1.16, 2.08], 2, 0.1),
    "chained-merge": ([0.0, 0.52, 1.69, 2.25, 2.41, 3.0], 2, 0.05),
}


@pytest.mark.parametrize("case", sorted(CHAINED))
def test_kernel_matches_rotated_standard_form_on_chained_spectra(case):
    levels, n_channels, tol = CHAINED[case]
    rng = np.random.default_rng([48, n_channels, len(levels)])
    dim = len(levels)
    u = random_unitary(rng, dim)
    h = u @ np.diag(np.array(levels, dtype=complex)) @ u.conj().T
    ops = [random_hermitian(rng, dim) for _ in range(n_channels)]
    bath = rate_table_bath(build_spectrum(h, tol), n_channels, rng)
    res = derive_generator(h, bath, ops, degeneracy_tol=tol)
    v = res.spectrum.basis
    # vec(V^+ rho V) = kron(V^T, V^+) vec(rho), undone by kron(V^*, V)
    l_full = (np.kron(v.T, v.conj().T) @ generator_superoperator_matrix(res.generator)
              @ np.kron(v.conj(), v))
    h_eig = v.conj().T @ res.generator.h_eff @ v
    eye = np.eye(dim)
    l_comm = -1j * (np.kron(eye, h_eig) - np.kron(h_eig.T, eye))
    l_kernel = kernel_superoperator_matrix(res.rate_tensors)
    scale = np.abs(l_kernel).max()
    assert np.abs((l_full - l_comm) - l_kernel).max() <= 1e-12 * scale
    # the trace row: d tr(rho) / d rho_mn = sum_a L[(a, a), (m, n)] = 0
    assert np.abs(l_kernel[np.arange(dim) * (dim + 1)].sum(axis=0)).max() <= 1e-12 * scale
    if case.startswith("chained-gap"):
        assert abs(res.rate_tensors.kappa[1, 2]) > 1e-3 * scale


def test_kernel_is_block_diagonal_with_the_bohr_blocks():
    # the kernel and the blocks are placed from the same entries: with no
    # hamiltonian the blocks are the kernel's diagonal blocks, and the
    # kernel is zero outside them
    rng = np.random.default_rng(49)
    h, ops, bath = random_table_scenario(rng, [0.0, 0.0, 1.3, 1.3, 1.3, 2.9])
    res = derive_generator(h, bath, ops)
    kernel = kernel_superoperator_matrix(res.rate_tensors)
    blocks = build_bohr_blocks(res.spectrum, res.rate_tensors, np.zeros_like(h))
    rest = kernel.copy()
    for index, mats in blocks.groups:
        for idx, mat in zip(index, mats):
            assert np.array_equal(kernel[np.ix_(idx, idx)], mat)
            rest[np.ix_(idx, idx)] = 0.0
    assert not rest.any()


def test_population_sector_follows_pauli_equations():
    rng = np.random.default_rng(46)
    h, ops, bath = random_table_scenario(rng, [0.0, 0.9, 2.1, 3.8])
    res = derive_generator(h, bath, ops)
    gen = res.generator
    dim = 4
    pops = rng.uniform(0.2, 1.0, dim)
    pops /= pops.sum()
    rho = np.diag(pops).astype(complex)
    ddt = apply_rhs(gen, rho)
    expected = res.pauli.gain @ pops - res.pauli.escape * pops
    assert np.abs(np.diag(ddt).real - expected).max() < RHS_TOL
    # diagonal initial data stays diagonal when all gaps are distinct
    off = ddt - np.diag(np.diag(ddt))
    assert np.abs(off).max() < RHS_TOL


def test_coherence_decay_matches_generator():
    rng = np.random.default_rng(47)
    h, ops, bath = random_table_scenario(rng, [0.0, 0.9, 2.1, 3.8])
    res = derive_generator(h, bath, ops)
    assert res.pauli.all_gaps_distinct
    gen = res.generator
    for a, b in ((0, 1), (1, 3), (2, 0)):
        rho = np.zeros((4, 4), dtype=complex)
        rho[a, b] = 1.0
        ddt = apply_rhs(gen, rho)
        # distinct gaps: the coherence only feeds itself
        mask = np.ones((4, 4), dtype=bool)
        mask[a, b] = False
        assert np.abs(ddt[mask]).max() < RHS_TOL
        assert abs(ddt[a, b].real + res.pauli.coherence_decay[a, b]) < RHS_TOL


def test_shared_gap_spectrum_is_flagged():
    rng = np.random.default_rng(48)
    h, ops, bath = random_table_scenario(rng, [0.0, 1.0, 2.0])
    res = derive_generator(h, bath, ops)
    assert not res.pauli.degenerate
    assert not res.pauli.all_gaps_distinct
    assert "shared-transition-frequency" in res.pauli.flags
    assert res.pauli.coherence_decay is None
    assert res.pauli.gain is not None


def test_filter_values():
    dt = 3.7
    assert coarse_graining_f(0.0, dt) == 1.0
    for n in range(1, 6):
        assert abs(coarse_graining_f(2.0 * math.pi * n / dt, dt)) < 1e-12
    # half-period point: |F| = 2/pi with phase i
    f = coarse_graining_f(math.pi / dt, dt)
    assert abs(f - 1j * 2.0 / math.pi) < 1e-12


@pytest.mark.parametrize("dt", [None, 0.0, -1.0, math.nan, math.inf])
def test_secular_policy_refuses_a_window_that_is_not_positive(dt):
    with pytest.raises(ValueError, match="dt > 0"):
        SecularPolicy(dt=dt)


def test_window_too_wide_for_floats_leaves_only_equal_frequencies():
    # x dt / 2 overflows off x = 0: F is 0 there, without a warning, and the
    # presecular generator stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = coarse_graining_f(np.array([0.0, 4.0, -4.0]), 1e308)
        assert f.tolist() == [1.0, 0.0, 0.0] and coarse_graining_f(4.0, 1e308) == 0.0
        rng = np.random.default_rng(312)
        h, ops, bath = random_table_scenario(rng, [0.0, 0.7, 1.9, 3.2])
        gen = derive_generator(h, bath, ops, mode="presecular",
                               policy=SecularPolicy(dt=1e308)).generator
        assert all(np.isfinite(x).all() for x in gen.pieces)


def test_presecular_converges_to_secular_with_growing_window():
    rng = np.random.default_rng(50)
    h, ops, bath = random_table_scenario(rng, [0.0, 0.9, 2.1, 3.8])
    sec = derive_generator(h, bath, ops, mode="secular")
    l_sec = generator_superoperator_matrix(sec.generator)
    gaps = np.array([0.9, 2.1, 3.8])
    all_gaps = np.abs(np.subtract.outer(np.r_[0.0, gaps], np.r_[0.0, gaps]))
    min_gap = all_gaps[all_gaps > 1e-9].min()
    defects = []
    for dt in (10.0 / min_gap, 40.0 / min_gap, 160.0 / min_gap, 2560.0 / min_gap):
        policy = SecularPolicy(dt=dt)
        pre = derive_generator(h, bath, ops, mode="presecular", policy=policy)
        l_pre = generator_superoperator_matrix(pre.generator)
        defects.append(np.abs(l_pre - l_sec).max())
    for k in range(len(defects) - 1):
        assert defects[k + 1] < defects[k]
    assert defects[-1] < 1e-2 * defects[0]


def test_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(51)
    h, ops, bath = random_rate_scenario(rng, [0.0, 0.9, 2.1, 3.8])
    policy = SecularPolicy(dt=25.0)
    for mode, pol in (("secular", None), ("presecular", policy)):
        res = derive_generator(h, bath, ops, mode=mode, policy=pol)
        gen = res.generator
        assert np.abs(gen.h_eff - gen.h_eff.conj().T).max() == 0.0
        if gen.h_ls is not None:
            h_bare = gen.h_eff - gen.h_ls
            comm = h_bare @ gen.h_ls - gen.h_ls @ h_bare
            assert np.abs(comm).max() < COMMUTE_TOL * max(1.0, np.abs(gen.h_ls).max())
        for _ in range(10):
            rho = random_density(rng, 4)
            ddt = apply_rhs(gen, rho)
            scale = max(1.0, np.abs(ddt).max())
            assert abs(np.trace(ddt)) < RHS_TOL * scale
            assert np.abs(ddt - ddt.conj().T).max() < RHS_TOL * scale



# levels and degeneracy tolerance (None: the default)
SPECTRA = {
    "nondegenerate": ([0.0, 0.9, 2.1, 3.8], None),
    "degenerate": ([0.0, 0.0, 1.3, 1.3, 1.3, 2.9], None),  # multiplets of 2 and 3
    "shared-gap": ([0.0, 1.0, 2.0, 3.5], None),
    # the gaps 0.92, 1.0, 1.08 and 1.16 chain into one Bohr frequency, so
    # levels 1 and 2 of different multiplets share a gap from level 0
    "chained-gap": ([0.0, 1.0, 1.16, 2.08], 0.1),
}


@pytest.mark.parametrize("bath_kind", ["table", "flat-thermal", "finite"])
@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("spectrum_kind", sorted(SPECTRA))
def test_rate_tensors_match_dict_reference(spectrum_kind, n_channels, bath_kind):
    rng = np.random.default_rng([61, n_channels, len(bath_kind), len(spectrum_kind)])
    levels, tol = SPECTRA[spectrum_kind]
    dim = len(levels)
    u = random_unitary(rng, dim)
    h = u @ np.diag(np.array(levels, dtype=complex)) @ u.conj().T
    ops = [random_hermitian(rng, dim) for _ in range(n_channels)]
    if bath_kind == "table":
        bath = rate_table_bath(build_spectrum(h, tol), n_channels, rng)
    elif bath_kind == "flat-thermal":
        bath = flat_thermal_bath(0.3, 1.2, gamma_dephasing=0.05, channel_count=n_channels)
    else:
        xs = [random_hermitian(rng, 4) for _ in range(n_channels)]
        bath = FiniteBath(random_hermitian(rng, 4), 1.3, xs, broadening=0.8)
        # centered up front, so no mean-field shift splits the spectrum
        bath = center_couplings(bath, ops)[0]
    res = derive_generator(h, bath, ops, degeneracy_tol=tol)
    spec, rt, red = res.spectrum, res.rate_tensors, res.pauli
    ref_bath = center_couplings(bath, ops)[0] if bath_kind == "finite" else bath
    k_ref, kap_ref = reference_rate_tensors(spec, ops, ref_bath)

    # same support, in lexicographic order, and same values
    assert [tuple(key) for key in rt.index.tolist()] == sorted(k_ref)
    scale = max(abs(v) for v in k_ref.values())
    assert np.abs(rt.K - np.array([k_ref[key] for key in sorted(k_ref)])).max() \
        <= 1e-12 * scale
    # kappa: the reference's keys are the escape support, zero elsewhere
    assert rt.kappa.shape == (dim, dim)
    keyed = np.zeros((dim, dim), dtype=bool)
    for (i, j), val in kap_ref.items():
        keyed[i, j] = True
        assert abs(rt.kappa[i, j] - val) <= 1e-12 * scale
    assert np.array_equal(rt.escape_support, keyed)
    assert np.all(rt.kappa[~keyed] == 0.0)
    midx = spec.multiplet_index
    same = midx[:, None] == midx[None, :]
    assert np.array_equal(keyed, same) == (spectrum_kind != "chained-gap")

    ref = reference_pauli(k_ref, kap_ref, spec)
    assert red.flags == ref["flags"]
    assert red.degenerate == ref["degenerate"] == (spectrum_kind == "degenerate")
    assert red.all_gaps_distinct == ref["all_gaps_distinct"] == (
        spectrum_kind in ("nondegenerate", "degenerate"))
    for name in ("gain", "escape", "coherence_decay"):
        got, want = getattr(red, name), ref[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert np.abs(got - want).max() <= 1e-12 * scale, name
    for name in ("block_gain", "block_escape"):
        got, want = getattr(red, name), ref[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert sorted(got) == sorted(want), name
            for key, block in want.items():
                assert got[key].shape == block.shape
                assert np.abs(got[key] - block).max() <= 1e-12 * scale, (name, key)

    want = reference_kernel(k_ref, kap_ref, dim)
    got = kernel_superoperator_matrix(rt)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def coupling_free_table_scenario(rng, cover_all=True):
    """Two channels on levels 0, 1, 3 coupled only across the gaps 1 and 2,
    so the Bohr frequencies +-3 carry no coupling weight. With cover_all
    False the table lacks its entry at +3."""
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    ops = []
    for _ in range(2):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1], a[1, 2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a[1, 1] = rng.standard_normal()
        ops.append(a + a.conj().T)
    entries = []
    for omega in bohr_frequencies(build_spectrum(h)).values:
        if omega == 3.0 and not cover_all:
            continue
        m = crandn(rng, 2, 2)
        entries.append((float(omega), 0.2 * m @ m.conj().T, 0.1 * random_hermitian(rng, 2)))
    return h, ops, table_bath(entries)


@pytest.mark.parametrize("mode", ["secular", "presecular"])
def test_rates_evaluated_once_per_frequency(mode):
    rng = np.random.default_rng(62)
    h, ops, bath = coupling_free_table_scenario(rng)
    calls = {"gamma": [], "delta": []}
    for name, seen in calls.items():
        def counted(omega, fn=getattr(bath, f"{name}_fn"), seen=seen):
            seen.append(omega)
            return fn(omega)

        setattr(bath, f"{name}_fn", counted)
    policy = SecularPolicy(dt=4.0) if mode == "presecular" else None
    res = derive_generator(h, bath, ops, mode=mode, policy=policy)
    bohr = bohr_frequencies(res.spectrum).values.tolist()
    term_omegas = [t.omega for t in res.generator.dissipator_terms]
    assert 3.0 in bohr and 3.0 not in term_omegas
    assert calls["gamma"] == bohr
    assert calls["delta"] == bohr


def test_table_must_cover_coupling_free_bohr_frequency():
    rng = np.random.default_rng(63)
    h, ops, bath = coupling_free_table_scenario(rng, cover_all=False)
    with pytest.raises(ValueError, match="no table entry for omega=3"):
        derive_generator(h, bath, ops)


def test_all_gaps_distinct_matches_the_pairwise_rule():
    # distinct pair gaps are read off the size of the Bohr set; the pairwise
    # rule compares every two gaps between multiplet frequencies
    from _support import reference_gaps_distinct

    rng = np.random.default_rng(4412)
    spectra = [([0.0, 1.0, 2.0], None), ([0.0, 1.0, 2.5], None),
               ([0.0, 0.0, 1.0, 2.0], None), ([0.0, 1.0, 2.0 + 2e-9], 1e-9),
               ([0.0, 1.0, 2.0 + 5e-10], 1e-9), ([0.0, 1.0, 1.16, 2.08], 0.1),
               ([0.0], None)]
    for trial in range(30):
        levels = np.sort(rng.uniform(0.0, 4.0, int(rng.integers(2, 8))))
        if trial % 2:
            levels = np.round(levels * 2) / 2  # degeneracies and shared gaps
        spectra.append((levels.tolist(), None))
    seen = set()
    for levels, tol in spectra:
        dim = len(levels)
        u = random_unitary(rng, dim)
        h = u @ np.diag(np.array(levels, dtype=complex)) @ u.conj().T
        res = derive_generator(h, flat_thermal_bath(0.3, 1.2), [random_hermitian(rng, dim)],
                               degeneracy_tol=tol)
        want = reference_gaps_distinct(res.spectrum)
        assert res.pauli.all_gaps_distinct is want
        assert ("shared-transition-frequency" in res.pauli.flags) is not want
        seen.add(want)
    assert seen == {True, False}
