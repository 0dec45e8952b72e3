"""Propagation of the reduced density matrix and the exact reference dynamics.

Two independent routes produce time series here. propagate() steps a
derived master-equation generator block by block, by the matrix exponential
or the classical RK4 step polynomial of each block: for expm a secular
generator splits into one block per Bohr frequency, and any other generator,
like every RK4 run, is one block, its whole superoperator. exact_oracle()
ignores the generator entirely: it diagonalises the full system+bath
hamiltonian on its symmetry blocks in the product eigenbasis of H_A and H_B
(the connected components of the coupling pattern there, after dropping
entries that are rounding from the rotation), evolves the composite state
unitarily from a factorized initial condition, and partial-traces at each
sample time. A dense bath is the one-block case. The oracle makes no
weak-coupling, Markov or secular approximation, so any disagreement beyond
the two-timescale error budget points at the derivation.

Both routes diagnose their (n, d, d) sample stack in one density_defects pass.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bath import AnalyticBath, FiniteBath, estimate_correlation_time, gamma_matrix
from .generator import BohrBlocks, Generator, _merge_labels, generator_superoperator_matrix
from .generator import rhs_function  # unused here; bench/tracing.py wraps it on this module
from .linalg import (
    DENSITY_TOL,
    DimensionError,
    as_operator,
    density_defects,
    hermiticity_defect,
    matrix_exponential_unitary,
    vec,
)
from .spectral import bohr_frequencies

# default cap on dim_A * dim_B for the exact oracle; env var LF_MAX_DIM overrides
ORACLE_DIM_CAP = 1024
# an entry of a rotated oracle factor within this many ulps of the factor's
# largest entry is rounding from the rotation (exact_oracle's rounding rule)
ROUNDING_ULPS = 32
# the oracle packs symmetry blocks that start within one window of this many
# joint states into one bin
ORACLE_BIN = 64
# rk4 step control: step <= RK4_STEP_FACTOR / (norm bound of the generator)
RK4_STEP_FACTOR = 1.0 / 20.0
# most rk4 steps one propagate may take; checked before any is taken
RK4_MAX_STEPS = 1_000_000
# samples _block_states rotates back to the user basis at once
ROTATION_CHUNK = 512


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-matrix evolution with per-sample diagnostics."""

    times: np.ndarray
    states: np.ndarray  # (n, d, d)
    trace_defects: np.ndarray
    hermiticity_defects: np.ndarray
    min_eigenvalues: np.ndarray
    method: str
    complete: bool = True

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class TimescaleReport:
    """Order-of-magnitude check of the two-timescale assumption tau_B << T_A.

    v_strength is sqrt(max_a <X_a^+ X_a>_B) * max_a ||A_a||_2, t_a_estimate is
    1/(V^2 tau_B), and the verdict grades the ratio V*tau_B: pass below 0.1,
    warn below 1, fail otherwise. non_decaying marks correlation functions with
    no certified decay window (the tau_b value is then a fallback scale, not a
    measured decay time).
    """

    tau_b: float
    t_a_estimate: float
    v_strength: float
    two_scale_ratio: float
    verdict: str
    non_decaying: bool = False


class PropagationError(RuntimeError):
    """Raised when a propagated state stops being a density matrix.

    Carries the failure time, the offending defect value, and the partial
    trajectory accumulated up to (not including) the bad sample.
    """

    def __init__(self, message: str, time: float, defect: float, partial=None):
        super().__init__(message)
        self.time = time
        self.defect = defect
        self.partial = partial


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if t[0] != 0.0:
        raise ValueError(f"times must start at 0, got {t[0]!r}")
    if t.size > 1 and not (np.diff(t) > 0).all():
        raise ValueError("times must be strictly increasing")
    return t


def _check_initial_state(rho0, dim: int) -> np.ndarray:
    rho = as_operator(rho0, "rho0")
    if rho.shape[0] != dim:
        raise ValueError(f"rho0 has dimension {rho.shape[0]}, generator has {dim}")
    if abs(np.trace(rho) - 1.0) > DENSITY_TOL:
        raise ValueError(f"rho0 trace is {np.trace(rho):.6g}, expected 1")
    if hermiticity_defect(rho) > DENSITY_TOL:
        raise ValueError("rho0 is not hermitian")
    return rho


def _rhs_norm_bound(g: Generator) -> float:
    """Crude spectral-norm bound on the generator for rk4 step control; rates
    near the float limit overflow it to inf, which _rk4_propagator refuses."""
    big_g, left, right = g.pieces
    norms = lambda m: np.linalg.norm(m, 2, axis=(-2, -1))
    with np.errstate(over="ignore"):
        bound = 2.0 * norms(g.h_eff) + 2.0 * norms(big_g)
        return float(bound + (norms(left) * norms(right)).sum())


def _gap_key(gap: float) -> float:
    """Time gaps equal up to float noise share one key, so a uniform grid
    costs one exponential."""
    return float(np.format_float_scientific(gap, precision=12))


def _block_states(rho, blocks: BohrBlocks, t, propagator) -> np.ndarray:
    """The states at t, rho first, from the generator's blocks: rho rotated
    into the block basis once, one batched propagator(gaps, matrices) per
    block size over the distinct time gaps, stepped along each run of equal
    gaps, and every sample rotated back into the returned array. Each block
    size's steps are freed once copied out, so at most two sample stacks are
    alive at once."""
    v = blocks.basis
    dim = v.shape[0]
    y0 = vec(v.conj().T @ rho @ v)
    gaps = np.diff(t)
    # the distinct float gaps, their keys, and the key of each step; each
    # key propagates over the smallest of its gaps
    raw, raw_step = np.unique(gaps, return_inverse=True)
    _, smallest, raw_key = np.unique([_gap_key(gap) for gap in raw.tolist()],
                                     return_index=True, return_inverse=True)
    step = raw_key[raw_step]
    # runs of consecutive steps with one key (a uniform grid is one run)
    bounds = [0] + (np.flatnonzero(step[1:] != step[:-1]) + 1).tolist() + [gaps.size]
    runs = [(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]
    samples = np.empty((gaps.size, dim * dim), dtype=complex)
    for index, mats in blocks.groups:
        props = propagator(raw[smallest], mats)  # (distinct gaps, n, s, s)
        y = y0[index][:, :, None]
        out = np.empty((gaps.size,) + y.shape, dtype=complex)
        for start, stop in runs:
            _powers_applied(props[step[start]], y, out[start:stop])
            y = out[stop - 1]
        samples[:, index] = out[..., 0]
        del out, y
    states = np.empty((t.size, dim, dim), dtype=complex)
    states[0] = rho
    # sample k reshaped is rho_k^T, so V rho_k V^+ = (conj(V) rho_k^T V^T)^T:
    # the right factor of every sample in one product, written where the
    # states go, then the left factor in place, ROTATION_CHUNK at a time
    right = states[1:]
    np.matmul(samples.reshape(-1, dim), v.T, out=right.reshape(-1, dim))
    del samples
    for lo in range(0, gaps.size, ROTATION_CHUNK):
        chunk = right[lo:lo + ROTATION_CHUNK]
        chunk[...] = (v.conj() @ chunk).transpose(0, 2, 1)
    return states


def _powers_applied(p, y, out) -> None:
    """out[k] = p^(k+1) y for stacks p (n, s, s) and y (n, s, 1). While more
    than s terms remain, the m known are advanced by p^m at once and p^m is
    squared; the last s or fewer take plain steps, cheaper than a square."""
    out[0] = p @ y
    done = 1
    while len(out) - done > p.shape[-1]:
        power = power @ power if done > 1 else p  # p^done
        count = min(done, len(out) - done)
        np.matmul(power, out[:count], out=out[done:done + count])
        done += count
    for k in range(done, len(out)):
        np.matmul(p, out[k - 1], out=out[k])


def _rk4_propagator(g: Generator, gaps):
    """n classical rk4 steps of size gap/n <= RK4_STEP_FACTOR / (norm bound of
    g) as one propagator T4(B gap/n)^n, since a step of size h on a linear
    generator B is exactly T4(hB) = 1 + hB + (hB)^2/2 + (hB)^3/6 + (hB)^4/24.
    Raises DimensionError when the gaps take more than RK4_MAX_STEPS steps."""
    bound = _rhs_norm_bound(g)
    h_max = RK4_STEP_FACTOR / bound if bound != 0 else math.inf
    with np.errstate(divide="ignore", over="ignore"):  # refused just below
        total = float(np.maximum(1.0, np.ceil(gaps / h_max)).sum())  # NaN for a NaN bound
    if not total <= RK4_MAX_STEPS:
        raise DimensionError(f"rk4 would take {total:.3g} steps (generator norm "
                             f"bound {bound:.3g}), cap is {RK4_MAX_STEPS}")

    def propagator(key_gaps, mats):
        eye, props = np.eye(mats.shape[-1]), []
        for gap in key_gaps.tolist():
            n_steps = max(1, math.ceil(gap / h_max))
            a = (gap / n_steps) * mats
            t4 = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
            props.append(np.linalg.matrix_power(t4, n_steps))
        return np.array(props)
    return propagator


def propagate(rho0, g: Generator, times, method: str = "expm") -> Trajectory:
    """Integrate d rho / dt = rhs(rho) and sample at the given times.

    Both methods make one propagator per block and distinct time gap and
    square it along long runs of equal gaps. 'expm' exponentiates the
    Bohr-frequency blocks of a secular generator from derive_generator, or
    else the one block, the d^2 x d^2 superoperator on the identity basis.
    'rk4' takes classical steps of at most (1/20) / ||L|| on that one block.

    Raises DimensionError before allocating when the largest block (d^2 for
    the superoperator) exceeds MAX_TENSOR_DIM, and before forming it when rk4
    would take more than RK4_MAX_STEPS (or non-finitely many) steps. Raises
    PropagationError, with the samples before it as the partial trajectory,
    at the first sample (one density_defects pass, rho0 first) with an
    eigenvalue below -DENSITY_TOL or a non-finite entry, else a trace defect
    above DENSITY_TOL (1e-6).
    """
    t = _check_times(times)
    rho = _check_initial_state(rho0, g.dim)
    if method == "expm":
        import scipy.linalg  # only expm needs scipy; import it here
        blocks = g.bohr_blocks
        propagator = lambda gaps, mats: scipy.linalg.expm(gaps[:, None, None, None] * mats)
    elif method == "rk4":
        blocks, propagator = None, _rk4_propagator(g, np.diff(t))
    else:
        raise ValueError(f"unknown method {method!r}; expected 'expm' or 'rk4'")
    if blocks is None:
        # the whole superoperator, from the standard form, is the one block
        mat = generator_superoperator_matrix(g)
        blocks = BohrBlocks(basis=np.eye(g.dim, dtype=complex),
                            groups=((np.arange(mat.shape[0])[None], mat[None]),))
    states = _block_states(rho, blocks, t, propagator)
    defects = density_defects(states)
    trace_d, _, min_e = defects
    positive = min_e >= -DENSITY_TOL  # False for a non-finite sample's NaN
    failed = np.flatnonzero(~(positive & (trace_d <= DENSITY_TOL)))
    if failed.size:
        k = failed[0]
        tolerance, name, defect = (("trace", "trace defect", trace_d[k]) if positive[k]
                                   else ("positivity", "min eigenvalue", min_e[k]))
        raise PropagationError(
            f"state left the {tolerance} tolerance at t={t[k]:.6g}: "
            f"{name} {defect:.3e}",
            time=float(t[k]),
            defect=float(defect),
            partial=Trajectory(t[:k], states[:k], *defects[:, :k], method,
                               complete=False),
        )
    return Trajectory(t, states, *defects, method)


def oracle_dimension_cap() -> int:
    raw = os.environ.get("LF_MAX_DIM")
    if raw is None:
        return ORACLE_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"LF_MAX_DIM must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"LF_MAX_DIM must be positive, got {cap}")
    return cap


def exact_oracle(h_a, bath: FiniteBath, couplings, rho_a0, times) -> Trajectory:
    """Exact reduced dynamics from the full system+bath hamiltonian.

    H = H_A x 1 + 1 x H_B + sum_c A_c x X_c is diagonalised on its symmetry
    blocks in the product eigenbasis of H_A and H_B, where it reads
    diag(e_i + E_k) + sum_c A'_c x X'_c. Two product states (i, k) and (j, l)
    share a block when some channel has A'_c[i, j] and X'_c[k, l] both
    nonzero; a ladder or sigma_x coupling to a mode comb, for one, conserves
    the parity of system level plus excited modes, so its H is two halves.
    No joint-sized matrix is formed beyond the blocks themselves. The
    composite state starts factorised as rho_A(0) x sigma_B (the only place
    a product form enters) and evolves unitarily; the reduced state at each
    sample time is summed from the eigenphases over the block pairs the
    initial state couples.

    Rounding rule: the rotated factors A'_c, X'_c and rho_A'(0) count an
    entry within ROUNDING_ULPS (32) ulps of the matrix's largest entry as
    rounding from the rotation, and zero. Dropping entries of at most
    tau = 32 eps max|M| from a d x d matrix M moves it by at most
    d tau <= 32 eps d ||M|| in the spectral norm, so the joint H moves by at
    most 32 eps (d_A + d_B) sum_c ||A_c|| ||X_c|| (to first order in eps),
    the reduced state at time t by at most t times that in trace distance,
    and rho_A(0) by at most 32 eps d_A^2 in trace norm.
    """
    if not isinstance(bath, FiniteBath):
        raise TypeError("exact_oracle needs a FiniteBath (analytic baths have "
                        "no microscopic hamiltonian to diagonalize)")
    h_a = as_operator(h_a, "system hamiltonian")
    rho_a0 = as_operator(rho_a0, "rho_a0")
    t = _check_times(times)
    d_a = h_a.shape[0]
    d_b = bath.dim
    if rho_a0.shape[0] != d_a:
        raise ValueError(f"rho_a0 has dimension {rho_a0.shape[0]}, system has {d_a}")
    ops = [as_operator(a, f"couplings[{i}]") for i, a in enumerate(couplings)]
    if len(ops) != bath.channel_count:
        raise ValueError(
            f"bath provides {bath.channel_count} coupling channels, "
            f"got {len(ops)} system operators"
        )
    total = d_a * d_b
    cap = oracle_dimension_cap()
    if total > cap:
        raise DimensionError(
            f"total dimension {d_a}x{d_b}={total} exceeds the oracle cap {cap}; "
            "use a smaller bath or raise LF_MAX_DIM"
        )

    e_a, u_a = np.linalg.eigh(_real_if_real(0.5 * (h_a + h_a.conj().T)))
    rotate = lambda m: _rounding_dropped(u_a.conj().T @ m @ u_a)
    a_rot = [rotate(a) for a in ops]
    x_rot = [_rounding_dropped(x) for x in bath._x_eig]
    rho_rot = rotate(rho_a0)
    energies = np.add.outer(e_a, bath._energies).ravel()  # at i d_B + k
    blocks = _oracle_blocks(a_rot, x_rot, energies, d_b)
    reduced = _reduced_states(blocks, rho_rot, bath._populations, t, d_a, d_b)
    states = u_a @ reduced @ u_a.conj().T
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
    return Trajectory(t, states, *density_defects(states), "exact")


def _real_if_real(m: np.ndarray) -> np.ndarray:
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


def _rounding_dropped(m: np.ndarray) -> np.ndarray:
    """m, hermitised, with every entry within ROUNDING_ULPS ulps of its
    largest entry set to zero; real when no imaginary part is left."""
    m = 0.5 * (m + m.conj().T)
    mag = np.abs(m)
    floor = ROUNDING_ULPS * np.finfo(float).eps * mag.max(initial=0.0)
    return _real_if_real(np.where(mag > floor, m, 0.0))


@dataclass(frozen=True)
class _OracleBlocks:
    """The joint eigenbasis on the symmetry blocks, packed into bins.

    order lists the joint states i d_B + k block by block; bin b holds the
    states order[start[b]:start[b] + size[b]], their eigenvalues w at the
    same places, and eigenvectors mats[b] (block diagonal when the bin packs
    several blocks). bin_of and pos give each joint state's bin and row.
    """

    order: np.ndarray
    start: np.ndarray
    size: np.ndarray
    w: np.ndarray
    mats: tuple
    bin_of: np.ndarray
    pos: np.ndarray


def _oracle_blocks(a_rot, x_rot, energies, d_b: int) -> _OracleBlocks:
    """Connected components of the coupling pattern, each diagonalised on
    its own (one stacked eigh per block size, the real solver for a real
    stack). Components that start within one window of ORACLE_BIN states
    share a bin, so the work that follows loops over at most D / ORACLE_BIN
    bins however many components there are."""
    total = energies.size
    src, dst = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for a, x in zip(a_rot, x_rot):
        i, j = np.nonzero(a)
        k, l = np.nonzero(x)
        src.append((i[:, None] * d_b + k).ravel())
        dst.append((j[:, None] * d_b + l).ravel())
    label = _merge_labels(np.arange(total), np.concatenate(src), np.concatenate(dst))
    # components ranked by their smallest state, each one's states ascending
    order = np.argsort(label, kind="stable")
    comp_size = np.bincount(label)
    comp_size = comp_size[comp_size > 0]
    comp_start = np.cumsum(comp_size) - comp_size
    window = comp_start // ORACLE_BIN
    opens = np.append(True, window[1:] != window[:-1])  # a component opens a bin
    comp_bin = np.cumsum(opens) - 1
    bin_start = comp_start[opens]
    bin_size = np.diff(np.append(bin_start, total))
    offset = np.cumsum(bin_size ** 2) - bin_size ** 2  # of each bin in one buffer

    w = np.empty(total)
    solved = []
    for s in np.unique(comp_size).tolist():
        which = np.flatnonzero(comp_size == s)
        at = comp_start[which][:, None] + np.arange(s)
        i, k = np.divmod(order[at], d_b)
        h = np.zeros((which.size, s, s), dtype=np.result_type(*a_rot, *x_rot, float))
        for a, x in zip(a_rot, x_rot):
            h += a[i[:, :, None], i[:, None, :]] * x[k[:, :, None], k[:, None, :]]
        h[:, np.arange(s), np.arange(s)] += energies[order[at]]
        w[at], v = np.linalg.eigh(_real_if_real(h))
        solved.append((which, v))
    flat = np.zeros(int(offset[-1] + bin_size[-1] ** 2),
                    dtype=np.result_type(*(v for _, v in solved)))
    for which, v in solved:
        b = comp_bin[which][:, None, None]
        at = (comp_start[which] - bin_start[comp_bin[which]])[:, None, None]
        r = np.arange(v.shape[-1])
        flat[offset[b] + (at + r[:, None]) * bin_size[b] + at + r] = v
    mats = tuple(flat[o:o + s * s].reshape(s, s)
                 for o, s in zip(offset.tolist(), bin_size.tolist()))

    state_bin = np.repeat(comp_bin, comp_size)  # along order
    bin_of = np.empty(total, dtype=int)
    bin_of[order] = state_bin
    pos = np.empty(total, dtype=int)
    pos[order] = np.arange(total) - bin_start[state_bin]
    return _OracleBlocks(order, bin_start, bin_size, w, mats, bin_of, pos)


def _reduced_states(blocks: _OracleBlocks, rho_rot, pops, t, d_a: int,
                    d_b: int) -> np.ndarray:
    """rho_A'(t) in the H_A eigenbasis, summed over the pairs of bins
    (B, B') that rho_A'(0) x sigma_B couples.

    With P_B the eigenvectors of bin B and rho_bar = P_B^+ M P_B' the initial
    state between the two bins, rho_A'(t)_ij gains
    sum_mn (rho_bar * S_ij)[m, n] e^{-i w_m t} e^{+i w_n t}, where
    S_ij = sum_k P_B[(i, k), m] conj(P_B'[(j, k), n]) runs over the bath
    states k the two bins share. When rho_bar * S_ij is real, its phase
    products are real GEMMs on the cos and sin tables, stacked as one.
    """
    n_bins, n_t = blocks.start.size, t.size
    i, k = np.divmod(np.arange(d_a * d_a * d_b), d_a * d_b)
    j, k = np.divmod(k, d_b)
    left_bin = blocks.bin_of[i * d_b + k]
    right_bin = blocks.bin_of[j * d_b + k]
    live = (rho_rot[i, j] != 0) & (pops[k] != 0)
    coupled = np.zeros((n_bins, n_bins), dtype=bool)
    coupled[left_bin[live], right_bin[live]] = True
    # one item per bin pair and i <= j, holding the bath states k they share
    keep = np.flatnonzero((i <= j) & coupled[left_bin, right_bin])
    key = ((left_bin[keep] * n_bins + right_bin[keep]) * d_a + i[keep]) * d_a + j[keep]
    ranked = np.argsort(key, kind="stable")
    keep, key = keep[ranked], key[ranked]
    bounds = [0] + (np.flatnonzero(np.diff(key)) + 1).tolist() + [keep.size]

    real = not (np.iscomplexobj(blocks.mats[0]) or np.iscomplexobj(rho_rot))
    tables = {}

    def phases(b):
        """e^{-i w_m t} over the states of bin b; when everything is real,
        its cos above its sin as one real table."""
        if b not in tables:
            lo = blocks.start[b]
            wt = np.outer(t, blocks.w[lo:lo + blocks.size[b]])
            tables[b] = (np.concatenate((np.cos(wt), np.sin(wt))) if real
                         else np.exp(-1j * wt))
        return tables[b]

    out = np.zeros((n_t, d_a, d_a), dtype=complex)
    pair = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        item = keep[lo:hi]
        b, b2 = int(left_bin[item[0]]), int(right_bin[item[0]])
        p, p2 = blocks.mats[b], blocks.mats[b2]
        if (b, b2) != pair:
            pair = (b, b2)
            rho_bar = p.conj().T @ _state_times_block(blocks, b, b2, rho_rot, pops,
                                                      d_a, d_b)
        ii, jj, ks = int(i[item[0]]), int(j[item[0]]), k[item]
        s_ij = p[blocks.pos[ii * d_b + ks]].T @ p2[blocks.pos[jj * d_b + ks]].conj()
        g = phases(b) @ (rho_bar * s_ij)
        ph2 = phases(b2)
        if real:  # g is cos C above sin C
            series = ((g[:n_t] * ph2[:n_t] + g[n_t:] * ph2[n_t:]).sum(axis=1)
                      + 1j * (g[:n_t] * ph2[n_t:] - g[n_t:] * ph2[:n_t]).sum(axis=1))
        else:
            series = (g * ph2.conj()).sum(axis=1)
        # half of each population, so adding the adjoint below fills the
        # lower triangle and makes the populations real
        out[:, ii, jj] += series if ii != jj else 0.5 * series
    return out + out.conj().transpose(0, 2, 1)


def _state_times_block(blocks: _OracleBlocks, b: int, b2: int, rho_rot, pops,
                       d_a: int, d_b: int) -> np.ndarray:
    """(rho_A'(0) x sigma_B) P_B' on the rows of bin B: row (i, k) sums
    rho_A'(0)[i, j] p_k P_B'[(j, k)] over the j whose (j, k) lies in B'."""
    lo = blocks.start[b]
    i, k = np.divmod(blocks.order[lo:lo + blocks.size[b]], d_b)
    p2 = blocks.mats[b2]
    out = np.zeros((i.size, p2.shape[1]), dtype=np.result_type(rho_rot, p2))
    for j in range(d_a):
        target = j * d_b + k
        rows = np.flatnonzero((blocks.bin_of[target] == b2) & (rho_rot[i, j] != 0)
                              & (pops[k] != 0))
        weight = rho_rot[i[rows], j] * pops[k[rows]]
        out[rows] += weight[:, None] * p2[blocks.pos[target[rows]]]
    return out


def interaction_picture(op, h0, t: float, direction: str = "to") -> np.ndarray:
    """Rotate an operator by e^{i h0 t} ... e^{-i h0 t} ('to') or back ('from')."""
    op = as_operator(op, "op")
    h0 = as_operator(h0, "h0")
    u = matrix_exponential_unitary(h0, t)  # e^{-i h0 t}
    if direction == "to":
        return u.conj().T @ op @ u
    if direction == "from":
        return u @ op @ u.conj().T
    raise ValueError(f"unknown direction {direction!r}; expected 'to' or 'from'")


def timescale_report(bath, couplings, spectrum=None, tau_b: float | None = None,
                     gammas=None) -> TimescaleReport:
    """Grade the two-timescale assumption for the given microscopic data.

    Finite baths get tau_B from the correlation-function estimator and the
    interaction strength from the exact second moment <X^+ X>_B. Analytic
    baths carry no correlation data, so tau_b must be supplied; their strength
    is inferred as max_W ||Gamma(W)||_2 / (2 tau_b) over the spectrum's Bohr
    frequencies (Gamma ~ 2 * moment * tau_B at the order-of-magnitude level).
    gammas, when given, is that Gamma table (DeriveResult.gammas), so the
    bath is not evaluated again.
    """
    ops = [as_operator(a, f"couplings[{i}]") for i, a in enumerate(couplings)]
    a_norm = max((float(np.linalg.norm(a, 2)) for a in ops), default=0.0)

    non_decaying = False
    if isinstance(bath, FiniteBath):
        if tau_b is None:
            table = estimate_correlation_time(bath)
            tau_b = table.tau_b_estimate
            non_decaying = table.non_decaying
        moment = 0.0
        for alpha in range(bath.channel_count):
            x = bath.coupling_ops[alpha]
            moment = max(moment, bath.expectation(x.conj().T @ x).real)
        v_strength = math.sqrt(max(moment, 0.0)) * a_norm
    elif isinstance(bath, AnalyticBath):
        if tau_b is None:
            raise ValueError(
                "analytic baths have no correlation function to estimate "
                "tau_b from; pass tau_b explicitly"
            )
        if gammas is None:
            if spectrum is None:
                raise ValueError("need the system spectrum to sample Gamma for "
                                 "an analytic bath")
            gammas = gamma_matrix(bath, bohr_frequencies(spectrum).values)
        gnorm = float(np.linalg.norm(gammas, 2, axis=(1, 2)).max(initial=0.0))
        if tau_b > 0 and math.isfinite(tau_b):
            moment = gnorm / (2.0 * tau_b)
        else:
            moment = 0.0
        v_strength = math.sqrt(moment) * a_norm
    else:
        raise TypeError(f"unsupported bath type {type(bath).__name__}")

    tau_b = float(tau_b)
    if v_strength == 0.0 or tau_b == 0.0:
        ratio = 0.0
        t_a = math.inf
    elif math.isinf(tau_b):
        ratio = math.inf
        t_a = 0.0
    else:
        ratio = v_strength * tau_b
        t_a = 1.0 / (v_strength * v_strength * tau_b)

    if ratio < 0.1:
        verdict = "pass"
    elif ratio < 1.0:
        verdict = "warn"
    else:
        verdict = "fail"
    return TimescaleReport(
        tau_b=tau_b,
        t_a_estimate=t_a,
        v_strength=v_strength,
        two_scale_ratio=ratio,
        verdict=verdict,
        non_decaying=non_decaying,
    )
