"""Propagation of the reduced density matrix and the exact reference dynamics.

Two independent routes produce time series here. propagate() steps a
derived master-equation generator block by block, by the matrix exponential
or by classical RK4 steps of each block: a secular generator from
derive_generator splits into one block per Bohr frequency, and any other
generator is one block, its whole superoperator. exact_oracle()
ignores the generator entirely: it diagonalises the full system+bath
hamiltonian on its symmetry blocks in the product eigenbasis of H_A and H_B
(the connected components of the coupling pattern there, after dropping
entries that are rounding from the rotation, with the eigenvector phases
of H_A chosen to make the couplings real where some choice does), evolves
the composite state unitarily from a factorized initial condition, and
partial-traces at each sample time. A dense bath is the one-block case.
The oracle makes no weak-coupling, Markov or secular approximation, so any
disagreement beyond the two-timescale error budget points at the
derivation.

Both routes diagnose their (n, d, d) sample stack in one matrix_defects pass.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bath import (AnalyticBath, FiniteBath, estimate_correlation_time, gamma_matrix,
                   require_channel_count)
from .generator import BohrBlocks, Generator, _merge_labels, generator_superoperator_matrix
from .generator import rhs_function  # unused here; bench/tracing.py wraps it on this module
from .linalg import (
    DENSITY_TOL,
    DimensionError,
    as_hermitian,
    as_operator,
    cluster_starts,
    expm,
    hermitian_part,
    matrix_defects,
    matrix_exponential_unitary,
    validate_density_matrix,
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
# rk4 step control: the blocks of one size step at h <= RK4_STEP_FACTOR /
# ||B - c||_1, their largest 1-norm with each block's mean diagonal c out
RK4_STEP_FACTOR = 1.0 / 100.0
# most rk4 steps the blocks of one size may take; every size is counted first
RK4_MAX_STEPS = 1_000_000
# samples _block_states rotates back to the user basis at once
ROTATION_CHUNK = 512
# time gaps that chain within this relative tolerance (single linkage on
# log(gap)) are one class with one propagator, so a uniform grid is one class
GAP_RTOL = 1e-12


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


def _check_initial_state(rho0, dim: int, name: str = "rho0") -> np.ndarray:
    """rho0, refused unless validate_density_matrix finds it valid."""
    rho = as_operator(rho0, name)
    if rho.shape[0] != dim:
        raise ValueError(f"{name} has dimension {rho.shape[0]}, expected {dim}")
    r = validate_density_matrix(rho)
    if not r.valid:  # NaN defects (an overflowing hermitian part) are invalid
        raise ValueError(f"{name} is {r.refusal}")
    return rho


# a step that overflows leaves inf or NaN in the states, which propagate
# refuses after its matrix_defects pass
@np.errstate(over="ignore", invalid="ignore")
def _block_states(rho, blocks: BohrBlocks, t, propagators) -> np.ndarray:
    """The states at t, rho first, from the generator's blocks: rho rotated
    into the block basis once, one batched call of each block size's
    propagator(gaps) over the classes of equal time gaps (GAP_RTOL), and
    stepped along each run of one class straight into the returned array,
    where each sample's row holds the block sizes' entries back to back.
    The rows are then put back in order and rotated into the user basis in
    place, ROTATION_CHUNK samples at a time, so one sample stack is alive."""
    v = blocks.basis
    dim = v.shape[0]
    y0 = vec(v.conj().T @ rho @ v)
    gaps = np.diff(t)
    # the distinct float gaps, clustered by single linkage on log(gap), and
    # the class of each step; each class propagates over its smallest gap
    raw, raw_step = np.unique(gaps, return_inverse=True)
    smallest = cluster_starts(np.log(raw), GAP_RTOL)
    step = (np.searchsorted(smallest, np.arange(raw.size), side="right") - 1)[raw_step]
    # runs of consecutive steps in one class (a uniform grid is one run)
    bounds = [0] + (np.flatnonzero(step[1:] != step[:-1]) + 1).tolist() + [gaps.size]
    runs = [(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]
    states = np.empty((t.size, dim, dim), dtype=complex)
    states[0] = rho
    rows = states[1:].reshape(gaps.size, dim * dim)
    col = 0
    for (index, _), propagator in zip(blocks.groups, propagators):
        props = propagator(raw[smallest])  # (gap classes, n, s, s)
        y = y0[index][:, :, None]
        # this block size's columns of rows, a view split into its blocks
        out = rows[:, col:col + index.size].reshape((gaps.size,) + y.shape)
        for start, stop in runs:
            _powers_applied(props[step[start]], y, out[start:stop])
            y = out[stop - 1]
        col += index.size
    # row k in flat-index order is rho_k^T, so V rho_k V^+ =
    # (conj(V) rho_k^T V^T)^T
    order = np.argsort(np.concatenate([index.ravel() for index, _ in blocks.groups]))
    for lo in range(1, t.size, ROTATION_CHUNK):
        chunk = states[lo:lo + ROTATION_CHUNK]
        right = chunk.reshape(-1, dim * dim)[:, order].reshape(-1, dim) @ v.T
        chunk[...] = (v.conj() @ right.reshape(chunk.shape)).transpose(0, 2, 1)
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


def _rk4_propagator(mats, gaps, populated):
    """propagator(gaps) for blocks B of one size: per block and gap,
    e^{c gap} T4(h (B - c))^n, the exact result of n = max(1, ceil(gap rate))
    classical rk4 steps of h = gap / n on B - c, T4(A) = 1 + A + A^2/2 + A^3/6
    + A^4/24. c, the block's mean diagonal, commutes with B, so its factor is
    exact; a block marked in populated holds a population and steps B itself
    (c = 0), as the trace row is a left null vector of B but not of B - c.
    rate is the largest ||B - mean diagonal||_1 / RK4_STEP_FACTOR either way.
    Raises DimensionError when the gaps would take more than RK4_MAX_STEPS
    (or non-finitely many) steps."""
    eye = np.eye(mats.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        c = np.trace(mats, axis1=1, axis2=2) / eye.shape[0]
        rate = float(np.abs(mats - c[:, None, None] * eye).sum(axis=1).max()) / RK4_STEP_FACTOR
        total = float(np.maximum(1.0, np.ceil(gaps * rate)).sum())  # NaN for a NaN rate
    if not total <= RK4_MAX_STEPS:
        raise DimensionError(f"rk4 would take {total:.3g} steps on blocks of size "
                             f"{eye.shape[0]} (step rate {rate:.3g}), cap is {RK4_MAX_STEPS}")
    c = np.where(populated, 0.0, c)

    def propagator(key_gaps):
        shifted, props = mats - c[:, None, None] * eye, []
        for gap in key_gaps.tolist():
            n_steps = max(1, math.ceil(gap * rate))
            a = (gap / n_steps) * shifted
            t4 = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
            props.append(np.linalg.matrix_power(t4, n_steps) * np.exp(c * gap)[:, None, None])
        return np.array(props)
    return propagator


def propagate(rho0, g: Generator, times, method: str = "expm") -> Trajectory:
    """Integrate d rho / dt = rhs(rho) and sample at the given times.

    Both methods step the same blocks, the Bohr-frequency blocks of a
    secular generator from derive_generator or else the one block, the
    d^2 x d^2 superoperator on the identity basis, with one propagator per
    block and class of equal time gaps (GAP_RTOL), squared along long runs
    of one class.
    'expm' exponentiates each block (linalg.expm, numpy's scaling and
    squaring). 'rk4' steps each block classically at h <= RK4_STEP_FACTOR
    (1/100) / ||B - c||_1, c its mean diagonal, the largest over the blocks
    of one size; a block without a population has c applied exactly and steps
    B - c, a block with one steps B, which keeps the trace to rounding.

    Raises ValueError for a rho0 that _check_initial_state refuses, and
    DimensionError before allocating when the largest block (d^2 for the
    superoperator) exceeds MAX_TENSOR_DIM, and before any step when rk4
    would take more than RK4_MAX_STEPS (or non-finitely many) steps on the
    blocks of one size. Raises PropagationError, with the samples before it
    as the partial trajectory, at the first sample (one matrix_defects
    pass, rho0 first) with an eigenvalue below -DENSITY_TOL or a hermitian
    part that is not finite, else a trace defect above DENSITY_TOL (1e-6).
    """
    t = _check_times(times)
    rho = _check_initial_state(rho0, g.dim)
    if method not in ("expm", "rk4"):
        raise ValueError(f"unknown method {method!r}; expected 'expm' or 'rk4'")
    blocks = g.bohr_blocks
    if blocks is None:
        # the whole superoperator, from the standard form, is the one block
        mat = generator_superoperator_matrix(g)
        blocks = BohrBlocks(basis=np.eye(g.dim, dtype=complex),
                            groups=((np.arange(mat.shape[0])[None], mat[None]),))
    if method == "expm":
        propagators = [lambda gaps, m=mats: expm(gaps[:, None, None, None] * m)
                       for _, mats in blocks.groups]
    else:  # every block size is counted before any step is taken; rho_aa
        # sits at a (d + 1) of the flat index
        propagators = [_rk4_propagator(mats, np.diff(t),
                                       (index % (g.dim + 1) == 0).any(axis=1))
                       for index, mats in blocks.groups]
    states = _block_states(rho, blocks, t, propagators)
    trace_d, _, herm_d, min_e = matrix_defects(states)
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
            partial=Trajectory(t[:k], states[:k], trace_d[:k], herm_d[:k], min_e[:k],
                               method, complete=False),
        )
    return Trajectory(t, states, trace_d, herm_d, min_e, method)


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
    initial state couples. H_A must pass as_hermitian and rho_a0 the
    initial-state check of propagate, or ValueError is raised.

    Per-bin lifecycle: blocks that start within one window of ORACLE_BIN
    states share a bin. The blocks, bins and coupled bin pairs are laid
    out before any eigh (_oracle_layout); the pairs are then walked in
    order, and a bin is diagonalised, one eigh of its whole H, when a pair
    first needs it and let go after its last pair (_reduced_states). A bin
    no pair needs is never diagonalised, and a diagonal rho_A'(0) holds one
    bin at a time. Every pair is summed by one formula from the bins' real
    cos and sin tables, whether its bins are real or complex (_pair_series).

    Real gauge: the phases of H_A's eigenvectors are free. Where one choice
    of them makes every A'_c real, the oracle works in it (_real_gauge), so
    a coupling written in a complex system basis still gives real blocks,
    the real solver and real GEMMs.

    Rounding rule: the rotated factors A'_c, X'_c and rho_A'(0) count an
    entry, and an imaginary part, within ROUNDING_ULPS (32) ulps of the
    matrix's largest entry as rounding from the rotation, and zero. Either
    moves an entry of a d x d matrix M by at most tau = 32 eps max|M|, so M
    moves by at most d tau <= 32 eps d ||M|| in the spectral norm, the joint
    H by at most 32 eps (d_A + d_B) sum_c ||A_c|| ||X_c|| (to first order in
    eps), the reduced state at time t by at most t times that in trace
    distance, and rho_A(0) by at most 32 eps d_A^2 in trace norm. The gauge
    is a diagonal unitary and changes none of these norms.
    """
    if not isinstance(bath, FiniteBath):
        raise TypeError("exact_oracle needs a FiniteBath (analytic baths have "
                        "no microscopic hamiltonian to diagonalize)")
    h_a = as_hermitian(h_a, "system hamiltonian")
    t = _check_times(times)
    d_a = h_a.shape[0]
    d_b = bath.dim
    rho_a0 = _check_initial_state(rho_a0, d_a, "rho_a0")
    ops = [as_operator(a, f"couplings[{i}]") for i, a in enumerate(couplings)]
    require_channel_count(bath, len(ops))
    total = d_a * d_b
    cap = oracle_dimension_cap()
    if total > cap:
        raise DimensionError(
            f"total dimension {d_a}x{d_b}={total} exceeds the oracle cap {cap}; "
            "use a smaller bath or raise LF_MAX_DIM"
        )

    e_a, u_a = np.linalg.eigh(_real_if_real(hermitian_part(h_a)))
    u_a, a_rot = _real_gauge(u_a, ops)
    x_rot = _rounding_dropped_pattern(bath._pattern(), d_b)
    rho_rot = _rounding_dropped(u_a.conj().T @ rho_a0 @ u_a)
    energies = np.add.outer(e_a, bath._energies).ravel()  # at i d_B + k
    layout = _oracle_layout(a_rot, x_rot, d_a, d_b)
    reduced = _reduced_states(layout, a_rot, x_rot, energies, rho_rot,
                              bath._populations, t, d_a, d_b)
    states = hermitian_part(u_a @ reduced @ u_a.conj().T)
    trace_d, _, herm_d, min_e = matrix_defects(states)
    return Trajectory(t, states, trace_d, herm_d, min_e, "exact")


def _real_if_real(m: np.ndarray) -> np.ndarray:
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


def _rounding_dropped(m: np.ndarray) -> np.ndarray:
    """m, hermitised, with every entry and every imaginary part within
    ROUNDING_ULPS ulps of its largest entry set to zero; real when no
    imaginary part is left."""
    return _drop_rounding(hermitian_part(m))


def _drop_rounding(m: np.ndarray) -> np.ndarray:
    """_rounding_dropped of an array already hermitised."""
    mag = np.abs(m)
    floor = ROUNDING_ULPS * np.finfo(float).eps * mag.max(initial=0.0)
    m = np.where(mag > floor, m, 0.0)
    if np.iscomplexobj(m):
        m.imag[np.abs(m.imag) <= floor] = 0.0
    # a real result is copied out, so the complex buffer is not kept alive
    return m.real.copy() if np.iscomplexobj(m) and not m.imag.any() else m


def _rounding_dropped_pattern(pattern, d_b: int):
    """The X'_c of the rounding rule from X on its nonzero pattern
    (FiniteBath._pattern), entry by entry as _rounding_dropped forms them
    from the dense matrices: hermitised on the union of the pattern and its
    transpose, then dropped per channel. Returns (rows, cols, values) over
    the entries some channel keeps, in row order; values real when no
    channel keeps an imaginary part."""
    rows, cols, values = pattern
    key, flipped = rows * d_b + cols, cols * d_b + rows
    union = np.union1d(key, flipped)
    m = np.zeros((2, len(values), union.size), dtype=complex)
    m[0][:, np.searchsorted(union, key)] = values
    m[1][:, np.searchsorted(union, flipped)] = values  # m[1] at (i, j) is X[j, i]
    with np.errstate(over="ignore", invalid="ignore"):
        kept = np.array([_drop_rounding(x) for x in 0.5 * (m[0] + m[1].conj())])
    kept = kept.reshape(len(values), union.size)
    live = np.flatnonzero(kept.any(axis=0))
    rows, cols = np.divmod(union[live], d_b)
    return rows, cols, kept.take(live, axis=1)


def _real_gauge(u_a, ops):
    """The eigenvectors u_a, their free phases chosen so that every rotated
    coupling A'_c = u_a^+ A_c u_a is real, and those A'_c (rounding dropped).

    Along a spanning tree of the pattern of the A'_c, c_j = c_i |A'_ij| / A'_ij
    for the first channel with A'_ij nonzero makes that entry |A'_ij|. Where
    a cycle of some channel's entries still carries a phase, no gauge makes
    it real, and the phases stay all ones, as they do when every A'_c is
    real already."""
    rotate = lambda u: [_rounding_dropped(u.conj().T @ a @ u) for a in ops]
    plain = rotate(u_a)
    if not any(np.iscomplexobj(a) for a in plain):
        return u_a, plain
    stack = np.array(plain, dtype=complex)  # (channels, d, d)
    first = (stack != 0).argmax(axis=0)
    entry = np.take_along_axis(stack, first[None], axis=0)[0]
    phases = np.ones(u_a.shape[0], dtype=complex)
    seen = np.zeros(u_a.shape[0], dtype=bool)
    for root in range(seen.size):
        if seen[root]:
            continue
        seen[root] = True
        tree = [root]
        for i in tree:  # grows as it is read: a breadth-first search
            new = np.flatnonzero((entry[i] != 0) & ~seen)
            phases[new] = phases[i] * np.abs(entry[i, new]) / entry[i, new]
            seen[new] = True
            tree.extend(new.tolist())
    gauged_u = u_a * phases
    gauged = rotate(gauged_u)
    if any(np.iscomplexobj(a) for a in gauged):
        return u_a, plain
    return gauged_u, gauged


@dataclass(frozen=True)
class _OracleLayout:
    """The symmetry blocks of the joint H and their bins, before any eigh.

    order lists the joint states i d_B + k block by block, and bin b holds
    order[start[b]:start[b] + size[b]]. bin_of and pos give each joint
    state's bin and row.
    """

    order: np.ndarray
    start: np.ndarray
    size: np.ndarray
    bin_of: np.ndarray
    pos: np.ndarray


def _oracle_layout(a_rot, x_rot, d_a: int, d_b: int) -> _OracleLayout:
    """Connected components of the coupling pattern. Components that start
    within one window of ORACLE_BIN states share a bin, so the work that
    follows loops over at most D / ORACLE_BIN bins however many components
    there are."""
    total = d_a * d_b
    rows, cols, values = x_rot
    src, dst = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for a, x in zip(a_rot, values):
        i, j = np.nonzero(a)
        k, l = rows[x != 0], cols[x != 0]
        src.append((i[:, None] * d_b + k).ravel())
        dst.append((j[:, None] * d_b + l).ravel())
    label = _merge_labels(np.arange(total), np.concatenate(src), np.concatenate(dst))
    # components ranked by their smallest state, each one's states ascending
    order = np.argsort(label, kind="stable")
    comp_size = np.bincount(label)
    comp_size = comp_size[comp_size > 0]
    comp_start = np.cumsum(comp_size) - comp_size
    window = comp_start // ORACLE_BIN
    bin_start = comp_start[np.append(True, window[1:] != window[:-1])]
    bin_size = np.diff(np.append(bin_start, total))
    state_bin = np.repeat(np.arange(bin_start.size), bin_size)  # along order
    bin_of = np.empty(total, dtype=int)
    bin_of[order] = state_bin
    pos = np.empty(total, dtype=int)
    pos[order] = np.arange(total) - bin_start[state_bin]
    return _OracleLayout(order, bin_start, bin_size, bin_of, pos)


def _bin_eigen(layout: _OracleLayout, b: int, a_rot, x_rot, energies, d_b: int,
               dtype) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of bin b from one eigh of its H, built in
    dtype (block diagonal when the bin packs several components); the real
    solver, and real eigenvectors, for a real H.

    H is written on the coupling pattern: row (i, k) meets column (j, l)
    where some A'_c[i, j] is nonzero and (k, l) is an entry of the X'
    pattern (rows, cols, values), and each channel adds A'_c[i, j] X'_c[k, l]
    in channel order. A dense build adds the same products in the same
    order, and exact zeros elsewhere, so H has its bits."""
    lo = int(layout.start[b])
    states = layout.order[lo:lo + layout.size[b]]
    i, k = np.divmod(states, d_b)
    rows, cols, values = x_rot
    # the pattern entries e on each state's bath row k (rows ascend)
    first = np.searchsorted(rows, k)
    count = np.searchsorted(rows, k, side="right") - first
    p = np.repeat(np.arange(states.size), count)
    e = np.arange(p.size) + np.repeat(first - (np.cumsum(count) - count), count)
    # to every system level j that some A'_c[i, j] reaches, within the bin
    d_a = layout.pos.size // d_b
    reach = np.zeros((d_a, d_a), dtype=bool)
    for a in a_rot:
        reach |= a != 0
    hit, j = np.nonzero(reach[i[p]])
    target = j * d_b + cols[e[hit]]
    inside = layout.bin_of[target] == b
    p, e, j = p[hit[inside]], e[hit[inside]], j[inside]
    q, i = layout.pos[target[inside]], i[p]
    h = np.zeros((states.size, states.size), dtype=dtype)
    for a, x in zip(a_rot, values):  # (p, q) is one entry of H per term
        term = a[i, j].astype(dtype, copy=False)
        h[p, q] += np.multiply(term, x[e], out=term)
    h[np.diag_indices(states.size)] += energies[states]
    return np.linalg.eigh(_real_if_real(h))


def _reduced_states(layout: _OracleLayout, a_rot, x_rot, energies, rho_rot, pops,
                    t, d_a: int, d_b: int) -> np.ndarray:
    """rho_A'(t) in the H_A eigenbasis, summed over the pairs of bins
    (B, B') that rho_A'(0) x sigma_B couples.

    With P_B the eigenvectors of bin B and rho_bar = P_B^+ M P_B' the initial
    state between the two bins, rho_A'(t)_ij gains
    sum_mn (rho_bar * S_ij)[m, n] e^{-i w_m t} e^{+i w_n t}, where
    S_ij = sum_k P_B[(i, k), m] conj(P_B'[(j, k), n]) runs over the bath
    states k the two bins share. Each bin keeps one real phase table, its
    cos(w t) above its sin(w t), whatever the dtype of its eigenvectors
    (_pair_series).

    The pairs are walked in order of (B, B'); _bin_eigen diagonalises bin B
    when a pair first needs it, and its eigenvectors and phase table are let
    go after its last pair. A diagonal rho_A'(0) couples each bin only to
    itself, so one bin is alive at a time.
    """
    n_bins, n_t = layout.start.size, t.size
    i, k = np.divmod(np.arange(d_a * d_a * d_b), d_a * d_b)
    j, k = np.divmod(k, d_b)
    left_bin = layout.bin_of[i * d_b + k]
    right_bin = layout.bin_of[j * d_b + k]
    live = (rho_rot[i, j] != 0) & (pops[k] != 0)
    coupled = np.zeros((n_bins, n_bins), dtype=bool)
    coupled[left_bin[live], right_bin[live]] = True
    # one item per bin pair and i <= j, holding the bath states k they share
    keep = np.flatnonzero((i <= j) & coupled[left_bin, right_bin])
    pair = left_bin[keep] * n_bins + right_bin[keep]
    key = (pair * d_a + i[keep]) * d_a + j[keep]
    ranked = np.argsort(key, kind="stable")
    keep, key, pair = keep[ranked], key[ranked], pair[ranked]
    bounds = [0] + (np.flatnonzero(np.diff(key)) + 1).tolist() + [keep.size]
    pairs = np.unique(pair)
    last = np.full(n_bins, -1)  # each bin's last pair, on either side
    for side in (pairs // n_bins, pairs % n_bins):
        np.maximum.at(last, side, np.arange(pairs.size))

    dtype = np.result_type(*a_rot, x_rot[2], float)  # of the blocks' H
    alive = {}

    def bin_data(b):
        """Bin b's eigenvectors and its cos(w_m t) above its sin(w_m t)."""
        if b not in alive:
            w, p = _bin_eigen(layout, b, a_rot, x_rot, energies, d_b, dtype)
            wt = np.outer(t, w)
            alive[b] = (p, np.concatenate((np.cos(wt), np.sin(wt))))
        return alive[b]

    out = np.zeros((n_t, d_a, d_a), dtype=complex)
    group = 0
    for q, pq in enumerate(pairs.tolist()):
        b, b2 = divmod(pq, n_bins)
        (p, ph), (p2, ph2) = bin_data(b), bin_data(b2)
        rho_bar = p.conj().T @ _state_times_block(layout, b, b2, p2, rho_rot, pops,
                                                  d_a, d_b)
        while group < len(bounds) - 1 and pair[bounds[group]] == pq:
            item = keep[bounds[group]:bounds[group + 1]]
            ii, jj, ks = int(i[item[0]]), int(j[item[0]]), k[item]
            series = _pair_series(p[layout.pos[ii * d_b + ks]], p2[layout.pos[jj * d_b + ks]],
                                  rho_bar, ph, ph2)
            # half of each population, so adding the adjoint below fills the
            # lower triangle and makes the populations real
            out[:, ii, jj] += series if ii != jj else 0.5 * series
            group += 1
        del p, p2, ph, ph2, rho_bar  # a released bin is freed with its entry
        for done in {b, b2}:
            if last[done] == q:
                del alive[done]
    return out + out.conj().transpose(0, 2, 1)


def _pair_series(rows, rows2, rho_bar, ph, ph2) -> np.ndarray:
    """sum_mn (rho_bar * S)[m, n] e^{-i w_m t} e^{+i w_n t} at each sample
    time, with S = rows^T conj(rows2) over the bath states two bins share
    and ph, ph2 the bins' cos-above-sin tables from _reduced_states.

    G = ph C, C = rho_bar * S, is one real GEMM (on C's interleaved real and
    imaginary parts when C is complex), and since sum_m e^{-i w_m t} C_mn =
    G_cos - i G_sin, the series is (G_cos - i G_sin) (cos' + i sin') summed
    over n."""
    s = rows.T @ rows2.conj()
    if s.dtype != rho_bar.dtype:  # a complex rho_A'(0) on real bins
        s = s.astype(rho_bar.dtype)
    c = np.multiply(rho_bar, s, out=s)  # rho_bar * S, in place
    g = (ph @ c.view(float)).view(c.dtype)
    del s, c
    n_t = ph2.shape[0] // 2  # g is cos C above sin C
    return ((g[:n_t] * ph2[:n_t] + g[n_t:] * ph2[n_t:]).sum(axis=1)
            + 1j * (g[:n_t] * ph2[n_t:] - g[n_t:] * ph2[:n_t]).sum(axis=1))


def _state_times_block(layout: _OracleLayout, b: int, b2: int, p2, rho_rot, pops,
                       d_a: int, d_b: int) -> np.ndarray:
    """(rho_A'(0) x sigma_B) P_B' on the rows of bin B, P_B' being p2: row
    (i, k) sums rho_A'(0)[i, j] p_k P_B'[(j, k)] over the j whose (j, k)
    lies in B'."""
    lo = layout.start[b]
    i, k = np.divmod(layout.order[lo:lo + layout.size[b]], d_b)
    out = np.zeros((i.size, p2.shape[1]), dtype=np.result_type(rho_rot, p2))
    for j in range(d_a):
        target = j * d_b + k
        rows = np.flatnonzero((layout.bin_of[target] == b2) & (rho_rot[i, j] != 0)
                              & (pops[k] != 0))
        weight = rho_rot[i[rows], j] * pops[k[rows]]
        out[rows] += weight[:, None] * p2[layout.pos[target[rows]]]
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
    interaction strength from the exact second moment <X^+ X>_B, summed over
    the bath's transition table. Analytic
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
        # <X_a^+ X_a>_B = sum_z p(z) sum_xi |<xi|X_a|z>|^2, a sum over the
        # transition table (the pairs it leaves out contribute zero)
        amp, pop, _ = bath.transitions
        moment = float((pop * (amp.real ** 2 + amp.imag ** 2)).sum(axis=1).max(initial=0.0))
        v_strength = math.sqrt(moment) * a_norm
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
        rate = v_strength * v_strength * tau_b  # 0 when it underflows: t_a's limit is inf
        t_a = 1.0 / rate if rate > 0.0 else math.inf

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
