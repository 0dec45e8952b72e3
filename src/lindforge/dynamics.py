"""Propagation of the reduced density matrix and the exact reference dynamics.

Two independent routes produce time series here. propagate() steps a
derived master-equation generator block by block, by the matrix exponential
or the classical RK4 step polynomial of each block: for expm a secular
generator splits into one block per Bohr frequency, and any other generator,
like every RK4 run, is one block, its whole superoperator. exact_oracle()
ignores the generator entirely: it builds the full system+bath hamiltonian,
evolves the composite state unitarily from a factorized initial condition,
and partial-traces at each sample time. The oracle makes no weak-coupling,
Markov or secular approximation, so any disagreement beyond the
two-timescale error budget points at the derivation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bath import AnalyticBath, FiniteBath, estimate_correlation_time, gamma_matrix
from .generator import BohrBlocks, Generator, generator_superoperator_matrix
from .generator import rhs_function  # unused here; bench/tracing.py wraps it on this module
from .linalg import (
    DimensionError,
    as_operator,
    hermiticity_defect,
    kron_matmul,
    matrix_exponential_unitary,
    vec,
)
from .spectral import bohr_frequencies

# positivity floor along trajectories; below this the state is declared invalid
POSITIVITY_FLOOR = -1e-6
# default cap on dim_A * dim_B for the exact oracle; env var LF_MAX_DIM overrides
ORACLE_DIM_CAP = 1024
# rk4 step control: step <= RK4_STEP_FACTOR / (norm bound of the generator)
RK4_STEP_FACTOR = 1.0 / 20.0
# most rk4 steps one propagate may take; checked before any is taken
RK4_MAX_STEPS = 1_000_000


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
    if abs(np.trace(rho) - 1.0) > 1e-6:
        raise ValueError(f"rho0 trace is {np.trace(rho):.6g}, expected 1")
    if hermiticity_defect(rho) > 1e-6:
        raise ValueError("rho0 is not hermitian")
    return rho


def _sample_diagnostics(state):
    trace_defect = abs(np.trace(state) - 1.0)
    herm_defect = hermiticity_defect(state)
    min_eig = float(np.linalg.eigvalsh(0.5 * (state + state.conj().T))[0])
    return float(trace_defect), float(herm_defect), min_eig


def _rhs_norm_bound(g: Generator) -> float:
    """Crude spectral-norm bound on the generator for rk4 step control; rates
    near the float limit overflow it to inf, which _rk4_propagator refuses."""
    big_g, left, right = g.pieces
    norms = lambda m: np.linalg.norm(m, 2, axis=(-2, -1))
    with np.errstate(over="ignore"):
        bound = 2.0 * norms(g.h_eff) + 2.0 * norms(big_g)
        return float(bound + (norms(left) * norms(right)).sum())


def _build_trajectory(times, states, diags, method: str,
                      complete: bool = True) -> Trajectory:
    """Trajectory from the sampled states and their _sample_diagnostics rows."""
    trace_d, herm_d, min_e = np.array(diags, dtype=float).reshape(-1, 3).T
    return Trajectory(
        times=np.asarray(times, dtype=float),
        states=np.asarray(states),
        trace_defects=trace_d,
        hermiticity_defects=herm_d,
        min_eigenvalues=min_e,
        method=method,
        complete=complete,
    )


def _gap_key(gap: float) -> float:
    """Time gaps equal up to float noise share one key, so a uniform grid
    costs one exponential."""
    return float(np.format_float_scientific(gap, precision=12))


def _block_states(rho, blocks: BohrBlocks, t, propagator) -> np.ndarray:
    """The states at t[1:] from the generator's blocks: rho rotated into
    the block basis once, one batched propagator(gaps, matrices) per block
    size over the distinct time gaps, stepped along each run of equal gaps,
    and every sample rotated back in one product."""
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
    # sample k reshaped is rho_k^T, so V rho_k V^+ = (conj(V) rho_k^T V^T)^T,
    # with the right factor of every sample in one product
    right = (samples.reshape(-1, dim) @ v.T).reshape(-1, dim, dim)
    return (v.conj() @ right).transpose(0, 2, 1)


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
    PropagationError, with the partial trajectory, at the first sample with
    an eigenvalue below -1e-6, a trace defect above 1e-6 or a non-finite entry.
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
    states = [rho.copy()] + list(_block_states(rho, blocks, t, propagator))

    # diagnostics up to the first failing sample (a non-finite one has NaN)
    diags = []
    for k, state in enumerate(states):
        d = _sample_diagnostics(state) if np.isfinite(state).all() else (math.nan,) * 3
        positive = d[2] >= POSITIVITY_FLOOR
        if not (positive and d[0] <= 1e-6):  # the trace tolerance rho0 is held to
            tolerance, name, defect = (("trace", "trace defect", d[0]) if positive
                                       else ("positivity", "min eigenvalue", d[2]))
            raise PropagationError(
                f"state left the {tolerance} tolerance at t={t[k]:.6g}: "
                f"{name} {defect:.3e}",
                time=float(t[k]),
                defect=defect,
                partial=_build_trajectory(t[:k], states[:k], diags, method,
                                          complete=False),
            )
        diags.append(d)
    return _build_trajectory(t, states, diags, method)


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

    H = H_A x 1 + 1 x H_B + sum_a A_a x X_a is diagonalized once; the
    composite state starts factorized as rho_A(0) x sigma_B (the only place a
    product form enters) and evolves unitarily. The reduced state at each
    sample time is assembled from the eigenphases directly, so the cost per
    sample is d_A^2 D^2 instead of a D^3 matrix product.
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

    eye_a = np.eye(d_a, dtype=complex)
    eye_b = np.eye(d_b, dtype=complex)
    h = np.kron(h_a, eye_b) + np.kron(eye_a, bath.h_b)
    for a_op, x_op in zip(ops, bath.coupling_ops):
        h = h + np.kron(a_op, x_op)
    h = 0.5 * (h + h.conj().T)
    # a real joint H (a mode comb in a real basis) takes the real symmetric
    # solver, about 3x faster at D = 1024; V then stays real below
    w, v = np.linalg.eigh(h if h.imag.any() else h.real)

    rho_bar = _sandwich(v, rho_a0, bath.sigma())
    p = v.reshape(d_a, d_b, total)  # p[i, k, m] = <i,k|m>

    # rho_A(t)_ij = sum_mn (rho_bar * S_ij)[m,n] e^{-i w_m t} e^{+i w_n t}
    # with S_ij = p_i^T conj(p_j); evaluated for all samples via one
    # (n_t, D) phase matrix per side.
    phase = np.exp(-1j * np.outer(t, w))  # e^{-i w t}
    states = np.empty((t.size, d_a, d_a), dtype=complex)
    for i in range(d_a):
        for j in range(i, d_a):
            s_ij = p[i].T @ p[j].conj()
            c_ij = rho_bar * s_ij
            series = ((phase @ c_ij) * phase.conj()).sum(axis=1)
            if j == i:
                # a population: drop the imaginary rounding dust
                states[:, i, i] = series.real
            else:
                states[:, i, j] = series
                states[:, j, i] = series.conj()

    return _build_trajectory(t, states, [_sample_diagnostics(s) for s in states],
                             "exact")


def _sandwich(v: np.ndarray, m_a: np.ndarray, m_b: np.ndarray) -> np.ndarray:
    """V^+ (m_a x m_b) V with one joint-sized product; real if all are real."""
    if not (np.iscomplexobj(v) or m_a.imag.any() or m_b.imag.any()):
        return v.T @ kron_matmul(m_a.real, m_b.real, v)
    return v.conj().T @ kron_matmul(m_a, m_b, v)


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
            gammas = [gamma_matrix(bath, w) for w in bohr_frequencies(spectrum).values]
        gnorm = 0.0
        for gamma in gammas:
            gnorm = max(gnorm, float(np.linalg.norm(gamma, 2)))
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
