"""Reservoir models and their spectral data.

Two backends:

* FiniteBath: a microscopic reservoir (hermitian H_B, Gibbs state at a given
  temperature, explicit coupling operators X_alpha). Correlation functions are
  evaluated exactly in the bath eigenbasis,

      G_ab(tau) = sum_{z,xi} p(z) e^{i w_zxi tau} <z|X_a^dag|xi><xi|X_b|z>,

  and the half-range Fourier transform W_ab(Omega) = int_0^inf e^{i Omega tau}
  G_ab(tau) dtau is regularized with a Lorentzian broadening epsilon, giving
  the closed form sum_{z,xi} weight * i / ((Omega + w_zxi) + i epsilon).
  Both sums run over the bath's transition table. Gamma = W + W^dag and
  Delta = (W - W^dag)/2i follow; Gamma is positive semidefinite by
  construction (each (z,xi) term is a scaled outer product).

* AnalyticBath: the user supplies Gamma (and optionally Delta) directly as a
  function of Omega.

Both answer gamma_fn(Omega)/delta_fn(Omega) with the whole k x k matrix over
channels. gamma_matrix/delta_matrix evaluate them at one Omega or an array of
them and check the (n, k, k) stack in one linalg.matrix_defects pass, which
the table bath's entries and the invariant battery go through too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_operator,
    cluster_starts,
    hermiticity_defect,
    hermitian_diagonal,
    hermitian_eigendecomposition,
    hermitian_part,
    matrix_defects,
    tensor_product,
)

# relative weight below which a (z, xi) transition is ignored in scans
WEIGHT_CUTOFF = 1e-12
# fraction of |G(0)| the correlation envelope must stay under to count as decayed
DECAY_THRESHOLD = 0.05
# columns of the correlation grid evaluated together, and the most phase
# entries (distinct |nu| x columns) one block of them may hold
CORRELATION_BLOCK = 8
PHASE_ENTRIES = 1 << 18
# unitaries e^{-i H_B t} a bath keeps: the two times of one two-time
# correlation (a bath lives as long as its scenario, so every unitary it
# keeps adds to the memory peak of the work that follows)
PROPAGATOR_CACHE = 2
# a rate matrix's hermiticity defect and negative eigenvalues must stay
# within this factor of max(1, max |entry|)
RATE_TOL = 1e-10


def _boltzmann_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    if math.isinf(temperature):
        return np.full(len(energies), 1.0 / len(energies))
    if temperature <= 0:
        raise ValueError(f"temperature must be positive or inf, got {temperature}")
    shifted = energies - energies.min()
    with np.errstate(over="ignore"):  # a subnormal T: exp(-inf) = 0 is the T -> 0 limit
        p = np.exp(-shifted / temperature)
    return p / p.sum()


def gibbs_state(h_b, temperature: float) -> np.ndarray:
    """Thermal state exp(-H_B/T)/Z; T = inf gives the maximally mixed state."""
    w, v = hermitian_eigendecomposition(as_operator(h_b, "h_b"))
    p = _boltzmann_weights(w, temperature)
    return (v * p) @ v.conj().T


def default_broadening(bath_energies: np.ndarray) -> float:
    """4x the mean level spacing of the bath Bohr frequencies.

    Bohr frequencies count once per cluster (linalg.cluster_starts at
    1e-9 * max(1, max |E|)), at its lowest value. Needs at least two; otherwise
    there is no spacing to speak of and the caller must supply a broadening.
    """
    w = np.asarray(bath_energies, dtype=float)
    dedup_tol = 1e-9 * max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    diffs = (w[:, None] - w[None, :]).ravel()
    diffs.sort()
    starts = cluster_starts(diffs, dedup_tol)
    if starts.size < 2:
        raise ValueError(
            "bath has fewer than two distinct Bohr frequencies; "
            "supply an explicit broadening"
        )
    return 4.0 * (diffs[starts[-1]] - diffs[0]) / (starts.size - 1)


def _require_temperature(temperature) -> float:
    if not (temperature > 0 or math.isinf(temperature)):
        raise ValueError(f"temperature must be positive or inf, got {temperature}")
    return float(temperature)


def _coupling_pattern(xs, dim: int):
    """Dense matrices X_c on the union of their nonzero entries: (rows, cols,
    values) with values[c, e] = X_c[rows[e], cols[e]], in (col, row) order."""
    carried = np.zeros((dim, dim), dtype=bool)  # carried[col, row]
    for x in xs:
        carried |= x.T != 0
    cols, rows = np.divmod(np.flatnonzero(carried), dim)
    values = np.array([x[rows, cols] for x in xs], dtype=complex)
    return rows, cols, values.reshape(len(xs), rows.size)


def _read_only(arrays: tuple) -> tuple:
    """arrays, each made read-only: a bath shares them, unchanged."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _transitions(pattern, energies, populations):
    """The table (amp, pop, nu) over every transition z -> xi that some
    channel carries and whose p(z) is nonzero: amp[c, s] = <xi|X_c|z>,
    pop[s] = p(z) and nu[s] = E_z - E_xi, read-only and sorted by nu (stably,
    so transitions of one frequency stay in (z, xi) order); and the levels
    z and xi of each transition, in the same order. pattern is X on its
    nonzero pattern in the eigenbasis, (rows, cols, values) in (col, row)
    order, every entry carried by some channel: (z, xi) = (col, row) is in
    order before the one sort."""
    xi, z, values = pattern
    live = np.flatnonzero(populations[z] != 0)
    nu = energies[z[live]] - energies[xi[live]]
    order = np.argsort(nu, kind="stable")
    live = live[order]
    table = _read_only((values.take(live, axis=1), populations[z[live]], nu[order]))
    return table, z[live], xi[live]


def _carries_weight(pair_weights) -> np.ndarray:
    """Per transition: on some channel pair, a weight above WEIGHT_CUTOFF
    times that pair's largest."""
    mags = np.abs(pair_weights)
    cut = WEIGHT_CUTOFF * mags.max(axis=2, keepdims=True, initial=0.0)
    return (mags > cut).any(axis=(0, 1))


class FiniteBath:
    """Microscopic reservoir: hermitian H_B, Gibbs state, couplings X_alpha.

    transitions is the read-only table (amp, pop, nu) that every correlation
    function, half-range transform and rate matrix of the bath sums over.
    A transition whose frequency is within 1e-12 * max(1, level) of zero,
    for the larger magnitude of its two levels, counts as static: exact
    levels of a diagonal H_B round only in their own digits, while every
    level of a dense eigen-solve carries the rounding of the largest one.

    A diagonal H_B (a mode comb's) has the permutation that sorts its levels
    for eigenbasis. That route runs no eigen-solve and forms no d_B x d_B
    array: it keeps H_B as its levels, sigma_B as its populations and X as
    its nonzero pattern in the sorted-level basis, and h_b, coupling_ops and
    sigma() are built from them when asked for.
    """

    def __init__(self, h_b, temperature: float, coupling_ops, broadening: float | None = None):
        h_b = as_operator(h_b, "h_b")
        temperature = _require_temperature(temperature)
        coupling_ops = [as_operator(x, f"coupling_ops[{i}]") for i, x in enumerate(coupling_ops)]
        for i, x in enumerate(coupling_ops):
            if x.shape[0] != h_b.shape[0]:
                raise ValueError(
                    f"coupling_ops[{i}] dim {x.shape[0]} does not match bath dim "
                    f"{h_b.shape[0]}"
                )
        if np.count_nonzero(h_b) == np.count_nonzero(h_b.diagonal()):
            self._set_levels(hermitian_diagonal(h_b),
                             *_coupling_pattern(coupling_ops, h_b.shape[0]))
        else:
            self._order = None
            self._h_b, self._coupling_ops = h_b, coupling_ops
            self._energies, self._vectors = hermitian_eigendecomposition(h_b)
        self._settle(temperature, broadening)

    @classmethod
    def _of_levels(cls, levels, temperature: float, rows, cols, values,
                   broadening: float | None = None) -> FiniteBath:
        """The bath of H_B = diag(levels) whose X_c are given on their
        pattern in the user basis, X_c[rows[e], cols[e]] = values[c, e] (no
        pair twice), refused as the constructor refuses the dense matrices."""
        if not np.isfinite(levels).all():
            raise ValueError("h_b contains non-finite entries")
        temperature = _require_temperature(temperature)
        for i, v in enumerate(values):
            if not np.isfinite(v).all():
                raise ValueError(f"coupling_ops[{i}] contains non-finite entries")
        bath = object.__new__(cls)
        bath._set_levels(np.asarray(levels, dtype=float), rows, cols,
                         np.asarray(values, dtype=complex))
        bath._settle(temperature, broadening)
        return bath

    def _set_levels(self, levels, rows, cols, values) -> None:
        """The diagonal-H_B route from the levels and the user-basis pattern
        of X: the levels sorted stably, and the pattern's entries that some
        channel carries moved to the sorted-level basis, in (col, row) order."""
        self._levels = levels
        self._order = np.argsort(levels, kind="stable")
        self._energies = levels[self._order]
        rank = np.empty_like(self._order)
        rank[self._order] = np.arange(levels.size)
        rows, cols = rank[rows], rank[cols]
        by_col = np.argsort(cols * levels.size + rows)
        by_col = by_col[values.any(axis=0)[by_col]]  # entries some channel carries
        self._x_pattern = _read_only((rows[by_col], cols[by_col], values.take(by_col, axis=1)))

    def _settle(self, temperature: float, broadening: float | None) -> None:
        """Populations, broadening, sigma_B and X in the eigenbasis, and the
        transition table."""
        self.temperature = temperature
        self._populations = _boltzmann_weights(self._energies, self.temperature)
        if broadening is None:
            broadening = default_broadening(self._energies)
        if broadening <= 0:
            raise ValueError(f"broadening must be positive, got {broadening}")
        self.broadening = float(broadening)
        self._sigma = None  # a diagonal H_B's, built when first asked for
        if self._order is None:
            v = self._vectors
            self._sigma = (v * self._populations) @ v.conj().T
            self._sigma.flags.writeable = False
            self._x_eig = [v.conj().T @ x @ v for x in self._coupling_ops]
            self._x_pattern = _read_only(_coupling_pattern(self._x_eig, self.dim))
        self._tabulate()
        self._unitaries = {}  # _propagator's, by time, least recent first
        self._correlations = None  # estimate_correlation_time's table

    @property
    def dim(self) -> int:
        return self._energies.size

    @property
    def channel_count(self) -> int:
        return len(self._coupling_ops if self._order is None else self._x_pattern[2])

    @property
    def h_b(self) -> np.ndarray:
        """H_B in the user basis; for a diagonal H_B built from its levels
        when asked for, and not kept."""
        if self._order is None:
            return self._h_b
        return np.diag(self._levels).astype(complex)

    @property
    def coupling_ops(self) -> list[np.ndarray]:
        """The X_c in the user basis; for a diagonal H_B built from the
        pattern when asked for, and not kept."""
        if self._order is None:
            return self._coupling_ops
        rows, cols, values = self._x_pattern
        at = (self._order[rows], self._order[cols])
        ops = []
        for v in values:
            x = np.zeros((self.dim, self.dim), dtype=complex)
            x[at] = v
            ops.append(x)
        return ops

    def _pattern(self):
        """X on its nonzero pattern in the eigenbasis, (rows, cols, values)
        with values[c, e] = <rows[e]|X_c|cols[e]>, in (col, row) order, kept
        read-only: for a dense H_B read off _x_eig once per bath."""
        return self._x_pattern

    def _tabulate(self) -> None:
        """transitions from the pattern of X, and _static: per transition,
        whether its frequency is zero within rounding of its levels."""
        self.transitions, z, xi = _transitions(self._pattern(), self._energies,
                                               self._populations)
        levels = np.abs(self._energies)
        if self._order is None:  # a dense eigen-solve rounds like its largest level
            levels = np.full_like(levels, levels.max())
        scale = np.maximum(levels[z], levels[xi])
        self._static = np.abs(self.transitions[2]) <= 1e-12 * np.maximum(1.0, scale)

    @property
    def _basis(self) -> np.ndarray:
        """The eigenvectors V, h_b = V diag(energies) V^+; for a diagonal H_B
        the permutation matrix of _order, built only when asked for."""
        if self._order is None:
            return self._vectors
        return np.eye(self.dim, dtype=complex)[:, self._order]

    def sigma(self) -> np.ndarray:
        """The Gibbs density matrix sigma_B (read-only, computed once; for a
        diagonal H_B when first asked for)."""
        if self._sigma is None:
            sigma = np.zeros((self.dim, self.dim), dtype=complex)
            sigma[self._order, self._order] = self._populations
            sigma.flags.writeable = False
            self._sigma = sigma
        return self._sigma

    def _propagator(self, t: float) -> np.ndarray:
        """e^{-i H_B t} from the cached eigendecomposition (read-only); for a
        diagonal H_B, its diagonal of phases e^{-i E t} in the user basis.
        The PROPAGATOR_CACHE most recently used times keep theirs, so
        repeated correlations over one pair of times build each once."""
        u = self._unitaries.pop(t, None)
        if u is None:
            if self._order is None:
                v = self._vectors
                u = (v * np.exp(-1j * self._energies * t)) @ v.conj().T
            else:
                u = np.exp(-1j * self._levels * t)
            u.flags.writeable = False
        self._unitaries[t] = u  # most recent last
        if len(self._unitaries) > PROPAGATOR_CACHE:
            del self._unitaries[next(iter(self._unitaries))]
        return u

    def _heisenberg(self, channel: int, t: float) -> np.ndarray:
        """X_c(t) = U^+ X_c U for U = e^{-i H_B t}, in the user basis; for a
        diagonal H_B, its values on the pattern, each entry times the phases
        of its two levels."""
        u = self._propagator(t)
        if self._order is None:
            return u.conj().T @ self._coupling_ops[channel] @ u
        rows, cols, values = self._x_pattern
        u = u[self._order]  # in the sorted-level basis
        return u.conj()[rows] * values[channel] * u[cols]

    def _times_sigma(self, m: np.ndarray) -> np.ndarray:
        """m sigma_B, for m as _heisenberg gives it; for a diagonal H_B each
        pattern entry times the population of its column."""
        if self._order is None:
            return m @ self._sigma
        return m * self._populations[self._x_pattern[1]]

    def _times_conj_propagator(self, m: np.ndarray, t: float) -> np.ndarray:
        """m conj(e^{-i H_B t}); elementwise by the phases of a diagonal H_B."""
        u = self._propagator(t).conj()
        return m @ u if self._order is None else m * u

    def _shifted(self, shifts) -> FiniteBath:
        """Copy with X_alpha -> X_alpha - shifts[alpha] * 1, same eigenbasis.

        A c-number shift leaves H_B, sigma_B and the eigenbasis untouched and
        moves only the diagonal of each X_alpha in that basis (for a diagonal
        H_B, the diagonal entries of the pattern, added where missing).
        """
        new = object.__new__(FiniteBath)
        new.__dict__.update(self.__dict__)
        if self._order is None:
            eye = np.eye(self.dim)
            new._coupling_ops = [x - s * eye for x, s in zip(self._coupling_ops, shifts)]
            new._x_eig = [x - s * eye for x, s in zip(self._x_eig, shifts)]
            new._x_pattern = _read_only(_coupling_pattern(new._x_eig, self.dim))
        else:
            rows, cols, values = self._x_pattern
            d = self.dim
            key, diagonal = cols * d + rows, np.arange(d) * (d + 1)
            union = np.union1d(key, diagonal)  # (col, row) order
            moved = np.zeros((len(values), union.size), dtype=complex)
            moved[:, np.searchsorted(union, key)] = values
            moved[:, np.searchsorted(union, diagonal)] -= np.asarray(shifts)[:, None]
            carried = np.flatnonzero(moved.any(axis=0))
            cols, rows = np.divmod(union[carried], d)
            new._x_pattern = _read_only((rows, cols, moved.take(carried, axis=1)))
        new._tabulate()
        new._correlations = None  # shifted X, other correlations
        return new

    def expectation(self, x) -> complex:
        """Tr{X sigma_B} = sum_ij X_ij (sigma_B)_ji, from the cached Gibbs
        state; sum_i X_ii p_i over the levels of a diagonal H_B."""
        x = as_operator(x, "x")
        if self._order is None:
            return complex(np.sum(x * self._sigma.T))
        return complex(x.diagonal()[self._order] @ self._populations)

    def _coupling_means(self) -> list[complex]:
        """<X_c>_B for every channel; for a diagonal H_B summed over the
        diagonal entries of the pattern."""
        if self._order is None:
            return [self.expectation(x) for x in self._coupling_ops]
        rows, cols, values = self._x_pattern
        on = rows == cols
        return (values[:, on] @ self._populations[rows[on]]).tolist()

    def w_matrix(self, omega: float) -> np.ndarray:
        """W(Omega) over channels, one contraction over the transition table."""
        amp, pop, nu = self.transitions
        line = pop * (1j / ((omega + nu) + 1j * self.broadening))
        return (amp.conj() * line) @ amp.T

    def gamma_fn(self, omega: float) -> np.ndarray:
        w = self.w_matrix(omega)
        return w + w.conj().T

    def delta_fn(self, omega: float) -> np.ndarray:
        w = self.w_matrix(omega)
        return (w - w.conj().T) / 2j

    def weighted_bohr_frequencies(self) -> np.ndarray:
        """Bath Bohr frequencies that actually carry correlation weight: on
        some channel pair, a transition weight above WEIGHT_CUTOFF times that
        pair's largest."""
        return np.unique(self.transitions[2][_carries_weight(self._pair_weights())])

    def _pair_weights(self) -> np.ndarray:
        """weights[a, b, s] = p(z) <z|X_a^dag|xi><xi|X_b|z> on every transition."""
        amp, pop, _ = self.transitions
        return pop * amp.conj()[:, None, :] * amp[None, :, :]


def require_channel_count(bath, count: int) -> None:
    """Refuse count system operators for a bath with another channel count."""
    if count != bath.channel_count:
        raise ValueError(f"bath provides {bath.channel_count} coupling channels, "
                         f"got {count} system operators")


def center_couplings(bath: FiniteBath, system_ops) -> tuple[FiniteBath, np.ndarray]:
    """Shift each X_alpha by -<X_alpha>_B so Tr{X' sigma_B} = 0.

    Returns the shifted bath and the compensating system-hamiltonian term
    sum_alpha <X_alpha>_B A_alpha, so the total physics is unchanged. When
    every mean is exactly zero, the shifted bath is the input bath itself.
    """
    system_ops = [as_operator(a, f"system_ops[{i}]") for i, a in enumerate(system_ops)]
    require_channel_count(bath, len(system_ops))
    means = bath._coupling_means()
    dim_a = system_ops[0].shape[0] if system_ops else 0
    h_shift = np.zeros((dim_a, dim_a), dtype=complex)
    for mean, a in zip(means, system_ops):
        h_shift = h_shift + mean * a
    return bath if not any(means) else bath._shifted(means), hermitian_part(h_shift)


def _canonical_sign(m: np.ndarray, scale: float) -> float:
    """Sign of the first non-negligible entry, row-major, real part first."""
    cut = 1e-13 * scale
    for entry in m.ravel():
        if abs(entry.real) > cut:
            return 1.0 if entry.real > 0 else -1.0
        if abs(entry.imag) > cut:
            return 1.0 if entry.imag > 0 else -1.0
    return 1.0


def hermitize_coupling(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rewrite a hermitian total coupling sum A_j (x) X_j in hermitian channels.

    Each input pair contributes q = (A+A^dag)/sqrt(2), p = i(A-A^dag)/sqrt(2)
    on the system side with bath partners Q/2 and -P/2; channels with equal
    system operators are merged (bath parts summed) and vanishing channels are
    dropped. The reassembled sum equals the input whenever the input total is
    hermitian, which is checked up front.
    """
    pairs = [
        (as_operator(a, f"pairs[{i}].A"), as_operator(x, f"pairs[{i}].X"))
        for i, (a, x) in enumerate(pairs)
    ]
    if not pairs:
        return []
    total = sum(tensor_product(a, x) for a, x in pairs)
    defect = hermiticity_defect(total)
    scale = max(1.0, float(np.abs(total).max()))
    if defect > 1e-12 * scale:
        raise ValueError(
            f"total coupling is not hermitian (defect {defect:.3e}); "
            "add the adjoint partners first"
        )
    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    for a, x in pairs:
        a_scale = max(float(np.abs(a).max()), 1e-300)
        x_scale = max(float(np.abs(x).max()), 1e-300)
        q = (a + a.conj().T) / math.sqrt(2.0)
        p = 1j * (a - a.conj().T) / math.sqrt(2.0)
        q_bath = hermitian_part(x) / math.sqrt(2.0)
        p_bath = -1j * (x - x.conj().T) / math.sqrt(2.0) / 2.0
        for sys_op, bath_op in ((q, q_bath), (p, p_bath)):
            if np.abs(sys_op).max() <= 1e-13 * a_scale:
                continue
            if np.abs(bath_op).max() <= 1e-13 * x_scale:
                continue
            sign = _canonical_sign(sys_op, a_scale)
            candidates.append((sign * sys_op, sign * bath_op))
    merged: list[tuple[np.ndarray, np.ndarray]] = []
    for sys_op, bath_op in candidates:
        for k, (kept_sys, kept_bath) in enumerate(merged):
            if kept_sys.shape == sys_op.shape and np.abs(kept_sys - sys_op).max() <= 1e-12 * max(
                1.0, float(np.abs(kept_sys).max())
            ):
                merged[k] = (kept_sys, kept_bath + bath_op)
                break
        else:
            merged.append((sys_op, bath_op))
    out = []
    for sys_op, bath_op in merged:
        if np.abs(bath_op).max() <= 1e-13 * max(1.0, float(np.abs(sys_op).max())):
            continue
        out.append((sys_op, bath_op))
    return out


def correlation_function(bath: FiniteBath, alpha: int, beta: int, tau: float) -> complex:
    """G_ab(tau), evaluated exactly in the bath eigenbasis."""
    amp, pop, nu = bath.transitions
    weights = pop * amp[alpha].conj() * amp[beta]
    return complex(np.sum(weights * np.exp(1j * nu * tau)))


def two_time_correlation(bath: FiniteBath, alpha: int, beta: int, t1: float, t2: float) -> complex:
    """G_ab(t1, t2) = Tr{X_a^dag(t1) X_b(t2) sigma_B} via explicit unitaries.

    Deliberately a separate route from correlation_function (Heisenberg
    operators instead of the sum over the transition table) so
    stationarity can be tested. For a diagonal H_B the unitaries and sigma_B
    are applied elementwise on the pattern of X, so a call costs its K
    nonzeros per row, not d_B^2.
    """
    xa = bath._heisenberg(alpha, t1)
    xb = bath._heisenberg(beta, t2)
    # Tr{A^+ B} = sum_ij conj(A_ij) B_ij, one product fewer than the trace
    return complex(np.sum(xa.conj() * bath._times_sigma(xb)))


def half_fourier_w(bath: FiniteBath, alpha: int, beta: int, omega: float) -> complex:
    """W_ab(Omega) = int_0^inf e^{i Omega tau} G_ab(tau) dtau, broadened.

    One entry summed term by term, a separate route from FiniteBath.w_matrix.
    """
    amp, pop, nu = bath.transitions
    weights = pop * amp[alpha].conj() * amp[beta]
    return complex(np.sum(weights * (1j / ((omega + nu) + 1j * bath.broadening))))


class AnalyticBath:
    """Reservoir described directly by its rate matrices.

    gamma_fn(omega) returns the k x k matrix Gamma(omega) over channels;
    delta_fn likewise for the Lamb-shift matrix Delta (default 0). Shape,
    hermiticity and positivity of Gamma are enforced at every sampled omega.
    A callable whose attribute stacked is true also takes an (n,) array of
    omegas and returns the (n, k, k) stack of their matrices, so a stacked
    rate call makes one call of it instead of n.
    """

    def __init__(self, gamma_fn, delta_fn=None, channel_count: int = 1):
        if channel_count < 1:
            raise ValueError("channel_count must be at least 1")
        self.gamma_fn = gamma_fn
        self.delta_fn = delta_fn
        self.channel_count = int(channel_count)


def flat_thermal_bath(
    gamma: float,
    temperature: float,
    gamma_dephasing: float = 0.0,
    channel_count: int = 1,
) -> AnalyticBath:
    """Thermal rates with a flat spectral profile.

    Gamma(Omega) = gamma (nbar(|Omega|) + 1) for Omega > 0 (emission),
    gamma nbar(|Omega|) for Omega < 0 (absorption), gamma_dephasing at
    Omega = 0; diagonal across channels. Detailed balance
    Gamma(-Omega)/Gamma(Omega) = exp(-Omega/T) is exact by construction.
    """
    if gamma < 0 or gamma_dephasing < 0:
        raise ValueError("rates must be non-negative")
    if not (temperature > 0) or math.isinf(temperature):
        raise ValueError(
            f"flat-thermal bath needs a finite positive temperature, got {temperature}"
        )
    eye = np.eye(channel_count, dtype=complex)

    def rate(omega: float) -> float:
        if abs(omega) < 1e-12:
            return gamma_dephasing
        try:
            nbar = 1.0 / math.expm1(abs(omega) / temperature)
        except OverflowError:  # e^(|Omega|/T) beyond the float range
            nbar = 0.0
        return gamma * (nbar + 1.0) if omega > 0 else gamma * nbar

    def gamma_fn(omega):
        if np.ndim(omega) == 0:
            return rate(omega) * eye
        rates = np.array([rate(w) for w in np.ravel(omega).tolist()])
        return rates.reshape(np.shape(omega) + (1, 1)) * eye

    gamma_fn.stacked = True
    return AnalyticBath(gamma_fn, None, channel_count)


def table_bath(entries, channel_count: int | None = None) -> AnalyticBath:
    """Bath from an explicit table of (omega, gamma matrix, optional delta).

    Each gamma must be hermitian and positive semidefinite, each delta
    hermitian, all of one size. The entries are stacked and checked at
    once; when that fails, they are walked in order, an entry that is
    malformed or of another size being refused as it is read and the
    values by one stacked rate check over the entries before it. The first
    fault in table order is raised, naming its omega. A lookup takes the
    entry nearest omega (the first in table order on a tie), matches it
    within 1e-8 * max(1, |omega|) and misses with a clear error otherwise.
    It answers an array of omegas with one search over the sorted distinct
    omegas.
    """
    entries = list(entries)
    stacks, refused = _entry_stacks(entries), None
    if stacks is None:  # some entry is refused: walk them in order to name it
        omegas, gammas, deltas, refused = _walk_entries(entries)
    else:
        omegas, gammas, deltas = stacks
    if omegas:
        for omega, g_fail, d_fail in zip(omegas, _rate_failures(gammas, True),
                                         _rate_failures(deltas, False)):
            if g_fail is not None:
                check, value = g_fail
                raise ValueError(f"table gamma at omega={omega} " + {
                    "finite": "has a non-finite or overflowing entry",
                    "hermitian": f"is not hermitian (defect {value:.3e})",
                    "positive": f"is not positive semidefinite (min eigenvalue {value:.3e})",
                }[check])
            if d_fail is not None:
                raise ValueError(f"table delta at omega={omega} " + {
                    "finite": "has a non-finite or overflowing entry",
                    "hermitian": "is not hermitian",
                }[d_fail[0]])
    if refused is not None:
        raise refused
    if not omegas:
        raise ValueError("table bath needs at least one entry")
    k = gammas.shape[1]
    if channel_count is not None and channel_count != k:
        raise ValueError(f"table matrices are {k}x{k}, expected {channel_count}")
    # handed out as they are by every lookup
    gammas.flags.writeable = deltas.flags.writeable = False
    omegas = np.array(omegas, dtype=float)
    # the distinct omegas ascending, each with its first row in table order
    values, first = np.unique(omegas, return_index=True)
    top = len(values) - 1

    def lookup(omega):
        """The row of the entry nearest omega, or the rows of an array of
        omegas: the row np.argmin(|omegas - omega|) gives, the first of
        equally near entries. The nearest distinct omega is one of the two
        around omega's place in values. Where a hit is possible, distances
        are exact (Sterbenz), so only equal omegas tie, except for
        0 < |omega| <= 4e-8, where rounding can tie distinct entries: such
        omegas (and NaN) take argmin."""
        w = np.asarray(omega, dtype=float)
        hi = np.minimum(np.searchsorted(values, w), top)
        lo = np.maximum(hi - 1, 0)
        d_lo, d_hi = np.abs(values[lo] - w), np.abs(values[hi] - w)
        row = np.where(d_lo < d_hi, first[lo], np.where(
            d_hi < d_lo, first[hi], np.minimum(first[lo], first[hi])))
        inexact = ~(np.abs(w) > 4e-8) & (w != 0)
        for i in np.flatnonzero(inexact).tolist():
            row.flat[i] = np.argmin(np.abs(omegas - w.flat[i]))
        missed = np.abs(omegas[row] - w) > 1e-8 * np.maximum(1.0, np.abs(w))
        if missed.any():
            known = ", ".join(f"{x:g}" for x in omegas.tolist())
            raise ValueError(f"no table entry for omega={w.flat[np.argmax(missed)]:g} "
                             f"(have: {known})")
        return row

    def gamma_fn(omega):
        return gammas[lookup(omega)]

    def delta_fn(omega):
        return deltas[lookup(omega)]

    gamma_fn.stacked = delta_fn.stacked = True
    return AnalyticBath(gamma_fn, delta_fn, k)


def _entry_stacks(entries):
    """The omegas of table entries (omega, gamma, delta) and the (n, k, k)
    stacks of their gammas and deltas (zero for a delta of None), each
    stacked and checked once; None when some entry is malformed, not
    finite or of another size, which _walk_entries names."""
    try:
        omegas = [omega for omega, _, _ in entries]
        gammas = np.array([gamma for _, gamma, _ in entries], dtype=complex)
        deltas = np.zeros_like(gammas)
        given = [i for i, (_, _, delta) in enumerate(entries) if delta is not None]
        if given:
            stack = np.array([entries[i][2] for i in given], dtype=complex)
            if stack.shape[1:] != gammas.shape[1:]:
                return None
            deltas[given] = stack
    except (TypeError, ValueError, OverflowError):
        return None
    if (gammas.ndim != 3 or gammas.shape[1] != gammas.shape[2]
            or not (np.isfinite(gammas).all() and np.isfinite(deltas).all())):
        return None
    return omegas, gammas, deltas


def _walk_entries(entries):
    """table_bath's entries one at a time, up to the first that is
    malformed or of another size: the omegas, gamma and delta stacks of the
    entries before it, and the ValueError that refuses it (None if none)."""
    omegas, gammas, deltas, refused = [], [], [], None
    for entry in entries:
        try:
            omega, gamma_m, delta_m = entry
            gamma_m = as_operator(gamma_m, f"gamma at omega={omega}")
            delta_m = (np.zeros_like(gamma_m) if delta_m is None
                       else as_operator(delta_m, f"delta at omega={omega}"))
            if gammas and gamma_m.shape != gammas[0].shape:
                raise ValueError(f"inconsistent channel count at omega={float(omega)}")
            if gamma_m.shape != delta_m.shape:
                raise ValueError(f"gamma/delta shapes differ at omega={omega}")
        except ValueError as exc:  # raised once the entries before it pass
            refused = exc
            break
        omegas.append(omega)
        gammas.append(gamma_m)
        deltas.append(delta_m)
    return omegas, np.array(gammas), np.array(deltas), refused


def _rate_failures(stack, positive: bool) -> list:
    """One matrix_defects pass over an (n, k, k) stack of rate matrices,
    which replaces each by its hermitian part. Per matrix, None or the first
    rate check it fails, as (check, value): ('finite', nan) for a non-finite
    hermitian part, ('hermitian', defect) and, when positive, ('positive',
    smallest eigenvalue)."""
    _, peak, skew, low = matrix_defects(stack, out=stack)
    tol = RATE_TOL * np.maximum(1.0, peak)
    failures = [None] * len(peak)
    checks = (("finite", np.isnan(skew), skew), ("hermitian", skew > tol, skew))
    if positive:
        checks += (("positive", low < -tol, low),)
    for name, failed, value in checks:
        for i in np.flatnonzero(failed).tolist():
            if failures[i] is None:
                failures[i] = (name, float(value[i]))
    return failures


def _rate_matrices(fn, omegas, k: int, name: str, positive: bool) -> np.ndarray:
    """fn at each omega, once and in order, checked for shape on arrival and
    then for finite entries, hermiticity and (when positive) positivity in
    one matrix_defects pass. The error raised is the one a check of each omega
    in turn would raise first: a ValueError of fn (a table lookup that
    misses) or of the shape at some omega comes after the checks of the
    omegas before it. A stacked fn is called once on an array of omegas;
    when that raises or gives another shape, the omegas go one by one to
    find the first error. Returns the hermitian parts, (k, k) for a scalar
    omega and (n, k, k) for an array of n."""
    values = np.asarray(omegas, dtype=float)
    stack = np.empty((values.size, k, k), dtype=complex)
    refused, count = None, 0
    # overflow is refused below, by name and omega, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if getattr(fn, "stacked", False) and values.ndim == 1:
            try:
                m = np.asarray(fn(values), dtype=complex)
            except ValueError:  # a table miss: the loop below finds the first error
                m = None
            if m is not None and m.shape == stack.shape:
                stack[:], count = m, values.size
        for omega in values.ravel().tolist()[count:]:
            try:
                m = np.asarray(fn(omega), dtype=complex)
                if m.shape != (k, k):
                    raise ValueError(
                        f"{name}({omega:g}) has shape {m.shape}, expected {(k, k)}")
            except ValueError as exc:  # raised once the omegas before it pass
                refused = exc
                break
            stack[count] = m
            count += 1
    for omega, failure in zip(values.ravel().tolist(), _rate_failures(stack[:count], positive)):
        if failure is not None:
            check, value = failure
            raise ValueError(f"{name}({omega:g}) " + {
                "finite": "has a non-finite or overflowing entry",
                "hermitian": "is not hermitian",
                "positive": f"is not positive semidefinite (min eigenvalue {value:.3e})",
            }[check])
    if refused is not None:
        raise refused
    return stack.reshape(values.shape + (k, k))


def gamma_matrix(bath, omega) -> np.ndarray:
    """Gamma(Omega) over channels: hermitian, positive semidefinite.

    omega is one frequency, giving the k x k matrix, or an array of n,
    giving their (n, k, k) stack from one stacked check."""
    return _rate_matrices(bath.gamma_fn, omega, bath.channel_count, "Gamma", True)


def delta_matrix(bath, omega) -> np.ndarray:
    """Delta(Omega) over channels: hermitian, feeds the Lamb shift. omega
    is one frequency or an array of them, as for gamma_matrix."""
    k = bath.channel_count
    if bath.delta_fn is None:
        return np.zeros(np.shape(omega) + (k, k), dtype=complex)
    return _rate_matrices(bath.delta_fn, omega, k, "Delta", False)


@dataclass(frozen=True)
class CorrelationTable:
    """Sampled correlation functions with the decay-time estimate.

    taus is the uniform tau grid and values the (channels, channels,
    len(taus)) correlations on it, both read-only. A table from
    estimate_correlation_time decides tau_b_estimate from the grid columns
    its decay rule reads, and builds values on first read, from the same
    columns and the rest evaluated alike: its tau_b_estimate is the rule
    applied to its own values.
    """

    taus: np.ndarray
    # the (channels, channels, len(taus)) array, or the _CorrelationColumns
    # that build it when values is first read
    _values: np.ndarray | _CorrelationColumns
    tau_b_estimate: float
    non_decaying: bool = False

    @property
    def values(self) -> np.ndarray:
        if isinstance(self._values, _CorrelationColumns):
            object.__setattr__(self, "_values", self._values.table())
        return self._values


class _CorrelationColumns:
    """The correlations of a bath on the columns of a tau grid, evaluated
    on aligned blocks of columns and kept: no column is evaluated twice,
    and each column's value is the same whichever read asks for it first.

    mags are the distinct |nu| (far ones scaled by 2^-squarings) and signed
    their (2 k^2, len(mags)) coefficients, the +|nu| ones above the
    conjugated -|nu| ones, so values = C+ P + conj(conj(C-) P) for the
    phase rows P. A block's phase buffer holds at most PHASE_ENTRIES
    entries (|nu| rows x columns).
    """

    def __init__(self, taus, mags, signed, far, squarings, threshold):
        self.taus, self.mags, self.signed = taus, mags, signed
        self.far, self.squarings, self.threshold = far, squarings, threshold
        self.width = max(1, min(CORRELATION_BLOCK, PHASE_ENTRIES // mags.size))
        n = taus.size
        self.values = np.empty((signed.shape[0] // 2, n), dtype=complex)
        self.above = np.empty(n, dtype=bool)
        self.done = np.zeros(-(-n // self.width), dtype=bool)

    def _evaluate(self, block: int) -> None:
        if self.done[block]:
            return
        start = block * self.width
        stop = min(start + self.width, self.taus.size)
        arg = np.multiply.outer(self.mags, self.taus[start:stop])
        phase = np.empty(arg.shape, dtype=complex)
        np.cos(arg, out=phase.real)
        np.sin(arg, out=phase.imag)
        # a product |nu| tau past the float range takes the phase of its
        # value scaled by 2^-squarings, squared that many times (each
        # squaring doubles the rounding, so the row is good to about
        # 2^squarings eps)
        if self.far.size:
            reduced = phase[self.far]
            for _ in range(self.squarings):
                reduced *= reduced
            phase[self.far] = reduced
        sums = self.signed @ phase
        kk = self.values.shape[0]
        values = self.values[:, start:stop]
        np.add(sums[:kk], sums[kk:].conj(), out=values)
        # an envelope that is not below the threshold (NaN too) is above it
        self.above[start:stop] = ~(np.abs(values).max(axis=0) <= self.threshold)
        self.done[block] = True

    def highest_above(self, lo: int, hi: int) -> int:
        """The highest column in lo..hi whose envelope is above the
        threshold, or -1; blocks are read from the top down."""
        for block in range(hi // self.width, lo // self.width - 1, -1):
            self._evaluate(block)
            start = max(lo, block * self.width)
            hits = np.flatnonzero(self.above[start:min(hi + 1, (block + 1) * self.width)])
            if hits.size:
                return start + int(hits[-1])
        return -1

    def table(self) -> np.ndarray:
        """The (k, k, n) values over every column, read-only."""
        for block in range(self.done.size):
            self._evaluate(block)
        k = math.isqrt(self.values.shape[0])
        values = self.values.reshape(k, k, self.taus.size)
        values.flags.writeable = False
        return values


def estimate_correlation_time(bath: FiniteBath) -> CorrelationTable:
    """Estimate the reservoir memory time tau_B.

    tau_B is the smallest sampled tau such that every |G_ab(tau')| stays below
    5% of the largest |G_ab(0)| throughout [tau, 2 tau]. Few-mode baths whose
    correlations recur instead of decaying are flagged non_decaying and get
    the half-period pi/nu_min of the slowest weighted Bohr frequency that is
    not static (zero coupling gives tau_B = 0 by convention). The table is
    sampled once per bath and kept on it; it takes one cos/sin phase row
    per distinct |nu|, which the frequencies -|nu| read conjugated, and
    evaluates only the blocks of grid columns the decay rule reads until
    its values are asked for.
    """
    if bath._correlations is None:
        bath._correlations = _sampled_correlations(bath)
    return bath._correlations


def _sampled_correlations(bath: FiniteBath) -> CorrelationTable:
    """The correlation table estimate_correlation_time keeps on the bath."""
    k = bath.channel_count
    nu = bath.transitions[2]
    pair = bath._pair_weights()
    weights = pair.reshape(k * k, -1)
    g0 = weights.sum(axis=1)
    scale0 = float(np.abs(g0).max(initial=0.0))
    nonzero = np.abs(nu[_carries_weight(pair) & ~bath._static])
    if scale0 <= 0.0:
        # nothing couples: no memory at all
        return _one_sample_table(np.zeros((k, k, 1), dtype=complex), 0.0, False)
    if len(nonzero) == 0:
        # constant correlation function: never decays, no finite period either
        return _one_sample_table(g0.reshape(k, k, 1), math.inf, True)
    nu_min = float(nonzero.min())
    nu_max = float(nonzero.max())
    t_end = 8.0 * math.pi / nu_min
    dt = math.pi / 16.0 / nu_max  # 16 nu_max may overflow; pi / 16 is exact
    n = max(64, math.ceil(min(t_end / dt, 4096.0)))
    taus = np.linspace(0.0, t_end, n)
    taus.flags.writeable = False
    # one coefficient per distinct frequency: the table is sorted by nu, so
    # the transitions of one frequency are contiguous and summed together
    union, starts = np.unique(nu, return_index=True)
    coef = np.add.reduceat(weights, starts, axis=1)
    # one phase row per distinct |nu|: fl(-nu tau) = -fl(nu tau), so the
    # phases of -|nu| are the conjugates of those of |nu|
    mags, row = np.unique(np.abs(union), return_inverse=True)
    signed = np.zeros((2, k * k, mags.size), dtype=complex)
    negative = union < 0
    signed[0][:, row[~negative]] = coef[:, ~negative]
    signed[1][:, row[negative]] = coef[:, negative].conj()
    with np.errstate(over="ignore"):
        far = np.flatnonzero(np.isinf(mags * t_end))
    squarings = 0
    if far.size:
        squarings = math.ceil(math.log2(mags[-1] / np.finfo(float).max * t_end)) + 1
        mags[far] = np.ldexp(mags[far], -squarings)
    columns = _CorrelationColumns(taus, mags, signed.reshape(2 * k * k, mags.size), far,
                                  squarings, DECAY_THRESHOLD * scale0)
    # on the uniform grid the window [tau_i, 2 tau_i] is exactly columns
    # i..2i. Its highest column a above the threshold lies in the window
    # of every i' in i..a too, so the first window all below starts past a
    i = 1
    while 2 * i < n:
        a = columns.highest_above(i, 2 * i)
        if a < 0:
            return CorrelationTable(taus, columns, float(taus[i]), False)
        i = a + 1
    return CorrelationTable(taus, columns, math.pi / nu_min, True)


def _one_sample_table(values, tau_b: float, non_decaying: bool) -> CorrelationTable:
    """The table of a bath whose correlations are constant: G(0) at tau = 0."""
    taus = np.array([0.0])
    taus.flags.writeable = values.flags.writeable = False
    return CorrelationTable(taus, values, tau_b, non_decaying)


def qubit_mode_bath(modes, temperature: float, broadening: float | None = None) -> FiniteBath:
    """Bath of independent two-level modes with one collective coupling channel.

    modes is a list of (frequency, coupling) pairs; the bath hamiltonian is
    H_B = sum_k nu_k n_k on the 2^K product space and the single coupling
    operator is X = sum_k g_k sigma_x^(k).
    """
    modes = [(float(nu), float(g)) for nu, g in modes]
    n_modes = len(modes)
    if n_modes == 0:
        raise ValueError("need at least one mode")
    if n_modes > 12:
        raise ValueError(f"{n_modes} two-level modes would need dim {2**n_modes}")
    dim = 2**n_modes
    # basis state n holds mode k excited where bit n_modes - 1 - k is set
    # (mode 0 leads, as in a Kronecker chain); H_B sums in mode order, and
    # X flips one bit: X[n, n ^ bit_k] = g_k
    index = np.arange(dim)
    levels = np.zeros(dim)
    flips = []
    for k, (nu, g) in enumerate(modes):
        bit = 1 << (n_modes - 1 - k)
        levels += nu * ((index & bit) != 0)
        flips.append(index ^ bit)
    couplings = np.repeat([g for _, g in modes], dim)
    return FiniteBath._of_levels(levels, temperature, np.tile(index, n_modes),
                                 np.concatenate(flips), couplings[None], broadening)
