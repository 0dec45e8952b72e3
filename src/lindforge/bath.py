"""Reservoir models and their spectral data.

Two backends:

* FiniteBath: a microscopic reservoir (hermitian H_B, Gibbs state at a given
  temperature, explicit coupling operators X_alpha). Correlation functions are
  evaluated exactly in the bath eigenbasis,

      G_ab(tau) = sum_{z,xi} p(z) e^{i w_zxi tau} <z|X_a^dag|xi><xi|X_b|z>,

  and the half-range Fourier transform W_ab(Omega) = int_0^inf e^{i Omega tau}
  G_ab(tau) dtau is regularized with a Lorentzian broadening epsilon, giving
  the closed form sum_{z,xi} weight * i / ((Omega + w_zxi) + i epsilon).
  Gamma = W + W^dag and Delta = (W - W^dag)/2i follow; Gamma is positive
  semidefinite by construction (each (z,xi) term is a scaled outer product).

* AnalyticBath: the user supplies Gamma (and optionally Delta) directly as a
  function of (alpha, beta, Omega); hermiticity and positivity are checked at
  every evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_operator,
    hermiticity_defect,
    hermitian_eigendecomposition,
    tensor_product,
)

# relative weight below which a (z, xi) transition is ignored in scans
WEIGHT_CUTOFF = 1e-12
# fraction of |G(0)| the correlation envelope must stay under to count as decayed
DECAY_THRESHOLD = 0.05


def _boltzmann_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    if math.isinf(temperature):
        return np.full(len(energies), 1.0 / len(energies))
    if temperature <= 0:
        raise ValueError(f"temperature must be positive or inf, got {temperature}")
    shifted = energies - energies.min()
    p = np.exp(-shifted / temperature)
    return p / p.sum()


def gibbs_state(h_b, temperature: float) -> np.ndarray:
    """Thermal state exp(-H_B/T)/Z; T = inf gives the maximally mixed state."""
    w, v = hermitian_eigendecomposition(as_operator(h_b, "h_b"))
    p = _boltzmann_weights(w, temperature)
    return (v * p) @ v.conj().T


def default_broadening(bath_energies: np.ndarray, dedup_tol: float | None = None) -> float:
    """4x the mean level spacing of the bath Bohr frequencies.

    Needs at least two distinct Bohr frequencies; otherwise there is no spacing
    to speak of and the caller must supply a broadening explicitly.
    """
    w = np.asarray(bath_energies, dtype=float)
    if dedup_tol is None:
        dedup_tol = 1e-9 * max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    diffs = np.sort((w[:, None] - w[None, :]).ravel())
    distinct = [diffs[0]]
    for d in diffs[1:]:
        if d - distinct[-1] > dedup_tol:
            distinct.append(d)
    if len(distinct) < 2:
        raise ValueError(
            "bath has fewer than two distinct Bohr frequencies; "
            "supply an explicit broadening"
        )
    return 4.0 * (distinct[-1] - distinct[0]) / (len(distinct) - 1)


class FiniteBath:
    """Microscopic reservoir: hermitian H_B, Gibbs state, couplings X_alpha."""

    def __init__(self, h_b, temperature: float, coupling_ops, broadening: float | None = None):
        self.h_b = as_operator(h_b, "h_b")
        if not (temperature > 0 or math.isinf(temperature)):
            raise ValueError(f"temperature must be positive or inf, got {temperature}")
        self.temperature = float(temperature)
        self.coupling_ops = [
            as_operator(x, f"coupling_ops[{i}]") for i, x in enumerate(coupling_ops)
        ]
        for i, x in enumerate(self.coupling_ops):
            if x.shape[0] != self.h_b.shape[0]:
                raise ValueError(
                    f"coupling_ops[{i}] dim {x.shape[0]} does not match bath dim "
                    f"{self.h_b.shape[0]}"
                )
        self._energies, self._basis = hermitian_eigendecomposition(self.h_b)
        self._populations = _boltzmann_weights(self._energies, self.temperature)
        if broadening is None:
            broadening = default_broadening(self._energies)
        if broadening <= 0:
            raise ValueError(f"broadening must be positive, got {broadening}")
        self.broadening = float(broadening)
        v = self._basis
        self._sigma = (v * self._populations) @ v.conj().T
        self._sigma.flags.writeable = False
        self._x_eig = [v.conj().T @ x @ v for x in self.coupling_ops]
        self._pair_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def dim(self) -> int:
        return self.h_b.shape[0]

    @property
    def channel_count(self) -> int:
        return len(self.coupling_ops)

    def sigma(self) -> np.ndarray:
        """The Gibbs density matrix sigma_B (read-only, computed once)."""
        return self._sigma

    def _propagator(self, t: float) -> np.ndarray:
        """e^{-i H_B t} from the cached eigendecomposition."""
        v = self._basis
        return (v * np.exp(-1j * self._energies * t)) @ v.conj().T

    def _shifted(self, shifts) -> FiniteBath:
        """Copy with X_alpha -> X_alpha - shifts[alpha] * 1, same eigenbasis.

        A c-number shift leaves H_B, sigma_B and the eigenbasis untouched and
        moves only the diagonal of each X_alpha in that basis.
        """
        eye = np.eye(self.dim)
        new = object.__new__(FiniteBath)
        new.__dict__.update(self.__dict__)
        new.coupling_ops = [x - s * eye for x, s in zip(self.coupling_ops, shifts)]
        new._x_eig = [x - s * eye for x, s in zip(self._x_eig, shifts)]
        new._pair_cache = {}
        return new

    def expectation(self, x) -> complex:
        """Tr{X sigma_B}."""
        x = as_operator(x, "x")
        x_eig = self._basis.conj().T @ x @ self._basis
        return complex(np.sum(self._populations * np.diag(x_eig)))

    def _pair_terms(self, alpha: int, beta: int) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (weights, frequencies) of the correlation double sum."""
        key = (alpha, beta)
        if key not in self._pair_cache:
            xa = self._x_eig[alpha]
            xb = self._x_eig[beta]
            # weights[z, xi] = p(z) <z|X_a^dag|xi><xi|X_b|z>
            weights = self._populations[:, None] * xa.conj().T * xb.T
            freqs = self._energies[:, None] - self._energies[None, :]
            mask = weights != 0
            self._pair_cache[key] = (weights[mask], freqs[mask])
        return self._pair_cache[key]

    def weighted_bohr_frequencies(self, channels=None) -> np.ndarray:
        """Bath Bohr frequencies that actually carry correlation weight."""
        if channels is None:
            channels = range(self.channel_count)
        chunks = []
        for a in channels:
            for b in channels:
                w, f = self._pair_terms(a, b)
                if len(w) == 0:
                    continue
                cut = WEIGHT_CUTOFF * np.abs(w).max()
                chunks.append(f[np.abs(w) > cut])
        return np.unique(np.concatenate(chunks)) if chunks else np.array([])


def center_couplings(bath: FiniteBath, system_ops) -> tuple[FiniteBath, np.ndarray]:
    """Shift each X_alpha by -<X_alpha>_B so Tr{X' sigma_B} = 0.

    Returns the shifted bath and the compensating system-hamiltonian term
    sum_alpha <X_alpha>_B A_alpha, so the total physics is unchanged.
    """
    system_ops = [as_operator(a, f"system_ops[{i}]") for i, a in enumerate(system_ops)]
    if len(system_ops) != bath.channel_count:
        raise ValueError(
            f"{len(system_ops)} system operators for {bath.channel_count} bath channels"
        )
    means = [bath.expectation(x) for x in bath.coupling_ops]
    dim_a = system_ops[0].shape[0] if system_ops else 0
    h_shift = np.zeros((dim_a, dim_a), dtype=complex)
    for mean, a in zip(means, system_ops):
        h_shift = h_shift + mean * a
    h_shift = (h_shift + h_shift.conj().T) / 2.0
    return bath._shifted(means), h_shift


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
        q_bath = (x + x.conj().T) / math.sqrt(2.0) / 2.0
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
    weights, freqs = bath._pair_terms(alpha, beta)
    if len(weights) == 0:
        return 0j
    return complex(np.sum(weights * np.exp(1j * freqs * tau)))


def two_time_correlation(bath: FiniteBath, alpha: int, beta: int, t1: float, t2: float) -> complex:
    """G_ab(t1, t2) = Tr{X_a^dag(t1) X_b(t2) sigma_B} via explicit unitaries.

    Deliberately a separate route from correlation_function (dense Heisenberg
    operators instead of the eigenbasis sum) so stationarity can be tested.
    U(t) = e^{-i H_B t} is built from the bath's one eigendecomposition.
    """
    u1 = bath._propagator(t1)
    u2 = bath._propagator(t2)
    xa = u1.conj().T @ bath.coupling_ops[alpha] @ u1
    xb = u2.conj().T @ bath.coupling_ops[beta] @ u2
    # Tr{A^+ B} = sum_ij conj(A_ij) B_ij, one product fewer than the trace
    return complex(np.sum(xa.conj() * (xb @ bath.sigma())))


def half_fourier_w(bath: FiniteBath, alpha: int, beta: int, omega: float) -> complex:
    """W_ab(Omega) = int_0^inf e^{i Omega tau} G_ab(tau) dtau, broadened."""
    eps = bath.broadening
    if eps <= 0:
        raise ValueError(f"broadening must be positive, got {eps}")
    weights, freqs = bath._pair_terms(alpha, beta)
    if len(weights) == 0:
        return 0j
    return complex(np.sum(weights * (1j / ((omega + freqs) + 1j * eps))))


def _w_matrix(bath: FiniteBath, omega: float) -> np.ndarray:
    k = bath.channel_count
    w = np.empty((k, k), dtype=complex)
    for a in range(k):
        for b in range(k):
            w[a, b] = half_fourier_w(bath, a, b, omega)
    return w


class AnalyticBath:
    """Reservoir described directly by its rate matrices.

    gamma_fn(alpha, beta, omega) -> complex supplies Gamma; delta_fn likewise
    for the Lamb-shift matrix (default 0). Hermiticity and positivity of Gamma
    are enforced at every sampled omega.
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

    def rate(omega: float) -> float:
        if abs(omega) < 1e-12:
            return gamma_dephasing
        nbar = 1.0 / math.expm1(abs(omega) / temperature)
        return gamma * (nbar + 1.0) if omega > 0 else gamma * nbar

    def gamma_fn(a: int, b: int, omega: float) -> complex:
        return complex(rate(omega)) if a == b else 0j

    return AnalyticBath(gamma_fn, None, channel_count)


def table_bath(entries, channel_count: int | None = None) -> AnalyticBath:
    """Bath from an explicit table of (omega, gamma matrix, optional delta).

    Each gamma must be hermitian and positive semidefinite; violations are
    rejected up front, naming the offending omega. Lookups match omega within
    1e-8 * max(1, |omega|) and miss with a clear error otherwise.
    """
    table: list[tuple[float, np.ndarray, np.ndarray]] = []
    for entry in entries:
        omega, gamma_m, delta_m = entry
        gamma_m = as_operator(gamma_m, f"gamma at omega={omega}")
        scale = max(1.0, float(np.abs(gamma_m).max()))
        defect = hermiticity_defect(gamma_m)
        if defect > 1e-10 * scale:
            raise ValueError(
                f"table gamma at omega={omega} is not hermitian "
                f"(defect {defect:.3e})"
            )
        gamma_m = (gamma_m + gamma_m.conj().T) / 2.0
        min_eig = float(np.linalg.eigvalsh(gamma_m).min())
        if min_eig < -1e-10 * scale:
            raise ValueError(
                f"table gamma at omega={omega} is not positive semidefinite "
                f"(min eigenvalue {min_eig:.3e})"
            )
        if delta_m is None:
            delta_m = np.zeros_like(gamma_m)
        else:
            delta_m = as_operator(delta_m, f"delta at omega={omega}")
            if hermiticity_defect(delta_m) > 1e-10 * max(1.0, float(np.abs(delta_m).max())):
                raise ValueError(f"table delta at omega={omega} is not hermitian")
            delta_m = (delta_m + delta_m.conj().T) / 2.0
        if gamma_m.shape != delta_m.shape:
            raise ValueError(f"gamma/delta shapes differ at omega={omega}")
        table.append((float(omega), gamma_m, delta_m))
    if not table:
        raise ValueError("table bath needs at least one entry")
    k = table[0][1].shape[0]
    for omega, gamma_m, _ in table:
        if gamma_m.shape[0] != k:
            raise ValueError(f"inconsistent channel count at omega={omega}")
    if channel_count is not None and channel_count != k:
        raise ValueError(f"table matrices are {k}x{k}, expected {channel_count}")

    def lookup(omega: float) -> tuple[np.ndarray, np.ndarray]:
        tol = 1e-8 * max(1.0, abs(omega))
        best = min(table, key=lambda row: abs(row[0] - omega))
        if abs(best[0] - omega) > tol:
            known = ", ".join(f"{row[0]:g}" for row in table)
            raise ValueError(f"no table entry for omega={omega:g} (have: {known})")
        return best[1], best[2]

    def gamma_fn(a: int, b: int, omega: float) -> complex:
        return complex(lookup(omega)[0][a, b])

    def delta_fn(a: int, b: int, omega: float) -> complex:
        return complex(lookup(omega)[1][a, b])

    return AnalyticBath(gamma_fn, delta_fn, k)


def gamma_matrix(bath, omega: float) -> np.ndarray:
    """Gamma(Omega) over channels: hermitian, positive semidefinite."""
    if isinstance(bath, FiniteBath):
        w = _w_matrix(bath, omega)
        g = w + w.conj().T
        scale = float(np.abs(g).max())
        if scale > 0:
            min_eig = float(np.linalg.eigvalsh(g).min())
            if min_eig < -1e-8 * scale:
                raise ValueError(
                    f"Gamma({omega:g}) lost positivity (min eigenvalue {min_eig:.3e}); "
                    "broadening may be pathological"
                )
        return g
    k = bath.channel_count
    g = np.array(
        [[bath.gamma_fn(a, b, omega) for b in range(k)] for a in range(k)],
        dtype=complex,
    )
    scale = max(1.0, float(np.abs(g).max()))
    if hermiticity_defect(g) > 1e-10 * scale:
        raise ValueError(f"analytic Gamma({omega:g}) is not hermitian")
    g = (g + g.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(g).min())
    if min_eig < -1e-10 * scale:
        raise ValueError(
            f"analytic Gamma({omega:g}) is not positive semidefinite "
            f"(min eigenvalue {min_eig:.3e})"
        )
    return g


def delta_matrix(bath, omega: float) -> np.ndarray:
    """Delta(Omega) over channels: hermitian, feeds the Lamb shift."""
    if isinstance(bath, FiniteBath):
        w = _w_matrix(bath, omega)
        return (w - w.conj().T) / 2j
    k = bath.channel_count
    if bath.delta_fn is None:
        return np.zeros((k, k), dtype=complex)
    d = np.array(
        [[bath.delta_fn(a, b, omega) for b in range(k)] for a in range(k)],
        dtype=complex,
    )
    if hermiticity_defect(d) > 1e-10 * max(1.0, float(np.abs(d).max())):
        raise ValueError(f"analytic Delta({omega:g}) is not hermitian")
    return (d + d.conj().T) / 2.0


@dataclass(frozen=True)
class CorrelationTable:
    """Sampled correlation functions with the decay-time estimate."""

    taus: np.ndarray
    values: np.ndarray  # (channels, channels, len(taus))
    tau_b_estimate: float
    non_decaying: bool = False


def estimate_correlation_time(bath: FiniteBath, channels=None) -> CorrelationTable:
    """Estimate the reservoir memory time tau_B.

    tau_B is the smallest sampled tau such that every |G_ab(tau')| stays below
    5% of the largest |G_ab(0)| throughout [tau, 2 tau]. Few-mode baths whose
    correlations recur instead of decaying are flagged non_decaying and get
    the half-period pi/nu_min of the slowest weighted Bohr frequency (zero
    coupling gives tau_B = 0 by convention).
    """
    if channels is None:
        channels = list(range(bath.channel_count))
    channels = list(channels)
    pair_data = [
        [bath._pair_terms(a, b) for b in channels] for a in channels
    ]
    scale0 = 0.0
    for row in pair_data:
        for weights, _ in row:
            if len(weights):
                scale0 = max(scale0, abs(complex(np.sum(weights))))
    freqs = bath.weighted_bohr_frequencies(channels)
    nonzero = np.abs(freqs)[np.abs(freqs) > 1e-12 * max(1.0, np.abs(freqs).max() if len(freqs) else 1.0)]
    if scale0 <= 0.0:
        # nothing couples: no memory at all
        taus = np.array([0.0])
        values = np.zeros((len(channels), len(channels), 1), dtype=complex)
        return CorrelationTable(taus, values, 0.0, False)
    if len(nonzero) == 0:
        # constant correlation function: never decays, no finite period either
        taus = np.array([0.0])
        values = np.array(
            [[[complex(np.sum(w))] for (w, _) in row] for row in pair_data]
        ).reshape(len(channels), len(channels), 1)
        return CorrelationTable(taus, values, math.inf, True)
    nu_min = float(nonzero.min())
    nu_max = float(nonzero.max())
    t_end = 8.0 * math.pi / nu_min
    dt = math.pi / (16.0 * nu_max)
    n = int(min(4096, max(64, math.ceil(t_end / dt))))
    taus = np.linspace(0.0, t_end, n)
    k = len(channels)
    # one phase table over the union of the pairs' frequencies (bit-identical
    # values share a row); each pair's weights are summed onto those rows
    pairs = [pair for row in pair_data for pair in row]
    union, where = np.unique(np.concatenate([fr for _, fr in pairs]),
                             return_inverse=True)
    rows = np.repeat(np.arange(len(pairs)), [len(w) for w, _ in pairs])
    flat = rows * len(union) + where.ravel()
    size = len(pairs) * len(union)
    weights = np.concatenate([w for w, _ in pairs])
    coef = (np.bincount(flat, weights.real, size)
            + 1j * np.bincount(flat, weights.imag, size)).reshape(len(pairs), -1)
    values = np.empty((k * k, n), dtype=complex)
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        values[:, start:stop] = coef @ np.exp(1j * np.outer(union, taus[start:stop]))
    values = values.reshape(k, k, n)
    envelope = np.abs(values).max(axis=(0, 1))
    threshold = DECAY_THRESHOLD * scale0
    below = envelope <= threshold
    # on the uniform grid the window [tau_i, 2 tau_i] is exactly indices i..2i
    for i in range(1, (n - 1) // 2 + 1):
        if below[i : 2 * i + 1].all():
            return CorrelationTable(taus, values, float(taus[i]), False)
    return CorrelationTable(taus, values, math.pi / nu_min, True)


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
    number = np.diag([0.0, 1.0]).astype(complex)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    h_b = np.zeros((dim, dim), dtype=complex)
    x = np.zeros((dim, dim), dtype=complex)
    for k, (nu, g) in enumerate(modes):
        op_h = np.array([[1.0]], dtype=complex)
        op_x = np.array([[1.0]], dtype=complex)
        for j in range(n_modes):
            op_h = np.kron(op_h, number if j == k else eye2)
            op_x = np.kron(op_x, sigma_x if j == k else eye2)
        h_b += nu * op_h
        x += g * op_x
    return FiniteBath(h_b, temperature, [x], broadening=broadening)
