"""Master-equation generators in standard form, plus rate tensors and Pauli reduction.

Both modes reduce to one contracted standard form

    d rho / dt = -i [h_eff, rho] + G rho + rho G^+ + sum_p L_p rho R_p

with the sandwich factors stored as stacked (P, d, d) arrays. Stack the
eigenoperators as A[W, a] and contract over the source frequency and channel
first:

    M[W', a] = sum_(W, b) c(W', W) C_ab(W) A_b(W).

The presecular generator keeps the cross terms between transition
frequencies: c = F(W' - W), the coarse-graining filter of the policy, and
C = W = Gamma/2 + i Delta. Its pairs are (M, A_a(W')^+) and the mirror
(A_a(W'), M^+), with G = -sum A^+ M, so the frequency shift sits inside G
and h_eff is the bare system hamiltonian.

The secular generator takes c = delta(W', W) and C = Gamma. Because Gamma
is hermitian the mirror pairs sum to the same superoperator as the first
list, so they are folded in at full rate: L = M, R = A^+, G = -B/2 with
B = sum A^+ M. Its frequency shift h_ls = sum_W sum_ab Delta_ab(W)
A_a(W)^+ A_b(W) is kept in h_eff = h_a + h_ls. With an exact-match filter
the presecular generator collapses back to the secular one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .bath import delta_matrix, gamma_matrix
from .linalg import MAX_TENSOR_DIM, DimensionError, as_operator, hermiticity_defect
from .spectral import (
    EigenOperatorSet,
    Spectrum,
    bohr_frequencies,
    eigenoperator_decomposition,
)


def coarse_graining_f(x, dt: float):
    """Coarse-graining filter F(x) = exp(i x dt / 2) sin(x dt / 2) / (x dt / 2).

    F(0) = 1 and F vanishes at x = 2 pi n / dt for integer n != 0. Accepts
    scalars or arrays of x.
    """
    u = 0.5 * np.asarray(x, dtype=float) * float(dt)
    return np.exp(1j * u) * np.sinc(u / np.pi)


@dataclass(frozen=True)
class SecularPolicy:
    """How transition-frequency pairs (W', W) are weighted.

    filter 'exact-match' keeps only |W' - W| <= matching_tol with weight 1.
    filter 'F-weighted' weights every pair by coarse_graining_f(W' - W, dt)
    and requires dt > 0.
    """

    dt: float | None = None
    filter: str = "exact-match"
    matching_tol: float = 0.0

    def __post_init__(self):
        if self.filter not in ("exact-match", "F-weighted"):
            raise ValueError(
                f"unknown secular filter {self.filter!r}; "
                "expected 'exact-match' or 'F-weighted'"
            )
        if self.filter == "F-weighted":
            if self.dt is None or not self.dt > 0:
                raise ValueError("F-weighted policy requires dt > 0")
        if self.matching_tol < 0:
            raise ValueError("matching_tol must be >= 0")


def secular_filter(omega_prime, omega, policy: SecularPolicy):
    """Weight attached to the frequency pair (omega_prime, omega).

    Broadcasts over arrays of frequencies.
    """
    diff = np.subtract(omega_prime, omega)
    if policy.filter == "exact-match":
        return (np.abs(diff) <= policy.matching_tol).astype(complex)
    return coarse_graining_f(diff, policy.dt)


@dataclass(frozen=True)
class DissipatorTerm:
    """One transition frequency's worth of dissipator data.

    ops[a] is the eigenoperator A_a(omega) for channel a (zero matrix when the
    channel has no weight at this frequency). gamma is the k x k rate matrix
    Gamma(omega), delta the matching frequency-shift matrix Delta(omega).
    """

    omega: float
    gamma: np.ndarray
    ops: tuple[np.ndarray, ...]
    delta: np.ndarray | None = None

    @property
    def channel_count(self) -> int:
        return len(self.ops)

    def w_matrix(self) -> np.ndarray:
        """Half-Fourier coefficient matrix W = Gamma/2 + i Delta."""
        if self.delta is None:
            return 0.5 * self.gamma.astype(complex)
        return 0.5 * self.gamma + 1j * self.delta


@dataclass(frozen=True)
class Generator:
    """Right-hand side of the master equation d rho / dt = rhs(rho).

    mode 'presecular' needs the SecularPolicy whose filter weights the
    cross-frequency terms.
    """

    h_eff: np.ndarray
    dissipator_terms: tuple[DissipatorTerm, ...]
    mode: str
    h_ls: np.ndarray | None = None
    policy: SecularPolicy | None = None

    @property
    def dim(self) -> int:
        return self.h_eff.shape[0]

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contracted standard form (G, L, R), built once per generator.

        G is d x d; L and R are (P, d, d) stacks of the sandwich factors, with
        pairs that vanish identically dropped.
        """
        dim = self.dim
        terms = self.dissipator_terms
        if not terms:
            empty = np.zeros((0, dim, dim), dtype=complex)
            return np.zeros((dim, dim), dtype=complex), empty, empty
        n_w, n_ch = len(terms), terms[0].channel_count
        secular = self.mode == "secular"
        if not secular and self.policy is None:
            raise ValueError("presecular generator needs a SecularPolicy")
        ops = np.array([t.ops for t in terms], dtype=complex)  # A[W, a]
        rates = np.array([t.gamma if secular else t.w_matrix() for t in terms],
                         dtype=complex)
        # M[W', a] = sum_(W, b) c(W', W) C_ab(W) A_b(W): channels first, then
        # the filter over the source frequency (c is the identity if secular)
        m = rates @ ops.reshape(n_w, n_ch, dim * dim)
        if not secular:
            omegas = np.array([t.omega for t in terms])
            weights = secular_filter(omegas[:, None], omegas[None, :], self.policy)
            m = weights @ m.reshape(n_w, -1)
        m = m.reshape(n_w * n_ch, dim, dim)
        a = ops.reshape(n_w * n_ch, dim, dim)
        a_dag = a.conj().transpose(0, 2, 1)
        loss = _sum_of_products(a_dag, m)
        if secular:
            # Gamma is hermitian, so the mirror pairs (A, M^+) sum to the same
            # superoperator as (M, A^+); they are folded in at full rate
            big_g = -0.5 * _hermitize(loss)
            left, right = m, a_dag
        else:
            big_g = -loss
            left = np.concatenate([m, a])
            right = np.concatenate([a_dag, m.conj().transpose(0, 2, 1)])
        keep = (np.abs(left).max(axis=(1, 2)) > 0.0) & (
            np.abs(right).max(axis=(1, 2)) > 0.0)
        return big_g, left[keep], right[keep]


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_p x[p] @ y[p] for (P, d, d) stacks, as one (d, P d) @ (P d, d) GEMM."""
    n_p, dim, _ = x.shape
    return x.transpose(1, 0, 2).reshape(dim, n_p * dim) @ y.reshape(n_p * dim, dim)


def _reconstruct_hamiltonian(spectrum: Spectrum) -> np.ndarray:
    v = spectrum.basis
    h = (v * spectrum.frequencies) @ v.conj().T
    return _hermitize(h)


def _collect_terms(spectrum, eigenops, bath):
    """Shared preamble of the two builders: channel-aligned eigenoperators
    grouped by transition frequency, with rate matrices from the bath."""
    if not eigenops:
        raise ValueError("need at least one coupling channel")
    n_ch = len(eigenops)
    if bath.channel_count != n_ch:
        raise ValueError(
            f"bath provides {bath.channel_count} coupling channels, "
            f"got {n_ch} eigenoperator sets"
        )
    dim = spectrum.dim
    for ch, eset in enumerate(eigenops):
        for op in eset.terms.values():
            if op.shape != (dim, dim):
                raise ValueError(
                    f"channel {ch} eigenoperator has shape {op.shape}, "
                    f"expected {(dim, dim)}"
                )

    omegas = sorted({w for eset in eigenops for w in eset.terms})
    zero = np.zeros((dim, dim), dtype=complex)
    terms = []
    for w in omegas:
        ops = tuple(
            np.asarray(eset.terms.get(w, zero), dtype=complex) for eset in eigenops
        )
        gamma = gamma_matrix(bath, w)
        delta = delta_matrix(bath, w)
        terms.append(DissipatorTerm(omega=w, gamma=gamma, ops=ops, delta=delta))
    return terms


def build_standard_form(spectrum, eigenops, bath) -> Generator:
    """Assemble the secular generator: Lindblad dissipator plus frequency shift."""
    terms = _collect_terms(spectrum, eigenops, bath)
    dim = spectrum.dim
    h_a = _reconstruct_hamiltonian(spectrum)

    h_ls = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        if t.delta is None:
            continue
        for a in range(t.channel_count):
            for b in range(t.channel_count):
                if t.delta[a, b] == 0:
                    continue
                h_ls += t.delta[a, b] * (t.ops[a].conj().T @ t.ops[b])
    h_ls = _hermitize(h_ls)
    h_eff = _hermitize(h_a + h_ls)

    return Generator(
        h_eff=h_eff,
        dissipator_terms=tuple(terms),
        mode="secular",
        h_ls=h_ls,
        policy=None,
    )


def build_presecular(spectrum, eigenops, bath, policy: SecularPolicy) -> Generator:
    """Assemble the coarse-grained generator with cross-frequency terms.

    The frequency shift is not split out: each (W', W) pair enters through the
    half-Fourier matrix W(W) = Gamma(W)/2 + i Delta(W), and the free part of
    h_eff is the bare system hamiltonian.
    """
    if policy.dt is None or not policy.dt > 0:
        raise ValueError("presecular generator requires policy.dt > 0")
    terms = _collect_terms(spectrum, eigenops, bath)
    h_a = _reconstruct_hamiltonian(spectrum)
    return Generator(
        h_eff=h_a,
        dissipator_terms=tuple(terms),
        mode="presecular",
        h_ls=None,
        policy=policy,
    )


def rhs_function(g: Generator):
    """Return rhs(rho) as a reusable closure over the contracted pieces."""
    big_g, left, right = g.pieces
    # -i [H, rho] + G rho + rho G^+ = K rho + rho K^+ with K = G - i H
    k_op = big_g - 1j * g.h_eff
    k_dag = k_op.conj().T

    def rhs(rho):
        rho = np.asarray(rho, dtype=complex)
        return k_op @ rho + rho @ k_dag + _sum_of_products(left @ rho, right)

    return rhs


def apply_rhs(g: Generator, rho) -> np.ndarray:
    """One-shot rhs evaluation; use rhs_function for repeated calls."""
    return rhs_function(g)(rho)


def generator_superoperator_matrix(g: Generator) -> np.ndarray:
    """Dense d^2 x d^2 matrix of the generator in column-stacking convention.

    Raises DimensionError before allocating when d^2 exceeds MAX_TENSOR_DIM.
    """
    dim = g.dim
    if dim * dim > MAX_TENSOR_DIM:
        raise DimensionError(
            f"superoperator would be {dim * dim}x{dim * dim}, "
            f"cap is {MAX_TENSOR_DIM}"
        )
    big_g, left, right = g.pieces
    k_op = big_g - 1j * g.h_eff
    eye = np.eye(dim, dtype=complex)
    mat = np.kron(eye, k_op) + np.kron(k_op.conj(), eye)
    # sum_p kron(R_p^T, L_p): entry ((i, j), (k, l)) is sum_p R_p[k, i] L_p[j, l]
    n_p = left.shape[0]
    sandwich = right.reshape(n_p, dim * dim).T @ left.reshape(n_p, dim * dim)
    mat += sandwich.reshape(dim, dim, dim, dim).transpose(1, 2, 0, 3).reshape(
        dim * dim, dim * dim)
    return mat


# ---------------------------------------------------------------------------
# rate tensors in the energy eigenbasis


@dataclass(frozen=True)
class RateTensors:
    """Secular dissipator data in the energy eigenbasis.

    K maps index quadruples (a, m, b, n) to the gain coefficient connecting
    rho_mn to d rho_ab; it is stored only on quadruples where the transition
    frequencies match (omega_m - omega_a = omega_n - omega_b after snapping
    to the Bohr set). kappa maps same-multiplet pairs (i, j) to the escape
    coefficient sum_w K(w i, w j). pauli_equations reduces them to population
    and coherence rates.
    """

    K: dict
    kappa: dict
    spectrum: Spectrum = field(repr=False, compare=False, default=None)


def rate_tensor_K(spectrum: Spectrum, a_eigen, gamma_of) -> dict:
    """Gain tensor K(a m, b n) = sum_ab' Gamma_ab'(w_ma) <a|A_b'|m> <b|A_a'|n>*.

    a_eigen: per-channel coupling operators already rotated to the energy
    eigenbasis. gamma_of: either a callable omega -> k x k rate matrix or a
    dict keyed by the Bohr frequencies.
    """
    mats = [np.asarray(m, dtype=complex) for m in a_eigen]
    if not mats:
        raise ValueError("need at least one coupling channel")
    dim = spectrum.dim
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {m.shape}")
    bohr = bohr_frequencies(spectrum)
    values = np.asarray(bohr.values)
    reps = spectrum.representative_frequencies()

    if callable(gamma_of):
        gamma_at = {w: np.asarray(gamma_of(w), dtype=complex) for w in bohr.values}
    else:
        gamma_at = {w: np.asarray(gamma_of[w], dtype=complex) for w in bohr.values}

    # snap each directed gap w_ma = w_m - w_a to the nearest Bohr value
    gaps = reps[None, :] - reps[:, None]  # gaps[a, m] = w_m - w_a
    nearest = np.abs(gaps[:, :, None] - values[None, None, :]).argmin(axis=2)

    k_map: dict = {}
    n_ch = len(mats)
    for widx, w in enumerate(bohr.values):
        pairs = [(a, m) for a in range(dim) for m in range(dim) if nearest[a, m] == widx]
        if not pairs:
            continue
        e_mat = np.empty((n_ch, len(pairs)), dtype=complex)
        for ch, mat in enumerate(mats):
            e_mat[ch] = [mat[a, m] for (a, m) in pairs]
        k_block = e_mat.T @ gamma_at[w].T @ e_mat.conj()
        for p, (a, m) in enumerate(pairs):
            for q, (b, n) in enumerate(pairs):
                k_map[(a, m, b, n)] = complex(k_block[p, q])
    return k_map


def kappa(rate_tensors: RateTensors) -> dict:
    """Escape coefficients kappa(i, j) = sum_w K(w i, w j).

    Keys run over ordered same-multiplet index pairs (i, j); the diagonal
    kappa(i, i) is the total escape rate out of level i.
    """
    spectrum = rate_tensors.spectrum
    if spectrum is None:
        raise ValueError("rate tensors carry no spectrum")
    dim = spectrum.dim
    midx = spectrum.multiplet_index
    k_map = rate_tensors.K
    out: dict = {}
    for i in range(dim):
        for j in range(dim):
            if midx[i] != midx[j]:
                continue
            total = 0.0 + 0.0j
            for w in range(dim):
                total += k_map.get((w, i, w, j), 0.0)
            out[(i, j)] = complex(total)
    return out


@dataclass(frozen=True)
class PauliReduction:
    """Population/coherence equations extracted from the rate tensors.

    Nondegenerate spectra get the closed forms: gain[a, m] feeds population
    m into population a, escape[a] drains it, and for a != b the coherence
    rho_ab decays at coherence_decay[a, b] (on top of the oscillation at the
    level splitting) provided all transition frequencies are distinct.

    Degenerate spectra get block tensors over multiplets instead: block_gain
    [(A, M)] has shape (gA, gA, gM, gM) with entries K(Aa Mm, Aa' Mm'), and
    block_escape[A] is the in-multiplet escape matrix kappa(a'', a).
    """

    degenerate: bool
    all_gaps_distinct: bool
    gain: np.ndarray | None
    escape: np.ndarray | None
    coherence_decay: np.ndarray | None
    block_gain: dict | None
    block_escape: dict | None
    flags: tuple[str, ...]


def _distinct_gap_check(spectrum: Spectrum) -> bool:
    """True when no two distinct multiplet pairs share a transition frequency."""
    freqs = spectrum.multiplet_frequencies
    tol = spectrum.degeneracy_tol
    n = len(freqs)
    gaps = {}
    for p in range(n):
        for q in range(p + 1, n):
            gaps[(p, q)] = abs(freqs[q] - freqs[p])
    items = list(gaps.items())
    for x in range(len(items)):
        for y in range(x + 1, len(items)):
            if abs(items[x][1] - items[y][1]) <= tol:
                return False
    return True


def pauli_equations(rate_tensors: RateTensors, spectrum: Spectrum) -> PauliReduction:
    """Reduce the rate tensors to population and coherence equations."""
    dim = spectrum.dim
    k_map = rate_tensors.K
    kap = rate_tensors.kappa if rate_tensors.kappa else kappa(rate_tensors)
    degenerate = any(g > 1 for g in spectrum.degeneracies)
    gaps_ok = _distinct_gap_check(spectrum)
    flags = []
    if degenerate:
        flags.append("degenerate-multiplets")
    if not gaps_ok:
        flags.append("shared-transition-frequency")

    if not degenerate:
        gain = np.zeros((dim, dim))
        escape = np.zeros(dim)
        for a in range(dim):
            escape[a] = kap[(a, a)].real
            for m in range(dim):
                val = k_map.get((a, m, a, m), 0.0)
                gain[a, m] = complex(val).real
        coherence_decay = None
        if gaps_ok:
            coherence_decay = np.zeros((dim, dim))
            for a in range(dim):
                for b in range(dim):
                    if a == b:
                        continue
                    cross = complex(k_map.get((a, a, b, b), 0.0))
                    coherence_decay[a, b] = (
                        0.5 * (kap[(a, a)].real + kap[(b, b)].real) - cross.real
                    )
        return PauliReduction(
            degenerate=False,
            all_gaps_distinct=gaps_ok,
            gain=gain,
            escape=escape,
            coherence_decay=coherence_decay,
            block_gain=None,
            block_escape=None,
            flags=tuple(flags),
        )

    # degenerate case: per-multiplet block tensors
    mults = spectrum.multiplets
    n_mult = len(mults)
    block_gain = {}
    for big_a in range(n_mult):
        idx_a = mults[big_a]
        for big_m in range(n_mult):
            idx_m = mults[big_m]
            g_a, g_m = len(idx_a), len(idx_m)
            block = np.zeros((g_a, g_a, g_m, g_m), dtype=complex)
            hit = False
            for ia, a in enumerate(idx_a):
                for ia2, a2 in enumerate(idx_a):
                    for im, m in enumerate(idx_m):
                        for im2, m2 in enumerate(idx_m):
                            val = k_map.get((a, m, a2, m2))
                            if val is not None and val != 0.0:
                                block[ia, ia2, im, im2] = val
                                hit = True
            if hit:
                block_gain[(big_a, big_m)] = block
    block_escape = {}
    for big_a in range(n_mult):
        idx_a = mults[big_a]
        g_a = len(idx_a)
        block = np.zeros((g_a, g_a), dtype=complex)
        for ia, a in enumerate(idx_a):
            for ia2, a2 in enumerate(idx_a):
                block[ia, ia2] = kap.get((a, a2), 0.0)
        block_escape[big_a] = block
    return PauliReduction(
        degenerate=True,
        all_gaps_distinct=gaps_ok,
        gain=None,
        escape=None,
        coherence_decay=None,
        block_gain=block_gain,
        block_escape=block_escape,
        flags=tuple(flags),
    )


def kernel_superoperator_matrix(rate_tensors: RateTensors) -> np.ndarray:
    """Dissipator as a superoperator in the energy eigenbasis, built from the
    rate tensors alone:

        d rho_ab = sum_(m n supported) K(a m, b n) rho_mn
                   - 1/2 sum_a'' kappa(a'', a) rho_a''b
                   - 1/2 sum_b'' kappa(b, b'') rho_ab''

    This is the generic degenerate-safe kernel; the standard-form dissipator
    rotated to the eigenbasis must match it entry for entry.
    """
    spectrum = rate_tensors.spectrum
    dim = spectrum.dim
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)

    def col(i, j):
        # column-stacking: rho_ij sits at flat index i + dim * j
        return i + dim * j

    for (a, m, b, n), val in rate_tensors.K.items():
        mat[col(a, b), col(m, n)] += val
    kap = rate_tensors.kappa if rate_tensors.kappa else kappa(rate_tensors)
    for (i, j), val in kap.items():
        # -1/2 kappa(a'', a) rho_a''b : here (i, j) = (a'', a)
        for b in range(dim):
            mat[col(j, b), col(i, b)] += -0.5 * val
        # -1/2 kappa(b, b'') rho_ab'' : here (i, j) = (b, b'')
        for a in range(dim):
            mat[col(a, i), col(a, j)] += -0.5 * val
    return mat


def build_rate_tensors(spectrum: Spectrum, system_ops, bath) -> RateTensors:
    """Rotate couplings to the eigenbasis and assemble K and kappa."""
    v = spectrum.basis
    mats = [v.conj().T @ as_operator(a, "coupling operator") @ v for a in system_ops]
    k_map = rate_tensor_K(spectrum, mats, lambda w: gamma_matrix(bath, w))
    rt = RateTensors(K=k_map, kappa={}, spectrum=spectrum)
    return replace(rt, kappa=kappa(rt))


# ---------------------------------------------------------------------------
# end-to-end derivation


@dataclass(frozen=True)
class DeriveResult:
    """Everything produced by derive_generator."""

    generator: Generator
    spectrum: Spectrum
    eigenops: tuple[EigenOperatorSet, ...]
    rate_tensors: RateTensors
    pauli: PauliReduction
    h_shift: np.ndarray | None = None


def derive_generator(
    h_a,
    bath,
    couplings,
    mode: str = "secular",
    policy: SecularPolicy | None = None,
    degeneracy_tol: float | None = None,
) -> DeriveResult:
    """Full pipeline from microscopic data to a generator.

    couplings: list of system coupling operators, one per bath channel.
    For finite baths whose coupling operators have nonzero stationary mean,
    the mean is shifted into the system hamiltonian first (h_shift reports
    the correction that was added to h_a).
    """
    from .bath import FiniteBath, center_couplings
    from .spectral import build_spectrum

    h_a = as_operator(h_a, "system hamiltonian")
    if hermiticity_defect(h_a) > 1e-9 * max(1.0, np.abs(h_a).max()):
        raise ValueError("system hamiltonian is not hermitian")
    ops = [as_operator(a, f"couplings[{i}]") for i, a in enumerate(couplings)]
    if len(ops) != bath.channel_count:
        raise ValueError(
            f"bath provides {bath.channel_count} coupling channels, "
            f"got {len(ops)} system operators"
        )

    h_shift = None
    if isinstance(bath, FiniteBath):
        bath, shift = center_couplings(bath, ops)
        if np.abs(shift).max() > 0.0:
            h_shift = shift
            h_a = _hermitize(h_a + shift)

    spectrum = build_spectrum(h_a, degeneracy_tol=degeneracy_tol)
    eigenops = tuple(
        eigenoperator_decomposition(a, spectrum, channel=i) for i, a in enumerate(ops)
    )

    if mode == "secular":
        gen = build_standard_form(spectrum, eigenops, bath)
    elif mode == "presecular":
        if policy is None:
            raise ValueError("presecular mode requires a SecularPolicy with dt > 0")
        gen = build_presecular(spectrum, eigenops, bath, policy)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'secular' or 'presecular'")

    rt = build_rate_tensors(spectrum, ops, bath)
    red = pauli_equations(rt, spectrum)
    return DeriveResult(
        generator=gen,
        spectrum=spectrum,
        eigenops=eigenops,
        rate_tensors=rt,
        pauli=red,
        h_shift=h_shift,
    )
