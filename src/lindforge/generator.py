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

In the energy eigenbasis the secular generator couples two coherences only
when their gaps snap to the same Bohr frequency, so it splits into one block
per Bohr frequency, built from the rate tensors (build_bohr_blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bath import delta_matrix, gamma_matrix
from .linalg import MAX_TENSOR_DIM, DimensionError, as_operator, hermiticity_defect
from .spectral import (
    EigenOperatorSet,
    Spectrum,
    bohr_frequencies,
    eigenbasis_operator,
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

    filter 'exact-match' keeps only W' == W with weight 1.
    filter 'F-weighted' weights every pair by coarse_graining_f(W' - W, dt)
    and requires dt > 0.
    """

    dt: float | None = None
    filter: str = "exact-match"

    def __post_init__(self):
        if self.filter not in ("exact-match", "F-weighted"):
            raise ValueError(
                f"unknown secular filter {self.filter!r}; "
                "expected 'exact-match' or 'F-weighted'"
            )
        if self.filter == "F-weighted":
            if self.dt is None or not self.dt > 0:
                raise ValueError("F-weighted policy requires dt > 0")


def secular_filter(omega_prime, omega, policy: SecularPolicy):
    """Weight attached to the frequency pair (omega_prime, omega).

    Broadcasts over arrays of frequencies.
    """
    diff = np.subtract(omega_prime, omega)
    if policy.filter == "exact-match":
        return (diff == 0).astype(complex)
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
    cross-frequency terms. A secular generator from derive_generator also
    carries the Spectrum and RateTensors it was derived with, from which
    bohr_blocks builds its eigenbasis blocks.
    """

    h_eff: np.ndarray
    dissipator_terms: tuple[DissipatorTerm, ...]
    mode: str
    h_ls: np.ndarray | None = None
    policy: SecularPolicy | None = None
    spectrum: Spectrum | None = field(default=None, compare=False, repr=False)
    rate_tensors: RateTensors | None = field(default=None, compare=False, repr=False)

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
        secular = self.mode == "secular"
        if not secular and self.policy is None:
            raise ValueError("presecular generator needs a SecularPolicy")
        # M[W', a] = sum_(W, b) c(W', W) C_ab(W) A_b(W): channels first, then
        # the filter over the source frequency (c is the identity if secular)
        a, m = _channel_contraction(
            terms, [t.gamma if secular else t.w_matrix() for t in terms],
            terms[0].channel_count, dim)
        if not secular:
            omegas = np.array([t.omega for t in terms])
            weights = secular_filter(omegas[:, None], omegas[None, :], self.policy)
            m = (weights @ m.reshape(len(terms), -1)).reshape(m.shape)
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
        keep = np.flatnonzero((np.abs(left).max(axis=(1, 2)) > 0.0)
                              & (np.abs(right).max(axis=(1, 2)) > 0.0))
        # every rhs call and superoperator build reads right row-major, so
        # the kept pairs are gathered straight into a C-contiguous stack
        right = np.take(right, keep, axis=0, mode="clip",
                        out=np.empty((keep.size, dim, dim), dtype=complex))
        return big_g, left[keep], right

    @cached_property
    def bohr_blocks(self) -> BohrBlocks | None:
        """The generator as its blocks on the energy eigenbasis, built once
        by build_bohr_blocks for every secular generator from
        derive_generator; None for presecular and hand-built ones."""
        if (self.mode != "secular" or self.spectrum is None
                or self.rate_tensors is None):
            return None
        return build_bohr_blocks(self.spectrum, self.rate_tensors, self.h_eff)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _channel_contraction(terms, rates, n_ch: int, dim: int):
    """Stack the eigenoperators as A[W, a] and contract them over the source
    channel with k x k matrices C(W), one per term:
    M[W, a] = sum_b C_ab(W) A_b(W). Returns A and M as (N k, d, d) stacks."""
    ops = np.array([t.ops for t in terms], dtype=complex).reshape(-1, n_ch, dim * dim)
    m = np.asarray(rates, dtype=complex).reshape(-1, n_ch, n_ch) @ ops
    return ops.reshape(-1, dim, dim), m.reshape(-1, dim, dim)


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_p x[p] @ y[p] for (P, d, d) stacks, as one (d, P d) @ (P d, d) GEMM."""
    n_p, dim, _ = x.shape
    return x.transpose(1, 0, 2).reshape(dim, n_p * dim) @ y.reshape(n_p * dim, dim)


def _collect_terms(spectrum, eigenops, bath, gammas):
    """Shared preamble of the two builders: channel-aligned eigenoperators
    grouped by transition frequency, with Gamma read from the table gammas
    (aligned with bohr_frequencies(spectrum)) and Delta from the bath."""
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

    row = {w: i for i, w in enumerate(bohr_frequencies(spectrum).values.tolist())}
    omegas = sorted({w for eset in eigenops for w in eset.terms})
    deltas = delta_matrix(bath, np.array(omegas))  # one stacked call
    zero = np.zeros((dim, dim), dtype=complex)
    terms = []
    for w, delta in zip(omegas, deltas):
        ops = tuple(
            np.asarray(eset.terms.get(w, zero), dtype=complex) for eset in eigenops
        )
        terms.append(DissipatorTerm(omega=w, gamma=gammas[row[w]], ops=ops, delta=delta))
    return terms


def build_standard_form(spectrum, eigenops, bath, gammas,
                        rate_tensors: RateTensors) -> Generator:
    """Assemble the secular generator: Lindblad dissipator plus frequency shift.

    gammas: (n, k, k) stack of Gamma(w) over w in bohr_frequencies(spectrum).
    rate_tensors: the RateTensors built from the same spectrum and gammas;
    the generator keeps them with the spectrum for its eigenbasis blocks.
    """
    terms = _collect_terms(spectrum, eigenops, bath, gammas)
    h_a = spectrum.hamiltonian
    # h_ls = sum_W sum_ab Delta_ab(W) A_a(W)^+ A_b(W), contracted like G;
    # with every Delta zero (a bath without delta_fn) it is zero, and the
    # stacks of every eigenoperator that contraction takes are not formed
    if any(t.delta.any() for t in terms):
        a, m = _channel_contraction(terms, [t.delta for t in terms], len(eigenops),
                                    spectrum.dim)
        h_ls = _hermitize(_sum_of_products(a.conj().transpose(0, 2, 1), m))
    else:
        h_ls = np.zeros((spectrum.dim, spectrum.dim), dtype=complex)
    h_eff = _hermitize(h_a + h_ls)

    return Generator(
        h_eff=h_eff,
        dissipator_terms=tuple(terms),
        mode="secular",
        h_ls=h_ls,
        policy=None,
        spectrum=spectrum,
        rate_tensors=rate_tensors,
    )


def build_presecular(spectrum, eigenops, bath, gammas,
                     policy: SecularPolicy) -> Generator:
    """Assemble the coarse-grained generator with cross-frequency terms.

    The frequency shift is not split out: each (W', W) pair enters through the
    half-Fourier matrix W(W) = Gamma(W)/2 + i Delta(W), and the free part of
    h_eff is the bare system hamiltonian. gammas as for build_standard_form.
    """
    if policy.dt is None or not policy.dt > 0:
        raise ValueError("presecular generator requires policy.dt > 0")
    terms = _collect_terms(spectrum, eigenops, bath, gammas)
    h_a = spectrum.hamiltonian
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
    """Secular dissipator data in the energy eigenbasis, on its support.

    K[s] is the gain coefficient K(a m, b n) connecting rho_mn to
    d rho_ab for the quadruple index[s] = (a, m, b, n). Only quadruples whose
    gaps w_m - w_a and w_n - w_b snap to the same Bohr frequency are stored,
    in lexicographic order, so len(K) counts the support. kappa is the dense
    d x d escape matrix kappa(i, j) = sum_w K(w i, w j) on escape_support.
    pauli_equations reduces them to population and coherence rates.
    """

    K: np.ndarray
    index: np.ndarray
    kappa: np.ndarray

    @property
    def escape_support(self) -> np.ndarray:
        """(d, d) mask of the pairs (i, j) of every supported (w, i, w, j),
        the terms of the escape sum: the same-multiplet pairs, and pairs
        across multiplets where Bohr frequencies chain."""
        a, m, b, n = self.index.T
        mask = np.zeros(self.kappa.shape, dtype=bool)
        mask[m[a == b], n[a == b]] = True
        return mask


def _secular_support(label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (p, q) with label[p] == label[q], in lexicographic order.

    Raises DimensionError before allocating when one label holds more than
    MAX_TENSOR_DIM gaps: its share of the support is that count squared, the
    size of the generator block the label makes.
    """
    sizes = np.bincount(label)
    if sizes.max() > MAX_TENSOR_DIM:
        raise DimensionError(
            f"{sizes.max()} eigenbasis gaps share one Bohr frequency; their "
            f"secular block would be {sizes.max()}x{sizes.max()}, "
            f"cap is {MAX_TENSOR_DIM}"
        )
    order = np.argsort(label, kind="stable")  # ascending p within each label
    count = sizes[label]  # partners of each p
    start = np.searchsorted(label[order], label)  # where they sit in order
    p = np.repeat(np.arange(label.size), count)
    offset = np.arange(p.size) - np.repeat(np.cumsum(count) - count, count)
    return p, order[start[p] + offset]


def build_rate_tensors(spectrum: Spectrum, system_ops, gammas) -> RateTensors:
    """Gain tensor K(a m, b n) = sum_cx A_c[a, m] Gamma_xc(w) A_x[b, n]^* and
    escape matrix kappa on the secular support.

    system_ops: the coupling operators, one per channel, in the user basis.
    gammas: (n, k, k) stack of Gamma(w) over w in bohr_frequencies(spectrum).
    """
    dim = spectrum.dim
    e = np.array([eigenbasis_operator(a, spectrum)
                  for a in system_ops]).reshape(len(system_ops), dim * dim)
    label = spectrum.bohr_index.ravel()  # flat gap index a d + m -> Bohr index
    p, q = _secular_support(label)
    u = np.einsum("cp,pxc->px", e, np.asarray(gammas)[label])  # sum_c A_c Gamma_xc
    k_vals = np.einsum("sx,xs->s", u[p], e[:, q].conj())
    a, m = np.divmod(p, dim)
    b, n = np.divmod(q, dim)
    kap = np.zeros((dim, dim), dtype=complex)
    np.add.at(kap, (m[a == b], n[a == b]), k_vals[a == b])
    return RateTensors(K=k_vals, index=np.stack([a, m, b, n], axis=1), kappa=kap)


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
    Where Bohr frequencies chain across multiplets (flagged
    shared-transition-frequency), the populations are not a closed block,
    and gain, escape and block_escape are the diagonal or in-multiplet part.
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
    """True when no two distinct multiplet pairs share a transition frequency.

    The closest two gaps are neighbours once sorted, so only adjacent
    differences need comparing with the tolerance.
    """
    freqs = spectrum.multiplet_frequencies
    upper = np.triu_indices(len(freqs), k=1)
    gaps = np.sort(np.abs(freqs[None, :] - freqs[:, None])[upper])
    return not np.any(np.diff(gaps) <= spectrum.degeneracy_tol)


def pauli_equations(rate_tensors: RateTensors, spectrum: Spectrum) -> PauliReduction:
    """Reduce the rate tensors to population and coherence equations."""
    dim = spectrum.dim
    k_vals, kap = rate_tensors.K, rate_tensors.kappa
    a, m, b, n = rate_tensors.index.T
    degenerate = any(g > 1 for g in spectrum.degeneracies)
    gaps_ok = _distinct_gap_check(spectrum)
    flags = []
    if degenerate:
        flags.append("degenerate-multiplets")
    if not gaps_ok:
        flags.append("shared-transition-frequency")

    if not degenerate:
        # K(a m, a m) and K(a a, b b) are always supported (equal gaps), and
        # lexicographic order lays each set out as a row-major d x d matrix
        escape = kap.diagonal().real.copy()
        gain = k_vals[(a == b) & (m == n)].real.reshape(dim, dim)
        coherence_decay = None
        if gaps_ok:
            cross = k_vals[(a == m) & (b == n)].real.reshape(dim, dim)
            coherence_decay = 0.5 * (escape[:, None] + escape[None, :]) - cross
            np.fill_diagonal(coherence_decay, 0.0)
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

    # degenerate case: per-multiplet block tensors; multiplets are runs of
    # consecutive indices, so pos is the place of each index in its run
    mults = spectrum.multiplets
    midx = spectrum.multiplet_index
    pos = np.arange(dim) - np.array([idx[0] for idx in mults])[midx]
    keep = (midx[a] == midx[b]) & (midx[m] == midx[n]) & (k_vals != 0)
    keys = midx[a[keep]] * len(mults) + midx[m[keep]]
    order = np.argsort(keys, kind="stable")
    blocks, starts = np.unique(keys[order], return_index=True)
    block_gain = {}
    for key, rows in zip(blocks.tolist(), np.split(np.flatnonzero(keep)[order], starts[1:])):
        big_a, big_m = divmod(key, len(mults))
        g_a, g_m = len(mults[big_a]), len(mults[big_m])
        block = np.zeros((g_a, g_a, g_m, g_m), dtype=complex)
        block[pos[a[rows]], pos[b[rows]], pos[m[rows]], pos[n[rows]]] = k_vals[rows]
        block_gain[(big_a, big_m)] = block
    block_escape = {big_a: kap[np.ix_(idx, idx)] for big_a, idx in enumerate(mults)}
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


def _eigenbasis_entries(rate_tensors: RateTensors, h_eig: np.ndarray):
    """(row, col, value) entries of the secular generator in the energy
    eigenbasis, with rho_ab at flat index a + d b (column stacking):

        d rho_ab = sum_(m n supported) K(a m, b n) rho_mn
                   + (X rho + rho X^+)_ab,   X = -1/2 kappa^T - i h_eig

    h_eig = 0 leaves the dissipator alone. The K scatter and the X terms
    can meet on one (row, col), so entries are to be summed, not assigned.
    """
    kap = rate_tensors.kappa
    dim = kap.shape[0]
    a, m, b, n = rate_tensors.index.T
    left = -0.5 * kap.T - 1j * h_eig  # X
    right = -0.5 * kap.T + 1j * h_eig  # X^+, kappa being hermitian
    # (X rho)_ic gets X[i, j] rho_jc and (rho X^+)_ci gets rho_cj X^+[j, i]
    i, j = np.nonzero((left != 0) | (right.T != 0))
    c = np.arange(dim)
    rows = (a + dim * b, (i[:, None] + dim * c).ravel(), (c + dim * i[:, None]).ravel())
    cols = (m + dim * n, (j[:, None] + dim * c).ravel(), (c + dim * j[:, None]).ravel())
    vals = (rate_tensors.K, np.repeat(left[i, j], dim), np.repeat(right[j, i], dim))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def kernel_superoperator_matrix(rate_tensors: RateTensors) -> np.ndarray:
    """Dissipator as a superoperator in the energy eigenbasis, built from the
    rate tensors alone:

        d rho_ab = sum_(m n supported) K(a m, b n) rho_mn
                   - 1/2 sum_a'' kappa(a'', a) rho_a''b
                   - 1/2 sum_b'' kappa(b, b'') rho_ab''

    that is, the K scatter plus rho -> -1/2 (kappa^T rho + rho kappa^T),
    in column stacking; the Bohr blocks hold the same entries, and it equals
    the standard-form dissipator rotated to the eigenbasis.
    """
    dim = rate_tensors.kappa.shape[0]
    rows, cols, vals = _eigenbasis_entries(rate_tensors, np.zeros((dim, dim)))
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)
    np.add.at(mat, (rows, cols), vals)
    return mat


@dataclass(frozen=True)
class BohrBlocks:
    """A secular generator on the energy eigenbasis, split into the blocks
    it never couples across.

    rho_eig = V^+ rho V with V = basis, and rho_eig[a, b] sits at flat index
    a + d b. The generator maps the coherence rho_mn into rho_ab only when
    the gaps w_n - w_m and w_b - w_a snap to the same Bohr frequency, so it
    is block diagonal with one block per Spectrum.bohr_index label; the
    populations form the zero-frequency block. groups holds one
    (index, matrices) pair per block size s: index (n, s) lists each
    block's flat indices in ascending order, and matrices (n, s, s) is the
    generator restricted to them.

    Presecular and hand-built generators are the one-block case: basis the
    identity and one group holding their d^2 x d^2 superoperator matrix.
    """

    basis: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]


def build_bohr_blocks(spectrum: Spectrum, rate_tensors: RateTensors,
                      h_eff) -> BohrBlocks:
    """The Bohr-frequency blocks of the secular generator with rate tensors
    rate_tensors and effective hamiltonian h_eff, without forming its
    d^2 x d^2 matrix.

    Each block gathers the K scatter, -1/2 (kappa^T rho + rho kappa^T) and
    -i [V^+ h_eff V, rho] on its coherences. The rotated h_eff is kept on
    the escape support, where the Lamb shift has its entries; elsewhere it
    holds rotation rounding. An entry that crosses labels, which only
    tolerance chaining of Bohr frequencies makes, merges the blocks of its
    two labels. Raises DimensionError before allocating when the largest
    block exceeds MAX_TENSOR_DIM.
    """
    dim = spectrum.dim
    v = spectrum.basis
    h_eig = np.where(rate_tensors.escape_support, v.conj().T @ h_eff @ v, 0.0)
    rows, cols, vals = _eigenbasis_entries(rate_tensors, h_eig)

    block = spectrum.bohr_index.ravel(order="F")  # label of rho_ab at a + d b
    cross = block[rows] != block[cols]
    if cross.any():
        block = _merge_labels(block, block[rows[cross]], block[cols[cross]])
    sizes = np.bincount(block)
    if sizes.max() > MAX_TENSOR_DIM:
        raise DimensionError(
            f"largest secular block would be {sizes.max()}x{sizes.max()}, "
            f"cap is {MAX_TENSOR_DIM}"
        )
    # blocks ranked by size, then label; flat indices by block, ascending
    ranked = np.argsort(sizes, kind="stable")
    ranked = ranked[sizes[ranked] > 0]
    rank = np.empty_like(sizes)
    rank[ranked] = np.arange(ranked.size)
    order = np.argsort(rank[block], kind="stable")
    size = sizes[ranked]
    first = np.cumsum(size) - size  # where each block starts in order
    pos = np.empty(dim * dim, dtype=int)  # place of each index in its block
    pos[order] = np.arange(dim * dim) - first[rank[block[order]]]
    # one buffer holds the blocks back to back, each row-major
    offset = np.cumsum(size * size) - size * size
    row_block = rank[block[rows]]
    flat = np.zeros(offset[-1] + size[-1] ** 2, dtype=complex)
    np.add.at(flat, offset[row_block] + pos[rows] * size[row_block] + pos[cols], vals)
    groups = []
    _, group_start, group_count = np.unique(size, return_index=True, return_counts=True)
    for lo, n in zip(group_start.tolist(), group_count.tolist()):
        s = int(size[lo])
        groups.append((order[first[lo]:first[lo] + n * s].reshape(n, s),
                       flat[offset[lo]:offset[lo] + n * s * s].reshape(n, s, s)))
    return BohrBlocks(basis=v, groups=tuple(groups))


def _merge_labels(label: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """label with the labels src[i] and dst[i] merged for every i, and
    transitively; merged labels take the smallest of their numbers.

    Every label points at the smallest label reached so far; each round
    lowers both ends of every pair to their common minimum and then jumps
    pointers, until no pair has ends that disagree.
    """
    root = np.arange(int(label.max()) + 1)
    while True:
        low = np.minimum(root[src], root[dst])
        new = root.copy()
        np.minimum.at(new, src, low)
        np.minimum.at(new, dst, low)
        new = new[new]
        if (new == root).all():
            return root[label]
        root = new


# ---------------------------------------------------------------------------
# end-to-end derivation


@dataclass(frozen=True)
class DeriveResult:
    """Everything produced by derive_generator.

    gammas is the (n, k, k) stack of Gamma(w) over w in
    bohr_frequencies(spectrum) that the generator and the rate tensors read.
    """

    generator: Generator
    spectrum: Spectrum
    eigenops: tuple[EigenOperatorSet, ...]
    rate_tensors: RateTensors
    pauli: PauliReduction
    gammas: np.ndarray
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
        eigenoperator_decomposition(a, spectrum) for a in ops
    )

    if mode not in ("secular", "presecular"):
        raise ValueError(f"unknown mode {mode!r}; expected 'secular' or 'presecular'")
    if mode == "presecular" and policy is None:
        raise ValueError("presecular mode requires a SecularPolicy with dt > 0")

    # Gamma once per Bohr frequency, coupled or not, in one stacked call: the
    # dissipator terms and K read this one table, and a table bath that
    # misses a Bohr frequency is rejected here
    gammas = gamma_matrix(bath, bohr_frequencies(spectrum).values)
    rt = build_rate_tensors(spectrum, ops, gammas)
    if mode == "secular":
        gen = build_standard_form(spectrum, eigenops, bath, gammas, rt)
    else:
        gen = build_presecular(spectrum, eigenops, bath, gammas, policy)
    red = pauli_equations(rt, spectrum)
    return DeriveResult(
        generator=gen,
        spectrum=spectrum,
        eigenops=eigenops,
        rate_tensors=rt,
        pauli=red,
        gammas=gammas,
        h_shift=h_shift,
    )
