"""Master-equation generators in standard form, plus rate tensors and Pauli reduction.

Both modes build one contracted standard form

    d rho / dt = -i [h_eff, rho] + G rho + rho G^+ + sum_p L_p rho R_p

with the sandwich factors stored as stacked (P, d, d) arrays. The mode
enters only as data: a k x k coefficient matrix C(W) per transition
frequency W and an optional window F(W' - W). Stack the eigenoperators as
A[W, a], let C act on the channel index at each W and F on the frequency
index, (F Y)[W'] = sum_W F(W' - W) Y[W]; then

    M = F (C A),   L = M + C^+ (F A),   R = A^+,   G = -sum A^+ M.

L folds in the mirror (A, M^+) of each pair (M, A^+), since F is hermitian,
F(x)^* = F(-x): N frequencies and k channels give at most P = N k pairs.

The secular generator has no window and C = Gamma/2, which is exactly
hermitian, so L = 2 M = Gamma A. Its frequency shift h_ls, from
RateTensors.lamb_shift, is kept in h_eff = h_a + h_ls. The presecular
generator takes F = coarse_graining_f over the window dt of its
SecularPolicy and C = W = Gamma/2 + i Delta, so its frequency shift sits
inside G and h_eff is the bare system hamiltonian; as dt grows it tends to
the secular generator.

In the energy eigenbasis the secular generator couples two coherences only
when their gaps snap to the same Bohr frequency, so it splits into one block
per Bohr frequency, built from the rate tensors (build_bohr_blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bath import delta_matrix, gamma_matrix, require_channel_count
from .linalg import MAX_TENSOR_DIM, DimensionError, as_hermitian, as_operator, hermitian_part
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
    scalars or arrays of x. Where x dt / 2 overflows, |F| <= 2 / |x dt| is
    below 1e-308 and F is 0, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = 0.5 * np.asarray(x, dtype=float) * float(dt)
        f = np.exp(1j * u) * np.sinc(u / np.pi)
    return np.where(np.isnan(f) & ~np.isnan(u), 0.0, f)[()]


@dataclass(frozen=True)
class SecularPolicy:
    """The coarse-graining window dt > 0 of the presecular generator, which
    weights every transition-frequency pair (W', W) by
    coarse_graining_f(W' - W, dt)."""

    dt: float

    def __post_init__(self):
        if self.dt is None or not 0 < self.dt < math.inf:
            raise ValueError("presecular policy requires a finite dt > 0")


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

    policy None makes it secular; a presecular generator holds the
    SecularPolicy whose window weights its cross-frequency terms. A secular
    generator from derive_generator also carries the Spectrum and
    RateTensors it was derived with, for bohr_blocks.
    """

    h_eff: np.ndarray
    dissipator_terms: tuple[DissipatorTerm, ...]
    h_ls: np.ndarray | None = None
    policy: SecularPolicy | None = None
    spectrum: Spectrum | None = field(default=None, compare=False, repr=False)
    rate_tensors: RateTensors | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.h_eff.shape[0]

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The (N, k, k) stack of C(W) over the terms and the (N, N) window
        F(W' - W), None for no window (see the module docstring)."""
        terms = self.dissipator_terms
        if self.policy is None:
            return 0.5 * np.array([t.gamma for t in terms], dtype=complex), None
        omegas = np.array([t.omega for t in terms])
        return (np.array([t.w_matrix() for t in terms], dtype=complex),
                coarse_graining_f(omegas[:, None] - omegas[None, :], self.policy.dt))

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contracted standard form (G, L, R), built once per generator.

        G is d x d; L and R are (P, d, d) stacks of the sandwich factors, with
        pairs that vanish identically dropped. R is C-contiguous; L is a view
        of a C-contiguous (d, P, d) buffer that holds its rows (i, p, j), so
        the sandwich sum_p L_p rho R_p is two flat GEMMs (rhs_function).
        """
        dim = self.dim
        terms = self.dissipator_terms
        if not terms:
            empty = np.zeros((0, dim, dim), dtype=complex)
            return np.zeros((dim, dim), dtype=complex), empty, empty
        rates, window = self._coefficients()
        # M = F (C A): channels first, then the window over the source frequency
        a, m = _channel_contraction(terms, rates, terms[0].channel_count, dim)
        m = _windowed(window, m)
        # the mirror pairs fold into L = M + C^+ (F A); with no window and C
        # exactly hermitian (a secular C = Gamma/2) that term is M itself
        rates_dag = rates.conj().transpose(0, 2, 1)
        if window is None and np.array_equal(rates_dag, rates):
            mirror = m
        else:  # F A is let go as soon as C^+ has acted on it
            mirror = _windowed(window, a).reshape(rates.shape[0], rates.shape[1], -1)
            mirror = (rates_dag @ mirror).reshape(m.shape)
        a_dag = np.conjugate(a, out=a).transpose(0, 2, 1)  # A is read as A^+ from here
        big_g = -_sum_of_products(a_dag, m)
        m += mirror
        del mirror
        keep = np.flatnonzero((np.abs(m).max(axis=(1, 2)) > 0.0)
                              & (np.abs(a_dag).max(axis=(1, 2)) > 0.0))
        # every rhs call reads right row-major and left by rows (i, p, j):
        # the kept A^+ are gathered straight into a C-contiguous stack (np.take
        # would first copy the transposed view whole), A is let go, and the
        # kept M are gathered straight into their rows
        cols = np.arange(dim)
        right = a[keep[:, None, None], cols, cols[:, None]]
        del a, a_dag
        left_rows = m[keep[None, :, None], cols[:, None, None], cols]
        return big_g, left_rows.transpose(1, 0, 2), right

    @cached_property
    def bohr_blocks(self) -> BohrBlocks | None:
        """The generator as its blocks on the energy eigenbasis, built once
        by build_bohr_blocks for every secular generator from
        derive_generator; None for presecular and hand-built ones."""
        if self.spectrum is None or self.rate_tensors is None:
            return None
        h_eig = np.diag(self.spectrum.frequencies) + self.rate_tensors.lamb_shift
        return build_bohr_blocks(self.spectrum, self.rate_tensors, h_eig)


def _channel_contraction(terms, rates, n_ch: int, dim: int):
    """Stack the eigenoperators as A[W, a] and contract them over the source
    channel with the (N, k, k) stack rates of C(W), one per term:
    M[W, a] = sum_b C_ab(W) A_b(W). Returns A and M as (N k, d, d) stacks."""
    ops = np.array([t.ops for t in terms], dtype=complex).reshape(-1, n_ch, dim * dim)
    return ops.reshape(-1, dim, dim), (rates @ ops).reshape(-1, dim, dim)


def _windowed(window, stack: np.ndarray) -> np.ndarray:
    """F Y for an (N k, d, d) stack Y; Y itself when the window F is None."""
    if window is None:
        return stack
    return (window @ stack.reshape(window.shape[0], -1)).reshape(stack.shape)


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_p x[p] @ y[p] for (P, d, d) stacks, as one (d, P d) @ (P d, d) GEMM."""
    n_p, dim, _ = x.shape
    return x.transpose(1, 0, 2).reshape(dim, n_p * dim) @ y.reshape(n_p * dim, dim)


def _collect_terms(spectrum, eigenops, bath, gammas, deltas):
    """Shared preamble of the two builders: channel-aligned eigenoperators
    grouped by transition frequency, with Gamma and Delta read from the
    tables gammas and deltas (aligned with bohr_frequencies(spectrum))."""
    if not eigenops:
        raise ValueError("need at least one coupling channel")
    require_channel_count(bath, len(eigenops))
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
    zero = np.zeros((dim, dim), dtype=complex)
    terms = []
    for w in omegas:
        ops = tuple(
            np.asarray(eset.terms.get(w, zero), dtype=complex) for eset in eigenops
        )
        terms.append(DissipatorTerm(w, gammas[row[w]], ops, deltas[row[w]]))
    return terms


def build_standard_form(spectrum, eigenops, bath, gammas, deltas,
                        rate_tensors: RateTensors) -> Generator:
    """Assemble the secular generator: Lindblad dissipator plus frequency shift.

    gammas, deltas: (n, k, k) stacks of Gamma(w), Delta(w) over w in
    bohr_frequencies(spectrum). rate_tensors: the RateTensors built from them;
    h_ls is their Lamb shift in the user basis, and the generator keeps them
    with the spectrum for its eigenbasis blocks. An h_eff = H_A + h_ls that
    overflows raises ValueError, naming Delta.
    """
    terms = _collect_terms(spectrum, eigenops, bath, gammas, deltas)
    v, shift = spectrum.basis, rate_tensors.lamb_shift
    # a zero Lamb shift is not rotated, so h_eff keeps the bytes of h_a + 0
    with np.errstate(over="ignore", invalid="ignore"):
        h_ls = hermitian_part(v @ shift @ v.conj().T) if shift.any() else np.zeros_like(shift)
        h_eff = hermitian_part(spectrum.hamiltonian + h_ls)
    if not np.isfinite(h_eff).all():
        raise ValueError("Delta: the effective hamiltonian H_A + h_ls overflows")

    return Generator(h_eff=h_eff, dissipator_terms=tuple(terms), h_ls=h_ls,
                     spectrum=spectrum, rate_tensors=rate_tensors)


def build_presecular(spectrum, eigenops, bath, gammas, deltas,
                     policy: SecularPolicy) -> Generator:
    """Assemble the coarse-grained generator with cross-frequency terms.

    The frequency shift is not split out: each (W', W) pair enters through the
    half-Fourier matrix W(W) = Gamma(W)/2 + i Delta(W), and the free part of
    h_eff is the bare system hamiltonian. gammas, deltas as for build_standard_form.
    """
    terms = _collect_terms(spectrum, eigenops, bath, gammas, deltas)
    return Generator(h_eff=spectrum.hamiltonian, dissipator_terms=tuple(terms),
                     policy=policy)


def rhs_function(g: Generator):
    """Return rhs(rho) as a reusable closure over the contracted pieces."""
    big_g, left, right = g.pieces
    # -i [H, rho] + G rho + rho G^+ = K rho + rho K^+ with K = G - i H
    k_op = big_g - 1j * g.h_eff
    k_dag = k_op.conj().T
    # sum_p L_p rho R_p: the rows (i, p) of L times rho, read as (d, P d),
    # times R read as (P d, d); both reshapes are views
    dim = g.dim
    left_rows = left.transpose(1, 0, 2).reshape(-1, dim)
    right_rows = right.reshape(-1, dim)

    def rhs(rho):
        rho = np.asarray(rho, dtype=complex)
        return k_op @ rho + rho @ k_dag + (left_rows @ rho).reshape(dim, -1) @ right_rows

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
    lamb_shift = V^+ h_ls V is kappa^T with Delta in place of Gamma.
    pauli_equations reduces them to population and coherence rates.
    """

    K: np.ndarray
    index: np.ndarray
    kappa: np.ndarray
    lamb_shift: np.ndarray

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


def build_rate_tensors(spectrum: Spectrum, system_ops, gammas, deltas) -> RateTensors:
    """Gain tensor K(a m, b n) = sum_cx A_c[a, m] Gamma_xc(w) A_x[b, n]^*,
    escape matrix kappa and Lamb shift on the secular support.

    system_ops: the coupling operators, one per channel, in the user basis.
    gammas, deltas: (n, k, k) stacks of Gamma(w), Delta(w) over w in
    bohr_frequencies(spectrum). A gain tensor, escape matrix or Lamb shift
    that overflows raises ValueError, naming Gamma or Delta.
    """
    dim = spectrum.dim
    e = np.array([eigenbasis_operator(a, spectrum)
                  for a in system_ops]).reshape(len(system_ops), dim * dim)
    label = spectrum.bohr_index.ravel()  # flat gap index a d + m -> Bohr index
    p, q = _secular_support(label)
    a, m = np.divmod(p, dim)
    b, n = np.divmod(q, dim)
    esc = a == b
    kap = np.zeros((dim, dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.einsum("cp,pxc->px", e, np.asarray(gammas)[label])  # sum_c A_c Gamma_xc
        k_vals = np.einsum("sx,xs->s", u[p], e[:, q].conj())
        np.add.at(kap, (m[esc], n[esc]), k_vals[esc])
    if not (np.isfinite(k_vals).all() and np.isfinite(kap).all()):
        raise ValueError("Gamma: the gain tensor K or its escape sum kappa overflows")
    lamb = np.zeros((dim, dim), dtype=complex)
    if np.any(deltas):  # the escape sum again, Delta for Gamma, transposed
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.einsum("cp,pxc->px", e, np.asarray(deltas)[label])
            ls_vals = np.einsum("sx,xs->s", u[p[esc]], e[:, q[esc]].conj())
            np.add.at(lamb, (n[esc], m[esc]), ls_vals)
    lamb = hermitian_part(lamb)
    if not np.isfinite(lamb).all():
        raise ValueError("Delta: the escape sum of the Lamb shift overflows")
    return RateTensors(K=k_vals, index=np.stack([a, m, b, n], axis=1), kappa=kap,
                       lamb_shift=lamb)


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

    @property
    def flags(self) -> tuple[str, ...]:
        """degenerate-multiplets and shared-transition-frequency, where they hold."""
        return (("degenerate-multiplets",) * self.degenerate
                + ("shared-transition-frequency",) * (not self.all_gaps_distinct))


def pauli_equations(rate_tensors: RateTensors, spectrum: Spectrum) -> PauliReduction:
    """Reduce the rate tensors to population and coherence equations."""
    dim = spectrum.dim
    k_vals, kap = rate_tensors.K, rate_tensors.kappa
    a, m, b, n = rate_tensors.index.T
    degenerate = any(g > 1 for g in spectrum.degeneracies)
    # M multiplets have distinct pair gaps when each is a Bohr frequency of its own
    n_mult = len(spectrum.multiplets)
    gaps_ok = spectrum.bohr_set.values.size == n_mult * (n_mult - 1) + 1

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

    def apply(self, rhos) -> np.ndarray:
        """The generator applied to a (n, d, d) stack of operators in the
        user basis, block by block."""
        v = self.basis
        # row k of the row-major transposes holds rho_eig at a + d b
        y = (v.conj().T @ rhos @ v).transpose(0, 2, 1).reshape(len(rhos), -1)
        out = np.empty_like(y)
        for index, mats in self.groups:
            out[:, index] = (mats @ y[:, index, None])[..., 0]
        return v @ out.reshape(rhos.shape).transpose(0, 2, 1) @ v.conj().T


def build_bohr_blocks(spectrum: Spectrum, rate_tensors: RateTensors,
                      h_eig) -> BohrBlocks:
    """The Bohr-frequency blocks of the secular generator with rate tensors
    rate_tensors and effective hamiltonian h_eig, given in the energy
    eigenbasis, without forming its d^2 x d^2 matrix.

    Each block gathers the K scatter, -1/2 (kappa^T rho + rho kappa^T) and
    -i [h_eig, rho] on its coherences. An entry that crosses labels, which
    only tolerance chaining of Bohr frequencies makes, merges the blocks of
    its two labels. Raises DimensionError before allocating when the
    largest block exceeds MAX_TENSOR_DIM.
    """
    dim = spectrum.dim
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
    return BohrBlocks(basis=spectrum.basis, groups=tuple(groups))


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
    the correction that was added to h_a). mode and policy say the same
    thing twice: presecular needs its SecularPolicy, and secular refuses one
    rather than ignore its window.
    """
    from .bath import FiniteBath, center_couplings
    from .spectral import build_spectrum

    if mode not in ("secular", "presecular"):
        raise ValueError(f"unknown mode {mode!r}; expected 'secular' or 'presecular'")
    if mode == "presecular" and policy is None:
        raise ValueError("presecular mode requires a SecularPolicy with dt > 0")
    if mode == "secular" and policy is not None:
        raise ValueError("secular mode takes no SecularPolicy; its window is presecular")

    h_a = as_hermitian(h_a, "system hamiltonian")
    ops = [as_operator(a, f"couplings[{i}]") for i, a in enumerate(couplings)]
    require_channel_count(bath, len(ops))

    h_shift = None
    if isinstance(bath, FiniteBath):
        bath, shift = center_couplings(bath, ops)
        if np.abs(shift).max() > 0.0:
            h_shift = shift
            h_a = hermitian_part(h_a + shift)

    spectrum = build_spectrum(h_a, degeneracy_tol=degeneracy_tol)
    eigenops = tuple(
        eigenoperator_decomposition(a, spectrum) for a in ops
    )

    # Gamma and Delta once per Bohr frequency, coupled or not, one stacked
    # call each: the terms and the rate tensors read these tables, and a
    # table bath that misses a Bohr frequency is rejected here
    omegas = bohr_frequencies(spectrum).values
    gammas, deltas = gamma_matrix(bath, omegas), delta_matrix(bath, omegas)
    rt = build_rate_tensors(spectrum, ops, gammas, deltas)
    if policy is None:
        gen = build_standard_form(spectrum, eigenops, bath, gammas, deltas, rt)
    else:
        gen = build_presecular(spectrum, eigenops, bath, gammas, deltas, policy)
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
