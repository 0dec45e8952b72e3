"""Master-equation generators in standard form, plus rate tensors and Pauli reduction.

Both modes define one contracted standard form

    d rho / dt = -i [h_eff, rho] + G rho + rho G^+ + sum_p L_p rho R_p

whose sandwich factors Generator.pieces stacks as dense (P, d, d) arrays,
the form presecular and hand-built generators apply. The mode enters only
as data: a k x k coefficient matrix C(W) per transition frequency W and an
optional window F(W' - W). Stack the eigenoperators as A[W, a], let C act
on the channel index at each W and F on the frequency index,
(F Y)[W'] = sum_W F(W' - W) Y[W]; then

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

A secular generator from derive_generator forms no pieces to apply itself.
In the energy eigenbasis each A_c(W) is the rotated coupling A'_c = V^+ A_c V
on the gaps Spectrum.bohr_index labels W, so with rho' = V^+ rho V

    rhs(rho) = V [K' rho' + rho' K'^+ + S(rho')] V^+,

S the sandwich summed over the gap pairs that share a label and
K' = -i diag(w) - sum_W sum_ab W_ab(W) A'_a(W)^+ A'_b(W) (Generator.support,
one list of entries on the eigenbasis, which its dense superoperator is
also built from). Such a generator forms its pieces only when they are read.

The secular generator couples two coherences only when their gaps snap to
the same Bohr frequency, so it also splits into one block per Bohr
frequency, built from the rate tensors instead (build_bohr_blocks).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bath import delta_matrix, gamma_matrix, require_channel_count
from .linalg import MAX_TENSOR_DIM, DimensionError, as_hermitian, as_operator, hermitian_part
from .spectral import (
    STACK_CHUNK,
    EigenOperatorSet,
    Spectrum,
    bohr_frequencies,
    eigenoperator_decomposition,
)


# at this dimension and below a support-form rhs applies its dense d^2 x d^2
# user-basis matrix: one product over at most 4096 entries costs less than
# the four rotations, gather and scatter of the list
DENSE_RHS_DIM = 8


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
    channel has no weight at this frequency): a tuple for a hand-built term,
    and for a derived one a sequence that builds each matrix when it is read.
    gamma is the k x k rate matrix Gamma(omega), delta the matching
    frequency-shift matrix Delta(omega).
    """

    omega: float
    gamma: np.ndarray
    ops: Sequence[np.ndarray]
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
    SecularPolicy whose window weights its cross-frequency terms. A
    generator from derive_generator also carries the Spectrum and the
    eigenoperators it was derived with, which its pieces are built from; a
    secular one also carries its RateTensors, and applies itself on its
    support form, with bohr_blocks from the Spectrum and RateTensors.
    """

    h_eff: np.ndarray
    dissipator_terms: Sequence[DissipatorTerm]
    h_ls: np.ndarray | None = None
    policy: SecularPolicy | None = None
    spectrum: Spectrum | None = field(default=None, compare=False, repr=False)
    rate_tensors: RateTensors | None = field(default=None, compare=False, repr=False)
    eigenops: tuple[EigenOperatorSet, ...] | None = field(default=None, compare=False,
                                                          repr=False)

    @property
    def dim(self) -> int:
        return self.h_eff.shape[0]

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The (N, k, k) stack of C(W) over the terms and the (N, N) window
        F(W' - W), None for no window (see the module docstring)."""
        terms = self.dissipator_terms
        derived = isinstance(terms, DerivedTerms)
        if self.policy is None:
            gammas = terms.gammas if derived else np.array([t.gamma for t in terms],
                                                             dtype=complex)
            return 0.5 * gammas, None
        if derived:  # w_matrix of every term at once
            omegas, rates = terms.omegas, 0.5 * terms.gammas + 1j * terms.deltas
        else:
            omegas = np.array([t.omega for t in terms])
            rates = np.array([t.w_matrix() for t in terms], dtype=complex)
        return rates, coarse_graining_f(omegas[:, None] - omegas[None, :], self.policy.dt)

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contracted standard form (G, L, R), built once per generator
        when it is first read; rhs_function and generator_superoperator_matrix
        read it for a generator without a support form.

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
        a, m = _channel_contraction(terms, rates, self._eigenoperator_stack())
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

    def _eigenoperator_stack(self) -> np.ndarray:
        """The (N, k, d, d) stack of A_c(W) over the terms: for a derived
        generator each channel's kept pieces, STACK_CHUNK per stacked
        product, placed at their terms (zero elsewhere); otherwise the
        terms' ops."""
        terms = self.dissipator_terms
        if self.eigenops is None:
            return np.array([tuple(t.ops) for t in terms], dtype=complex)
        stack = np.zeros((len(terms), len(self.eigenops), self.dim, self.dim), dtype=complex)
        for c, eset in enumerate(self.eigenops):
            rows = np.searchsorted(terms.labels, eset.labels)
            for lo, (_, ops) in zip(range(0, rows.size, STACK_CHUNK), eset.chunks()):
                stack[rows[lo:lo + STACK_CHUNK], c] = ops
        return stack

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(rows, cols, values) of the secular generator on the energy
        eigenbasis, built once by _support_entries for every secular
        generator from derive_generator; None for presecular and hand-built
        ones."""
        if self.policy is not None or self.eigenops is None:
            return None
        return _support_entries(self.spectrum, self.eigenops, self.dissipator_terms)

    @cached_property
    def bohr_blocks(self) -> BohrBlocks | None:
        """The generator as its blocks on the energy eigenbasis, built once
        by build_bohr_blocks for every secular generator from
        derive_generator; None for presecular and hand-built ones."""
        if self.spectrum is None or self.rate_tensors is None:
            return None
        h_eig = np.diag(self.spectrum.frequencies) + self.rate_tensors.lamb_shift
        return build_bohr_blocks(self.spectrum, self.rate_tensors, h_eig)


def _channel_contraction(terms, rates, ops: np.ndarray):
    """Contract the (N, k, d, d) stack ops of the terms' eigenoperators
    A[W, a] over the source channel with the (N, k, k) stack rates of C(W),
    one per term: M[W, a] = sum_b C_ab(W) A_b(W). Returns A and M as
    (N k, d, d) stacks."""
    n_terms, n_ch, dim, _ = ops.shape
    flat = ops.reshape(n_terms, n_ch, dim * dim)
    return ops.reshape(-1, dim, dim), (rates @ flat).reshape(-1, dim, dim)


def _windowed(window, stack: np.ndarray) -> np.ndarray:
    """F Y for an (N k, d, d) stack Y; Y itself when the window F is None."""
    if window is None:
        return stack
    return (window @ stack.reshape(window.shape[0], -1)).reshape(stack.shape)


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_p x[p] @ y[p] for (P, d, d) stacks, as one (d, P d) @ (P d, d) GEMM."""
    n_p, dim, _ = x.shape
    return x.transpose(1, 0, 2).reshape(dim, n_p * dim) @ y.reshape(n_p * dim, dim)


class _TermOps(Sequence):
    """The eigenoperators A_c(omega) of one derived term, one per channel,
    each built when it is read: the zero matrix for a channel whose piece
    at omega the decomposition dropped."""

    def __init__(self, eigenops, omega: float):
        self._eigenops = eigenops
        self._omega = omega

    def __len__(self) -> int:
        return len(self._eigenops)

    def __getitem__(self, c):
        if isinstance(c, slice):
            return tuple(self[i] for i in range(len(self))[c])
        eset = self._eigenops[c]
        if self._omega in eset.terms:
            return eset.terms[self._omega]
        return np.zeros((eset.spectrum.dim,) * 2, dtype=complex)


class DerivedTerms(Sequence):
    """The dissipator terms of a derived generator, one per Bohr frequency
    where some channel keeps a piece, in ascending order, kept as stacks:
    labels (indices into bohr_set.values), omegas, and gammas and deltas,
    the (n, k, k) stacks of Gamma and Delta at them, all read-only. Each
    DissipatorTerm is built when it is read and is not stored; len() and
    the stacks build none."""

    def __init__(self, eigenops, labels, omegas, gammas, deltas):
        self._eigenops = eigenops
        self.labels, self.omegas, self.gammas, self.deltas = labels, omegas, gammas, deltas
        for stack in (labels, omegas, gammas, deltas):
            stack.flags.writeable = False

    def __len__(self) -> int:
        return self.labels.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        omega = float(self.omegas[i])
        return DissipatorTerm(omega, self.gammas[i], _TermOps(self._eigenops, omega),
                              self.deltas[i])

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)


def _collect_terms(spectrum, eigenops, bath, gammas, deltas) -> DerivedTerms:
    """Shared preamble of the two builders: the DerivedTerms of every Bohr
    frequency where some channel keeps a piece, with Gamma and Delta taken
    from the tables gammas and deltas (aligned with
    bohr_frequencies(spectrum))."""
    if not eigenops:
        raise ValueError("need at least one coupling channel")
    require_channel_count(bath, len(eigenops))
    dim = spectrum.dim
    for ch, eset in enumerate(eigenops):
        if eset.rotated.shape != (dim, dim):
            raise ValueError(
                f"channel {ch} eigenoperator has shape {eset.rotated.shape}, "
                f"expected {(dim, dim)}"
            )
        if eset.spectrum is not spectrum:
            raise ValueError(f"channel {ch} eigenoperators belong to another spectrum")

    labels = np.unique(np.concatenate([eset.labels for eset in eigenops]))
    return DerivedTerms(eigenops, labels, bohr_frequencies(spectrum).values[labels],
                        gammas[labels], deltas[labels])


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

    return Generator(h_eff=h_eff, dissipator_terms=terms, h_ls=h_ls,
                     spectrum=spectrum, rate_tensors=rate_tensors, eigenops=tuple(eigenops))


def build_presecular(spectrum, eigenops, bath, gammas, deltas,
                     policy: SecularPolicy) -> Generator:
    """Assemble the coarse-grained generator with cross-frequency terms.

    The frequency shift is not split out: each (W', W) pair enters through the
    half-Fourier matrix W(W) = Gamma(W)/2 + i Delta(W), and the free part of
    h_eff is the bare system hamiltonian. gammas, deltas as for build_standard_form.
    """
    terms = _collect_terms(spectrum, eigenops, bath, gammas, deltas)
    return Generator(h_eff=spectrum.hamiltonian, dissipator_terms=terms,
                     policy=policy, spectrum=spectrum, eigenops=tuple(eigenops))


def rhs_function(g: Generator):
    """Return rhs(rho) as a reusable closure: on the support form for a
    secular generator from derive_generator, over the contracted pieces
    otherwise."""
    if g.support is not None:
        if g.dim <= DENSE_RHS_DIM:
            return _dense_rhs(_support_superoperator(g.spectrum.basis, *g.support))
        return _support_rhs(g.spectrum.basis, *g.support)
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


def _support_rhs(v, rows, cols, vals):
    """rhs(rho) = V out V^+ with out_r = sum over the entries (r, c, x) of
    x rho'_c, rho' = V^+ rho V, flat indices in column stacking.

    The row-major (V^+ rho V)^T = V^T rho^T conj(V) is rho' column-stacked,
    and one real bincount sums the real and imaginary parts of the entries
    into the interleaved parts of out."""
    dim = v.shape[0]
    v_t, v_conj, v_dag = v.T, v.conj(), v.conj().T
    parts = (2 * rows[:, None] + np.arange(2)).ravel()
    size = 2 * dim * dim

    def rhs(rho):
        rho_t = v_t @ np.asarray(rho, dtype=complex).T @ v_conj
        flow = (vals * rho_t.ravel()[cols]).view(float)
        out_t = np.bincount(parts, flow, size).view(complex).reshape(dim, dim)
        return v @ out_t.T @ v_dag

    return rhs


def _dense_rhs(mat: np.ndarray):
    """rhs(rho) = unvec(mat vec(rho)), column stacking, one matrix-vector
    product."""
    dim = math.isqrt(mat.shape[0])

    def rhs(rho):
        y = mat @ np.asarray(rho, dtype=complex).ravel(order="F")
        return y.reshape(dim, dim, order="F")

    return rhs


def _support_superoperator(v, rows, cols, vals) -> np.ndarray:
    """The d^2 x d^2 column-stacking matrix of the support form in the user
    basis: the entries summed into the eigenbasis matrix M, then
    (conj(V) x V) M (V^T x V^+), since vec(V X V^+) = (conj(V) x V) vec(X)."""
    dim = v.shape[0]
    mat = np.zeros(dim ** 4, dtype=complex)
    np.add.at(mat, rows * (dim * dim) + cols, vals)
    rot = np.kron(v.conj(), v)
    return rot @ mat.reshape(dim * dim, dim * dim) @ rot.conj().T


def apply_rhs(g: Generator, rho) -> np.ndarray:
    """One-shot rhs evaluation; use rhs_function for repeated calls."""
    return rhs_function(g)(rho)


def generator_superoperator_matrix(g: Generator) -> np.ndarray:
    """Dense d^2 x d^2 matrix of the generator in column-stacking convention,
    from its support form when it has one and from its pieces otherwise.

    Raises DimensionError before allocating when d^2 exceeds MAX_TENSOR_DIM.
    """
    dim = g.dim
    if dim * dim > MAX_TENSOR_DIM:
        raise DimensionError(
            f"superoperator would be {dim * dim}x{dim * dim}, "
            f"cap is {MAX_TENSOR_DIM}"
        )
    if g.support is not None:
        return _support_superoperator(g.spectrum.basis, *g.support)
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
    if sizes.max(initial=0) > MAX_TENSOR_DIM:
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


def build_rate_tensors(spectrum: Spectrum, rotated, gammas, deltas) -> RateTensors:
    """Gain tensor K(a m, b n) = sum_cx A_c[a, m] Gamma_xc(w) A_x[b, n]^*,
    escape matrix kappa and Lamb shift on the secular support.

    rotated: the coupling operators in the energy eigenbasis, V^+ A_c V,
    one per channel (EigenOperatorSet.rotated). gammas, deltas: (n, k, k)
    stacks of Gamma(w), Delta(w) over w in bohr_frequencies(spectrum). A
    gain tensor, escape matrix or Lamb shift that overflows raises
    ValueError, naming Gamma or Delta.
    """
    dim = spectrum.dim
    e = np.array(rotated).reshape(len(rotated), dim * dim)
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


def _eigenbasis_entries(k_vals, index, left, right):
    """(row, col, value) entries of a secular generator in the energy
    eigenbasis, with rho_ab at flat index a + d b (column stacking):

        d rho_ab = sum_s k_vals[s] rho_mn + (X rho + rho Y)_ab

    for the quadruples index[s] = (a, m, b, n), with X = left and Y = right
    (d x d). The scatter and the X and Y terms can meet on one (row, col),
    so entries are to be summed, not assigned.
    """
    dim = left.shape[0]
    a, m, b, n = index
    # (X rho)_ic gets X[i, j] rho_jc and (rho Y)_ci gets rho_cj Y[j, i]
    i, j = np.nonzero((left != 0) | (right.T != 0))
    c = np.arange(dim)
    rows = (a + dim * b, (i[:, None] + dim * c).ravel(), (c + dim * i[:, None]).ravel())
    cols = (m + dim * n, (j[:, None] + dim * c).ravel(), (c + dim * j[:, None]).ravel())
    vals = (k_vals, np.repeat(left[i, j], dim), np.repeat(right[j, i], dim))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _kernel_entries(rate_tensors: RateTensors, h_eig: np.ndarray):
    """_eigenbasis_entries of the rate tensors with X = -1/2 kappa^T - i h_eig
    and Y = X^+, kappa being hermitian: d rho_ab gains
    sum_(m n supported) K(a m, b n) rho_mn. h_eig = 0 leaves the dissipator
    alone."""
    kap_t = rate_tensors.kappa.T
    return _eigenbasis_entries(rate_tensors.K, rate_tensors.index.T,
                               -0.5 * kap_t - 1j * h_eig, -0.5 * kap_t + 1j * h_eig)


def _support_entries(spectrum: Spectrum, eigenops, terms):
    """_eigenbasis_entries of the secular generator, built from the rotated
    couplings A'_c (EigenOperatorSet.rotated) and the coefficients of the
    terms, not from RateTensors:

        S(rho)_ab = sum 2 C_xc(w) A'_c[a, m] A'_x[b, n]^* rho_mn,

    C = Gamma/2, over the gap pairs (a m), (b n) that snap to one Bohr
    frequency w, with the entries of a channel's dropped pieces zero; and
    X = K' = -i diag(w_a) - sum_w sum_xc W_xc(w) A'_x(w)^+ A'_c(w),
    W = Gamma/2 + i Delta, read off the pairs with a = b, and Y = K'^+.
    Gaps where every channel is zero are let go before pairing, so the
    sandwich costs the couplings' nonzeros.
    """
    dim, values = spectrum.dim, spectrum.bohr_set.values
    n_ch = len(eigenops)
    label = spectrum.bohr_index.ravel()  # flat gap index a d + m -> Bohr label
    kept = np.zeros((n_ch, values.size), dtype=bool)
    for c, eset in enumerate(eigenops):
        kept[c, eset.labels] = True
    e = np.where(kept[:, label], np.reshape([eset.rotated for eset in eigenops], (n_ch, -1)),
                 0.0)
    gaps = np.flatnonzero(e.any(axis=0))
    e, label = e[:, gaps], label[gaps]
    s, t = _secular_support(label)
    a, m = np.divmod(gaps[s], dim)
    b, n = np.divmod(gaps[t], dim)
    # 2 C(w) = Gamma(w) and W(w) per Bohr label, zero where no term sits
    coef = np.zeros((values.size, 2, n_ch, n_ch), dtype=complex)
    coef[terms.labels, 0] = terms.gammas
    coef[terms.labels, 1] = 0.5 * terms.gammas + 1j * terms.deltas
    esc = a == b
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.einsum("cp,pyxc->pyx", e, coef[label])  # sum_c 2 C_xc A'_c, sum_c W_xc A'_c
        sandwich = np.einsum("sx,xs->s", u[s, 0], e[:, t].conj())
        k_op = np.diag(-1j * spectrum.frequencies)
        np.add.at(k_op, (n[esc], m[esc]),
                  -np.einsum("sx,xs->s", u[s[esc], 1], e[:, t[esc]].conj()))
    return _eigenbasis_entries(sandwich, (a, m, b, n), k_op, k_op.conj().T)


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
    rows, cols, vals = _kernel_entries(rate_tensors, np.zeros((dim, dim)))
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
    rows, cols, vals = _kernel_entries(rate_tensors, h_eig)

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
    rt = build_rate_tensors(spectrum, [eset.rotated for eset in eigenops], gammas, deltas)
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
