"""System-side spectral analysis: frequency multiplets and eigenoperators.

The hamiltonian H_A = sum_a w_a |a><a| is decomposed into degenerate multiplets
(classes of eigenfrequencies equal within a tolerance). A coupling operator A
splits into eigenoperators A(Omega), one per Bohr frequency Omega = w_b - w_a,
holding exactly the matrix elements <a|A|b> that connect states separated by
Omega. These satisfy [H_A, A(Omega)] = -Omega A(Omega) and sum back to A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import as_operator, hermitian_eigendecomposition

# entries below this magnitude do not earn an eigenoperator of their own
NEGLIGIBLE_ENTRY = 1e-14
# d x d eigenoperator pieces one stacked product handles at once
STACK_CHUNK = 32


@dataclass(frozen=True)
class Spectrum:
    """Eigenstructure of H_A with degeneracy bookkeeping.

    frequencies are ascending eigenvalues; basis columns are the matching
    eigenvectors (operators entering eigenoperator() may be given in the user
    basis, the rotation is kept here). multiplets groups eigenbasis indices by
    equal frequency; multiplet_frequencies holds one representative (mean) per
    group.
    """

    dim: int
    frequencies: np.ndarray
    basis: np.ndarray
    multiplets: tuple[tuple[int, ...], ...]
    multiplet_frequencies: np.ndarray
    multiplet_index: np.ndarray  # eigenbasis index -> multiplet number
    degeneracy_tol: float
    warnings: tuple[str, ...] = field(default=())

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.multiplets)

    def representative_frequencies(self) -> np.ndarray:
        """Per-basis-state frequency, snapped to its multiplet representative."""
        return self.multiplet_frequencies[self.multiplet_index]

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """H_A = V diag(frequencies) V^+ rebuilt from the eigendecomposition
        and hermitised, computed once and shared read-only."""
        h = (self.basis * self.frequencies) @ self.basis.conj().T
        h = 0.5 * (h + h.conj().T)
        h.flags.writeable = False
        return h

    @cached_property
    def bohr_set(self) -> BohrFrequencySet:
        """All differences of multiplet frequencies, deduplicated and
        mirrored, computed once and shared read-only."""
        reps = self.multiplet_frequencies
        tol = self.degeneracy_tol
        diffs = (reps[:, None] - reps[None, :]).ravel()
        diffs = np.sort(diffs[diffs > tol])
        # single linkage on the sorted gaps; each cluster's mean is one np.mean
        # (a lone gap is its own mean)
        starts = np.flatnonzero(np.diff(diffs, prepend=-np.inf) > tol)
        positives = diffs[starts]
        sizes = np.diff(np.append(starts, diffs.size))
        for i in np.flatnonzero(sizes > 1).tolist():
            positives[i] = np.mean(diffs[starts[i]:starts[i] + sizes[i]])
        values = np.concatenate((-positives[::-1], [0.0], positives))
        values.flags.writeable = False
        return BohrFrequencySet(values=values)

    @cached_property
    def bohr_index(self) -> np.ndarray:
        """(d, d) index into bohr_set.values of the Bohr frequency nearest
        each eigenbasis gap w_m - w_a, computed once and shared read-only.

        The values are sorted, so the nearest one is found by counting the
        midpoints below the gap; an exact tie goes to the lower value.
        """
        values = self.bohr_set.values
        r = self.representative_frequencies()
        index = np.searchsorted(0.5 * (values[1:] + values[:-1]), r[None, :] - r[:, None])
        index.flags.writeable = False
        return index


@dataclass(frozen=True)
class BohrFrequencySet:
    """Sorted distinct Bohr frequencies Omega = w_M - w_N, with 0, negation-closed."""

    values: np.ndarray


@dataclass(frozen=True)
class EigenOperatorSet:
    """Map Omega -> A_alpha(Omega) for one coupling channel, user basis."""

    terms: dict[float, np.ndarray]

    def omegas(self) -> list[float]:
        return sorted(self.terms.keys())


def build_spectrum(h_a, degeneracy_tol: float | None = None) -> Spectrum:
    """Diagonalize H_A and cluster its eigenfrequencies into multiplets.

    Clustering is single-linkage on the sorted eigenvalues: a gap larger than
    degeneracy_tol starts a new multiplet. A chain of sub-tolerance gaps that
    spans more than the tolerance in total is clustered anyway and recorded as
    a warning.
    """
    h_a = as_operator(h_a, "h_a")
    w, v = hermitian_eigendecomposition(h_a)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * float(np.abs(w).max()) if w.size else 0.0
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > degeneracy_tol:
            groups.append([i])
        else:
            groups[-1].append(i)
    warnings = []
    for g in groups:
        spread = float(w[g[-1]] - w[g[0]])
        if spread > degeneracy_tol:
            warnings.append(
                f"multiplet around {float(np.mean(w[g])):.6g} chains over a spread "
                f"{spread:.3e} larger than the tolerance {degeneracy_tol:.3e}"
            )
    reps = np.array([float(np.mean(w[g])) for g in groups])
    index = np.empty(len(w), dtype=int)
    for n, g in enumerate(groups):
        index[g] = n
    return Spectrum(
        dim=len(w),
        frequencies=w,
        basis=v,
        multiplets=tuple(tuple(g) for g in groups),
        multiplet_frequencies=reps,
        multiplet_index=index,
        degeneracy_tol=float(degeneracy_tol),
        warnings=tuple(warnings),
    )


def bohr_frequencies(s: Spectrum) -> BohrFrequencySet:
    """The spectrum's Bohr frequencies, its cached bohr_set."""
    return s.bohr_set


def eigenbasis_operator(a_op, s: Spectrum) -> np.ndarray:
    """V^+ a_op V: a user-basis operator in the eigenbasis of the spectrum."""
    a_op = as_operator(a_op, "a_op")
    if a_op.shape[0] != s.dim:
        raise ValueError(f"operator dim {a_op.shape[0]} does not match spectrum dim {s.dim}")
    return s.basis.conj().T @ a_op @ s.basis


def _bohr_piece(a_eig: np.ndarray, s: Spectrum, k: int) -> np.ndarray:
    """The eigenbasis elements of a_eig whose gap snaps to Bohr frequency k."""
    return a_eig * (s.bohr_index == k)


def eigenoperator(a_op, s: Spectrum, omega: float) -> np.ndarray:
    """The component of a_op at the Bohr frequency omega, in the user basis.

    This is the piece eigenoperator_decomposition assigns to the Bohr
    frequency within the spectral matching tolerance of omega (the nearest
    one): the elements <a|A|b> whose gap w_b - w_a snaps to it. An omega
    matching no Bohr frequency yields the zero matrix.
    """
    a_eig = eigenbasis_operator(a_op, s)
    values = s.bohr_set.values
    k = int(np.argmin(np.abs(values - omega)))
    if abs(values[k] - omega) > s.degeneracy_tol:
        return np.zeros_like(a_eig)
    v = s.basis
    return v @ _bohr_piece(a_eig, s, k) @ v.conj().T


def eigenoperator_decomposition(a_op, s: Spectrum) -> EigenOperatorSet:
    """Split a_op into eigenoperators over the full Bohr frequency set.

    Every matrix element is assigned to its nearest Bohr frequency, so the
    pieces always sum back to a_op exactly; near-zero pieces (all entries below
    1e-14) are dropped. The kept pieces are masked out of the rotated a_op and
    rotated back STACK_CHUNK at a time, one stacked product per chunk. Each
    piece is kept as its own d x d array: small blocks reuse memory that
    earlier work freed, where one (n, d, d) block of all pieces (5 MB at
    d = 24) raised the peak resident size of a benchmark pass by as much.
    """
    a_eig = eigenbasis_operator(a_op, s)
    label = s.bohr_index
    peak = np.zeros(s.bohr_set.values.size)
    np.maximum.at(peak, label.ravel(), np.abs(a_eig).ravel())
    kept = np.flatnonzero(peak >= NEGLIGIBLE_ENTRY)
    v = s.basis
    v_dag = v.conj().T
    rotated = []
    for lo in range(0, kept.size, STACK_CHUNK):
        pieces = a_eig * (label == kept[lo:lo + STACK_CHUNK, None, None])
        rotated.extend(piece.copy() for piece in (v @ pieces) @ v_dag)
    return EigenOperatorSet(terms=dict(zip(s.bohr_set.values[kept].tolist(), rotated)))
