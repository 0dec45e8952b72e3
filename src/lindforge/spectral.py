"""System-side spectral analysis: frequency multiplets and eigenoperators.

The hamiltonian H_A = sum_a w_a |a><a| is decomposed into degenerate multiplets
(classes of eigenfrequencies equal within a tolerance). A coupling operator A
splits into eigenoperators A(Omega), one per Bohr frequency Omega = w_b - w_a,
holding exactly the matrix elements <a|A|b> that connect states separated by
Omega. These satisfy [H_A, A(Omega)] = -Omega A(Omega) and sum back to A.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (as_operator, cluster_means, cluster_starts, hermitian_eigendecomposition,
                     hermitian_part)

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
        h = hermitian_part((self.basis * self.frequencies) @ self.basis.conj().T)
        h.flags.writeable = False
        return h

    @cached_property
    def bohr_set(self) -> BohrFrequencySet:
        """All differences of multiplet frequencies, deduplicated and
        mirrored, computed once and shared read-only."""
        reps = self.multiplet_frequencies
        diffs = (reps[:, None] - reps[None, :]).ravel()
        diffs = np.sort(diffs[diffs > self.degeneracy_tol])
        positives = cluster_means(diffs, cluster_starts(diffs, self.degeneracy_tol))
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


@dataclass(frozen=True, eq=False)
class EigenOperatorSet:
    """One coupling channel's eigenoperators A(Omega), kept on their Bohr
    supports.

    rotated is the coupling in the energy eigenbasis, A' = V^+ A V, read-only;
    labels lists, ascending, the Bohr frequencies (indices into
    spectrum.bohr_set.values) where it holds a piece that is not negligible.
    In the eigenbasis A(Omega) is A' on the gaps spectrum.bohr_index labels
    Omega and zero elsewhere, so no user-basis piece is stored: terms maps
    Omega -> A(Omega) in the user basis and builds each value when it is read,
    and chunks yields them stacked.
    """

    rotated: np.ndarray
    spectrum: Spectrum = field(repr=False)
    labels: np.ndarray

    def omegas(self) -> list[float]:
        return self.spectrum.bohr_set.values[self.labels].tolist()

    @cached_property
    def terms(self) -> EigenOperatorTerms:
        """Omega -> A(Omega), user basis, built on each read."""
        return EigenOperatorTerms(self)

    def pieces(self, labels) -> np.ndarray:
        """The user-basis pieces V (A' on the gaps labelled l) V^+ for each
        label l in labels, as one (n, d, d) stack from one stacked product."""
        v = self.spectrum.basis
        masked = self.rotated * (self.spectrum.bohr_index == np.asarray(labels)[:, None, None])
        return (v @ masked) @ v.conj().T

    def chunks(self, size: int = STACK_CHUNK):
        """(omegas, pieces) for the kept labels, ascending, size at a time:
        omegas (n,) and the (n, d, d) stack of their user-basis pieces."""
        values = self.spectrum.bohr_set.values
        for lo in range(0, self.labels.size, size):
            labels = self.labels[lo:lo + size]
            yield values[labels], self.pieces(labels)


class EigenOperatorTerms(Mapping):
    """The read-only map Omega -> A(Omega) of an EigenOperatorSet, over its
    kept Bohr frequencies in ascending order. Each value is built when it
    is read and is not stored; membership and iteration build none."""

    def __init__(self, eset: EigenOperatorSet):
        self._eset = eset
        self._label = dict(zip(eset.omegas(), eset.labels.tolist()))

    def __getitem__(self, omega) -> np.ndarray:
        return self._eset.pieces([self._label[omega]])[0].copy()

    def __contains__(self, omega) -> bool:
        return omega in self._label

    def __iter__(self):
        return iter(self._label)

    def __len__(self) -> int:
        return len(self._label)


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
    starts = cluster_starts(w, degeneracy_tol)
    stops = np.append(starts[1:], len(w))
    reps = cluster_means(w, starts)
    spreads = w[stops - 1] - w[starts]
    warnings = [
        f"multiplet around {float(reps[n]):.6g} chains over a spread "
        f"{float(spreads[n]):.3e} larger than the tolerance {degeneracy_tol:.3e}"
        for n in np.flatnonzero(spreads > degeneracy_tol).tolist()
    ]
    return Spectrum(
        dim=len(w),
        frequencies=w,
        basis=v,
        multiplets=tuple(tuple(range(a, b)) for a, b in zip(starts.tolist(), stops.tolist())),
        multiplet_frequencies=reps,
        multiplet_index=np.repeat(np.arange(len(starts)), stops - starts),
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


def eigenoperator(a_op, s: Spectrum, omega: float) -> np.ndarray:
    """The component of a_op at the Bohr frequency omega, in the user basis.

    This is the piece eigenoperator_decomposition assigns to the Bohr
    frequency within the spectral matching tolerance of omega (the nearest
    one): the elements <a|A|b> whose gap w_b - w_a snaps to it. An omega
    matching no Bohr frequency (NaN among them) yields the zero matrix, and
    so does a piece the decomposition drops as negligible, as the generator
    holds it.
    """
    terms = eigenoperator_decomposition(a_op, s).terms
    values = s.bohr_set.values
    k = int(np.argmin(np.abs(values - omega)))
    zero = np.zeros((s.dim, s.dim), dtype=complex)
    return terms.get(values[k], zero) if abs(values[k] - omega) <= s.degeneracy_tol else zero


def eigenoperator_decomposition(a_op, s: Spectrum) -> EigenOperatorSet:
    """Split a_op into eigenoperators over the full Bohr frequency set.

    Every matrix element is assigned to its nearest Bohr frequency, so the
    pieces always sum back to a_op exactly; near-zero pieces (all entries below
    1e-14) are dropped. Only the rotated a_op and the kept labels are stored:
    the pieces are built when they are read (EigenOperatorSet).
    """
    a_eig = eigenbasis_operator(a_op, s)
    peak = np.zeros(s.bohr_set.values.size)
    np.maximum.at(peak, s.bohr_index.ravel(), np.abs(a_eig).ravel())
    a_eig.flags.writeable = False
    return EigenOperatorSet(rotated=a_eig, spectrum=s,
                            labels=np.flatnonzero(peak >= NEGLIGIBLE_ENTRY))
