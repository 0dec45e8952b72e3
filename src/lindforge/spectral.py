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
    def bohr_index(self) -> np.ndarray:
        """(d, d) index into bohr_frequencies(self).values of the Bohr
        frequency nearest each eigenbasis gap w_m - w_a, computed once and
        shared read-only.

        The values are sorted, so the nearest one is found by counting the
        midpoints below the gap; an exact tie goes to the lower value.
        """
        values = bohr_frequencies(self).values
        index = np.searchsorted(0.5 * (values[1:] + values[:-1]), _frequency_gaps(self))
        index.flags.writeable = False
        return index


@dataclass(frozen=True)
class BohrFrequencySet:
    """Sorted distinct Bohr frequencies Omega = w_M - w_N, with 0, negation-closed."""

    values: np.ndarray
    matching_tol: float

    def snap(self, omega: float) -> float:
        """Nearest member of the set (used to discretize raw differences)."""
        i = int(np.argmin(np.abs(self.values - omega)))
        return float(self.values[i])


@dataclass(frozen=True)
class EigenOperatorSet:
    """Map Omega -> A_alpha(Omega) for one coupling channel, user basis."""

    channel: int
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
    """All differences of multiplet frequencies, deduplicated and mirrored."""
    reps = s.multiplet_frequencies
    tol = s.degeneracy_tol
    diffs = sorted(
        float(reps[m] - reps[n])
        for m in range(len(reps))
        for n in range(len(reps))
        if reps[m] - reps[n] > tol
    )
    positives: list[float] = []
    cluster: list[float] = []
    for d in diffs:
        if cluster and d - cluster[-1] > tol:
            positives.append(float(np.mean(cluster)))
            cluster = []
        cluster.append(d)
    if cluster:
        positives.append(float(np.mean(cluster)))
    values = np.array([-x for x in reversed(positives)] + [0.0] + positives)
    return BohrFrequencySet(values=values, matching_tol=tol)


def _frequency_gaps(s: Spectrum) -> np.ndarray:
    """Matrix of representative frequency differences: gaps[a, b] = w_b - w_a."""
    r = s.representative_frequencies()
    return r[None, :] - r[:, None]


def eigenoperator(a_op, s: Spectrum, omega: float) -> np.ndarray:
    """The component of a_op connecting states separated by exactly omega.

    Keeps (in the eigenbasis) the elements <a|A|b> with w_b - w_a = omega up to
    the spectral matching tolerance, zeroes the rest, and rotates back to the
    user basis. An omega matching no Bohr frequency yields the zero matrix.
    """
    a_op = as_operator(a_op, "a_op")
    if a_op.shape[0] != s.dim:
        raise ValueError(f"operator dim {a_op.shape[0]} does not match spectrum dim {s.dim}")
    v = s.basis
    a_eig = v.conj().T @ a_op @ v
    mask = np.abs(_frequency_gaps(s) - omega) <= s.degeneracy_tol
    return v @ (a_eig * mask) @ v.conj().T


def eigenoperator_decomposition(a_op, s: Spectrum, channel: int = 0) -> EigenOperatorSet:
    """Split a_op into eigenoperators over the full Bohr frequency set.

    Every matrix element is assigned to its nearest Bohr frequency, so the
    pieces always sum back to a_op exactly; near-zero pieces (all entries below
    1e-14) are dropped.
    """
    a_op = as_operator(a_op, "a_op")
    if a_op.shape[0] != s.dim:
        raise ValueError(f"operator dim {a_op.shape[0]} does not match spectrum dim {s.dim}")
    v = s.basis
    a_eig = v.conj().T @ a_op @ v
    terms: dict[float, np.ndarray] = {}
    for k, omega in enumerate(bohr_frequencies(s).values):
        piece = a_eig * (s.bohr_index == k)
        if np.abs(piece).max() < NEGLIGIBLE_ENTRY:
            continue
        terms[float(omega)] = v @ piece @ v.conj().T
    return EigenOperatorSet(channel=channel, terms=terms)
