"""Dense complex linear algebra helpers shared by every other module.

Everything here works on plain numpy arrays (complex128, row-major). Units are
hbar = k_B = 1 throughout the package; all frequencies, energies and
temperatures share one angular-frequency unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9  # as_hermitian's tolerance, relative to max(1, max |h|)
# trace, hermiticity and positivity (-DENSITY_TOL) tolerance of a density matrix
DENSITY_TOL = 1e-6
MATRIX_CHUNK = 256  # matrices matrix_defects reads at once

# kron of two operators beyond this output dimension is almost certainly a
# mistake (dense complex storage would exceed ~1 GiB)
MAX_TENSOR_DIM = 8192


class DimensionError(ValueError):
    """Raised when an operation would exceed a configured size cap."""


def as_operator(m, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product a (x) b with a hard output-dimension cap."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("tensor_product expects two matrices")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MAX_TENSOR_DIM:
        raise DimensionError(
            f"tensor product would be {rows}x{cols}, cap is {MAX_TENSOR_DIM}"
        )
    return np.kron(a, b)


def partial_trace_bath(rho_ab, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second (bath) factor: out[i, j] = sum_k rho[(i,k), (j,k)]."""
    rho_ab = np.asarray(rho_ab, dtype=complex)
    d = dim_a * dim_b
    if rho_ab.shape != (d, d):
        raise ValueError(
            f"expected a {d}x{d} matrix for dims {dim_a}x{dim_b}, got {rho_ab.shape}"
        )
    r = rho_ab.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ikjk->ij", r)


def hermitian_part(m) -> np.ndarray:
    """(m + m^+)/2 of a matrix, or of each matrix of an (n, d, d) stack. An
    entry that overflows is inf or NaN, without a warning."""
    m = np.asarray(m)
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermiticity_defect(m) -> float:
    """max |m - m^+|, without an eigen-solve; inf, not a warning, on overflow."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore"):
        return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def as_hermitian(h, name: str = "hamiltonian") -> np.ndarray:
    """as_operator, refusing a hermiticity defect above DEFAULT_TOL relative
    to max(1, max |h|)."""
    h = as_operator(h, name)
    defect = hermiticity_defect(h)
    scale = max(1.0, float(np.abs(h).max())) if h.size else 1.0
    if defect > DEFAULT_TOL * scale:
        raise ValueError(
            f"{name} is not hermitian: defect {defect:.3e} exceeds "
            f"{DEFAULT_TOL:.1e} * {scale:.3e}"
        )
    return h


def hermitian_eigendecomposition(h):
    """Eigendecomposition of a hermitian matrix, as as_hermitian admits it.

    Returns (eigenvalues ascending, eigenvector matrix V) with h = V diag(w) V^dag.
    Eigenvector phases are gauged so the largest-magnitude entry of each column
    is real and positive, which makes the output deterministic for a given input.
    """
    w, v = np.linalg.eigh(as_hermitian(h))
    # fix the per-column phase gauge
    anchors = np.argmax(np.abs(v), axis=0)
    for col, row in enumerate(anchors):
        pivot = v[row, col]
        if abs(pivot) > 0:
            v[:, col] *= pivot.conjugate() / abs(pivot)
    return w, v


def matrix_exponential_unitary(h, t: float) -> np.ndarray:
    """exp(-i h t) for hermitian h, via eigendecomposition."""
    w, v = hermitian_eigendecomposition(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def cluster_starts(values, tol: float) -> np.ndarray:
    """Where each cluster of ascending values starts, by single linkage: a
    gap above tol to the previous value opens a new cluster, so a chain of
    smaller gaps is one cluster however far it spans."""
    return np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)


def cluster_means(values, starts) -> np.ndarray:
    """Each cluster's np.mean, taken once per cluster of more than one value
    (a lone value is its own mean)."""
    means = values[starts]
    sizes = np.diff(np.append(starts, len(values)))
    for i in np.flatnonzero(sizes > 1).tolist():
        means[i] = np.mean(values[starts[i]:starts[i] + sizes[i]])
    return means


def vec(rho) -> np.ndarray:
    """Column-stack a matrix (Fortran order), so vec(A rho B) = kron(B^T, A) vec(rho)."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of density-matrix validation. Never raised, only reported."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    dim: int
    tol: float
    message: str = ""

    @property
    def valid(self) -> bool:
        if self.message:
            return False
        return (
            self.hermiticity_defect <= self.tol
            and self.trace_defect <= self.tol
            and self.min_eigenvalue >= -self.tol
        )


def validate_density_matrix(rho, tol: float = DENSITY_TOL) -> ValidationReport:
    """Hermiticity, unit trace and positivity by matrix_defects. Reports, never throws."""
    try:
        a = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError) as exc:
        return ValidationReport(np.nan, np.nan, np.nan, 0, tol, f"not a matrix: {exc}")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        return ValidationReport(
            np.nan, np.nan, np.nan, 0, tol, f"not a square matrix: shape {a.shape}"
        )
    trace, _, herm, min_eig = matrix_defects(a[None])[:, 0].tolist()
    message = "" if np.isfinite(a).all() else "non-finite entries"
    return ValidationReport(herm, trace, min_eig, a.shape[0], tol, message)


def matrix_defects(stack, out=None) -> np.ndarray:
    """The one check of density and rate matrices: rows |Tr m - 1|, max |m|,
    max |m - m^+| and the smallest eigenvalue of (m + m^+)/2 over an
    (n, d, d) stack, MATRIX_CHUNK matrices at a time. A matrix whose
    hermitian part is not finite gets NaN in all four rows, without a
    warning. out, when given (the stack itself, say), gets the hermitian parts."""
    stack = np.asarray(stack, dtype=complex)
    rows = np.full((4, len(stack)), np.nan)
    for lo in range(0, len(stack), MATRIX_CHUNK):
        m = stack[lo:lo + MATRIX_CHUNK]
        h = hermitian_part(m)
        finite = np.isfinite(h).all(axis=(1, 2))
        at = lo + np.flatnonzero(finite)
        m = m[finite]
        with np.errstate(over="ignore"):
            trace = np.trace(m, axis1=1, axis2=2) - 1.0
            rows[0, at] = np.hypot(trace.real, trace.imag)
            rows[1, at] = np.abs(m).max(axis=(1, 2), initial=0.0)
            rows[2, at] = np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
        rows[3, at] = np.linalg.eigvalsh(h[finite]).min(axis=1, initial=np.inf)
        if out is not None:
            out[lo:lo + MATRIX_CHUNK] = h
    return rows
