"""Dense complex linear algebra helpers shared by every other module.

Everything here works on plain numpy arrays (complex128, row-major). Units are
hbar = k_B = 1 throughout the package; all frequencies, energies and
temperatures share one angular-frequency unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

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


def kron_matmul(a, b, m) -> np.ndarray:
    """(a (x) b) @ m without forming the Kronecker product.

    Costs (d_a + d_b) * D * N multiply-adds for m of shape (D, N), D = d_a d_b,
    instead of D^2 * N, and keeps real inputs real.
    """
    d_a, d_b = a.shape[0], b.shape[0]
    out = np.tensordot(a, np.reshape(m, (a.shape[1], b.shape[1], -1)), axes=(1, 0))
    return np.matmul(b, out).reshape(d_a * d_b, -1)


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


def hermiticity_defect(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def hermitian_eigendecomposition(h, hermiticity_tol: float = DEFAULT_TOL):
    """Eigendecomposition of a hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix V) with h = V diag(w) V^dag.
    Eigenvector phases are gauged so the largest-magnitude entry of each column
    is real and positive, which makes the output deterministic for a given input.
    """
    h = as_operator(h, "hamiltonian")
    defect = hermiticity_defect(h)
    scale = max(1.0, float(np.abs(h).max())) if h.size else 1.0
    if defect > hermiticity_tol * scale:
        raise ValueError(
            f"matrix is not hermitian: defect {defect:.3e} exceeds "
            f"{hermiticity_tol:.1e} * {scale:.3e}"
        )
    w, v = np.linalg.eigh(h)
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


def validate_density_matrix(rho, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check hermiticity, unit trace and semi-positivity. Reports, never throws."""
    try:
        a = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError) as exc:
        return ValidationReport(np.nan, np.nan, np.nan, 0, tol, f"not a matrix: {exc}")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        return ValidationReport(
            np.nan, np.nan, np.nan, 0, tol, f"not a square matrix: shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        return ValidationReport(
            np.nan, np.nan, np.nan, a.shape[0], tol, "non-finite entries"
        )
    herm = hermiticity_defect(a)
    trace = abs(a.trace() - 1.0)
    min_eig = float(np.linalg.eigvalsh((a + a.conj().T) / 2.0).min())
    return ValidationReport(herm, float(trace), min_eig, a.shape[0], tol)
