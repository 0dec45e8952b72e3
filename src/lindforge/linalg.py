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


def _refuse_hermiticity_defect(defect: float, largest: float, name: str) -> None:
    scale = max(1.0, largest)
    if defect > DEFAULT_TOL * scale:
        raise ValueError(
            f"{name} is not hermitian: defect {defect:.3e} exceeds "
            f"{DEFAULT_TOL:.1e} * {scale:.3e}"
        )


def as_hermitian(h, name: str = "hamiltonian") -> np.ndarray:
    """as_operator, refusing a hermiticity defect above DEFAULT_TOL relative
    to max(1, max |h|)."""
    h = as_operator(h, name)
    _refuse_hermiticity_defect(hermiticity_defect(h), float(np.abs(h).max(initial=0.0)), name)
    return h


def hermitian_diagonal(h, name: str = "hamiltonian") -> np.ndarray:
    """The real levels of a diagonal matrix, refused as as_hermitian refuses
    the matrix, from its diagonal alone: max |h| and max |h - h^+| are the
    diagonal's."""
    d = np.asarray(h, dtype=complex).diagonal()
    if not np.isfinite(d).all():
        raise ValueError(f"{name} contains non-finite entries")
    with np.errstate(over="ignore"):
        defect = float(np.abs(d - d.conj()).max(initial=0.0))
    _refuse_hermiticity_defect(defect, float(np.abs(d).max(initial=0.0)), name)
    return d.real


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


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the [m/m] Pade
# approximant of exp meets double precision up to 1-norm PADE_THETA[m], with
# the numerator coefficients PADE_COEFFS[m] (the denominator alternates signs)
PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
              7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}
PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_DEGREES = tuple(PADE_THETA)
_THETAS = np.array(list(PADE_THETA.values()))
_DIAGONAL, _NON_FINITE = -1, -2  # expm's routes besides the degrees
# per degree, the rows of coefficients _pade contracts with I, A^2, A^4, ...:
# odd and even sums, and for 13 the four sums W_1, W_2, Z_1 and Z_2
_PADE_SUMS = {m: np.array([c[1::2], c[0::2]]) for m, c in PADE_COEFFS.items() if m < 13}
_PADE_SUMS[13] = np.array([(0.0,) + PADE_COEFFS[13][9::2], PADE_COEFFS[13][1:8:2],
                           (0.0,) + PADE_COEFFS[13][8::2], PADE_COEFFS[13][0:7:2]])


def _pade(a, m: int) -> np.ndarray:
    """The [m/m] Pade approximant of exp at each matrix A of an (n, s, s)
    stack: (V - U)^-1 (V + U), one batched solve, where V sums the even
    terms c_2k A^2k and U = A times the odd sum of c_2k+1 A^2k. The sums
    are one product of _PADE_SUMS[m] with the stacked powers of A^2;
    degree 13 takes them from A^2, A^4 and A^6 alone, as
    U = A (A^6 W_1 + W_2) and V = A^6 Z_1 + Z_2."""
    coeffs = _PADE_SUMS[m]
    count = coeffs.shape[1]  # the powers I, A^2, A^4, ...
    powers = np.empty((count,) + a.shape, dtype=a.dtype)
    powers[0] = np.eye(a.shape[-1])
    np.matmul(a, a, out=powers[1])
    for k in range(2, count):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    sums = (coeffs @ powers.reshape(count, -1)).reshape((len(coeffs),) + a.shape)
    if m == 13:
        u = a @ (powers[3] @ sums[0] + sums[1])
        v = powers[3] @ sums[2] + sums[3]
    else:
        u = a @ sums[0]
        v = sums[1]
    return np.linalg.solve(v - u, v + u)


def _expm_route(m, route: int, norms) -> np.ndarray:
    """e^A for a stack m whose matrices share one route of expm's."""
    if route == _NON_FINITE:
        return np.full_like(m, np.nan)
    if route == _DIAGONAL:
        e = np.zeros_like(m)
        n = m.shape[-1]
        e[:, range(n), range(n)] = np.exp(np.diagonal(m, axis1=1, axis2=2))
        return e
    if _DEGREES[route] < 13:
        return _pade(m, _DEGREES[route])
    # most squarings first, so the matrices still squaring are a prefix
    s = np.maximum(0, np.ceil(np.log2(norms / _THETAS[-1]))).astype(int)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    e = _pade(m[order] * np.ldexp(1.0, -s)[:, None, None], 13)
    for live in np.searchsorted(-s, -np.arange(s[0]), side="left").tolist():
        e[:live] = e[:live] @ e[:live]
    e[order] = e.copy()
    return e


def expm(stack) -> np.ndarray:
    """e^A for each matrix A of an (..., s, s) stack, by numpy alone.

    A diagonal matrix (every 1x1 one among them) takes np.exp of its
    diagonal, which is exact. Any other takes Higham's (2005) scaling and
    squaring: the lowest Pade degree m of 3, 5, 7 and 9 whose PADE_THETA[m]
    bounds its 1-norm, else degree 13 on A / 2^s with
    s = ceil(log2(||A||_1 / PADE_THETA[13])), squared s times. Each degree
    is one batched pass over its matrices, and each squaring takes only the
    matrices that still need it. Any other matrix with a non-finite entry
    gives NaN, and one whose exponential overflows inf or NaN, without a
    warning."""
    a = np.asarray(stack)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    n = a.shape[-1]
    with np.errstate(all="ignore"):
        if n == 1:
            return np.exp(a)
        flat = a.reshape(-1, n, n)
        norms = np.abs(flat).sum(axis=1).max(axis=1)
        # each matrix's route: the index in PADE_THETA of the lowest degree
        # whose theta bounds its norm (13 past theta_9), else _NON_FINITE or
        # _DIAGONAL. A diagonal matrix's norm is its largest |diagonal entry|,
        # so only those matrices are counted out
        route = np.searchsorted(_THETAS[:-1], norms)
        finite = np.isfinite(norms)
        if not finite.all():
            route[~finite] = _NON_FINITE
        diag = np.diagonal(flat, axis1=1, axis2=2)
        maybe = np.flatnonzero(norms == np.abs(diag).max(axis=1))
        if maybe.size:
            route[maybe[np.count_nonzero(flat[maybe], axis=(1, 2))
                        == np.count_nonzero(diag[maybe], axis=1)]] = _DIAGONAL
        routes = set(route.tolist())
        if len(routes) == 1:
            return _expm_route(flat, routes.pop(), norms).reshape(a.shape)
        out = np.empty_like(flat)
        for r in routes:
            at = np.flatnonzero(route == r)
            out[at] = _expm_route(flat[at], r, norms[at])
    return out.reshape(a.shape)


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

    @property
    def refusal(self) -> str:
        """The defects in words, for a matrix that is refused as not valid."""
        return (f"not a density matrix within {self.tol:g}: trace defect "
                f"{self.trace_defect:.3e}, hermiticity defect {self.hermiticity_defect:.3e}, "
                f"min eigenvalue {self.min_eigenvalue:.3e}")


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
