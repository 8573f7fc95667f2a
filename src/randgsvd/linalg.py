"""Dense linear-algebra kernels shared by the rest of the package.

Everything operates on plain float64 numpy arrays: matrices are 2-D,
vectors 1-D, all entries finite. The one exception is an operator that
only ever multiplies (the regularizer L): it may stay a scipy.sparse
matrix, validated by as_operator and densified by dense only where dense
factorizations need it. The validators (as_matrix, as_operator,
as_vector, and as_int and as_finite for scalars) run at the package's
entry points only. The factorizations below serve the core GSVD, which
hands them arrays it has just formed, so they check nothing: they are
thin wrappers around LAPACK that pin down a nonnegative R diagonal in QR
and ascending eigenvalues. Both work in the buffer they are handed: QR
turns an F-ordered input into Q and forms R as its one n x n copy, and
the eigendecomposition consumes its exactly symmetric input.
"""

from __future__ import annotations

import numbers

import numpy as np
import scipy.linalg
import scipy.sparse


class DimensionError(ValueError):
    """Input shapes are inconsistent with the requested operation."""


class RankDeficiencyError(ValueError):
    """A matrix that must have full (row or column) rank does not."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class CsrMatrix(scipy.sparse.csr_array):
    """CSR matrix that, like an ndarray, reports its stored bytes as nbytes."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def as_operator(a, name: str = "matrix"):
    """as_matrix for dense input; a scipy.sparse matrix comes back as a
    float64 CsrMatrix with its stored values checked, never densified."""
    if not scipy.sparse.issparse(a):
        return as_matrix(a, name)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not (isinstance(a, CsrMatrix) and a.dtype == np.float64):
        a = CsrMatrix(a, dtype=float)
    if a.nnz and not np.isfinite(a.data).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def dense(a) -> np.ndarray:
    """a as a dense array: a scipy.sparse matrix is expanded, anything
    else is returned as it is."""
    return a.toarray() if scipy.sparse.issparse(a) else a


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array and reject non-finite entries."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_int(value, name: str, least: int) -> int:
    """value as an int, refused unless an integer (a whole float is not) at
    or above least; a numpy integer would overflow in the seed arithmetic."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def as_finite(value, name: str, nonnegative: bool = False) -> float:
    """value as a float, refused unless a finite real > 0 (>= 0 if nonnegative)."""
    above = isinstance(value, numbers.Real) and (value >= 0.0 if nonnegative else value > 0.0)
    if not (above and value < np.inf):  # NaN fails every comparison
        kind = "nonnegative" if nonnegative else "positive"
        raise ValueError(f"{name} must be {kind} and finite, got {value}")
    return float(value)


def qr_reduced(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced (economy) QR (q, r) of a matrix with rows >= cols, in place.

    dgeqrf and dorgqr overwrite an F-ordered float64 input, which becomes q
    (other input is copied once); work sizes are queried, as they set the
    block size and so the bits. The factorization is normalized so that
    diag(r) >= 0, which makes the factors unique for full-rank input and
    keeps golden tests deterministic across LAPACK builds.
    """
    m, n = a.shape
    lwork = int(scipy.linalg.lapack.dgeqrf_lwork(m, n)[0])
    qr, tau, _, _ = scipy.linalg.lapack.dgeqrf(a, lwork=lwork, overwrite_a=1)
    sign = np.sign(np.diag(qr))
    sign[sign == 0] = 1.0
    r = np.multiply(qr[:n], sign[:, None], order="C")
    r[np.tri(n, k=-1, dtype=bool)] = 0.0  # np.triu's +0.0, without its copy
    lwork = int(scipy.linalg.lapack.dorgqr(qr, tau, lwork=-1, overwrite_a=1)[1][0])
    q = scipy.linalg.lapack.dorgqr(qr, tau, lwork=lwork, overwrite_a=1)[0]
    q *= sign
    return q, r


def symmetric_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (values, vectors) of an exactly symmetric
    C-ordered matrix, values ascending and vectors C-ordered, one per
    column.

    The input is consumed: dsyevd runs in its buffer and overwrites it. It
    must be symmetric bit for bit, as numpy forms a Gram matrix q.T @ q (by
    syrk, mirroring one triangle): dsyevd reads only one triangle, so an
    asymmetry would pass unseen.
    """
    # s is exactly symmetric, so its transpose is the same matrix, F-ordered
    w, v = scipy.linalg.eigh(s.T, driver="evd", overwrite_a=True, check_finite=False)
    return w, np.ascontiguousarray(v)


def matmul(x, y) -> np.ndarray:
    """x @ y, formed as (y.T @ x.T).T when x is not C-ordered (e.g. the
    transposed view of a C-ordered matrix): the same bits, about twice as
    fast with OpenBLAS for a skinny y."""
    return x @ y if x.flags.c_contiguous else (y.T @ x.T).T


def solve_upper_triangular(r, b) -> np.ndarray:
    """Back-substitution solve r @ x = b for upper-triangular r, with a
    vector or a matrix right-hand side."""
    return scipy.linalg.solve_triangular(r, b, lower=False, check_finite=False)
