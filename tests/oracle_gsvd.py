"""Reference routes for checking exact GSVD factors.

GsvdFactors keeps U, X, alpha and beta only. The second orthonormal factor
V1 is formed here from the pair's second member, and reconstruct measures
both diagonalization identities; criterion 01, test_gsvd.py and
oracle_rgsvd.py hold the factors to them. reference_gsvd is the core GSVD
by numpy's own QR and eigh on a freshly stacked copy of the pair, against
which test_gsvd.py checks the in-place library core. parent_core is the
library core as it was before its BLAS calls were regrouped: the Gram
matrix by numpy's q1.T @ q1, eigh on its transpose, U formed before X;
test_gsvd.py holds the library core to it bit for bit.
"""

import numpy as np
import scipy.linalg

from randgsvd.gsvd import GmpViolationError, GsvdFactors, _column_norms
from randgsvd.linalg import qr_reduced


def v1_factor(factors, l):
    """V1 = L @ X[:, :nb] / beta (nb = len(beta)), p x nb with orthonormal
    columns: L X = Q2 S for the stacked QR [A; L] = Q R and X = R^-1 S."""
    nb = factors.beta.shape[0]
    return (l @ factors.x[:, :nb]) / factors.beta


def reconstruct(factors, pair) -> tuple[float, float]:
    """Frobenius residuals of the two diagonalization identities:
    (|U.T A X[:, offset:] - diag(alpha)|_F, |V1.T L X1 - diag(beta)|_F)."""
    a, l = pair.a, pair.l
    err_a = np.linalg.norm(factors.u.T @ a @ factors.x[:, factors.offset :] - np.diag(factors.alpha))
    nb = factors.beta.shape[0]
    err_l = np.linalg.norm(
        v1_factor(factors, l).T @ l @ factors.x[:, :nb] - np.diag(factors.beta)
    )
    return float(err_a), float(err_l)


def reference_gsvd(a, l) -> GsvdFactors:
    """GSVD of a dense full-column-rank pair by [A; L] = Q R with
    np.linalg.qr (signs fixed so diag(R) >= 0), Q1.T Q1 = S diag(psi) S.T
    with np.linalg.eigh, U = Q1 S normalized by column and X = R^-1 S by
    back substitution: the tolerant route, which never refuses a
    rank-deficient first member."""
    m, n = a.shape
    q, r = np.linalg.qr(np.vstack([a, l]))
    sign = np.where(np.diag(r) < 0, -1.0, 1.0)
    q, r = q * sign, np.triu(r * sign[:, None])
    q1 = q[:m]
    gram = q1.T @ q1
    psi, svecs = np.linalg.eigh(0.5 * (gram + gram.T))
    psi = np.clip(psi, 0.0, 1.0)
    tol = 1e-12 * n
    n_inf = int(np.count_nonzero(psi > 1.0 - tol))
    k0 = max(n - m, 0)
    u = q1 @ svecs[:, k0:]
    u = u / np.maximum(np.linalg.norm(u, axis=0), np.finfo(float).tiny)
    return GsvdFactors(
        u=u,
        alpha=np.sqrt(psi[k0:]),
        beta=np.sqrt(1.0 - psi[: n - n_inf]),
        x=scipy.linalg.solve_triangular(r, svecs),
    )


def parent_core(a, l) -> GsvdFactors:
    """The library core's earlier statement order, leaving a and l as they
    are: QR, rank check and packed R as now, then the Gram matrix q1.T @ q1
    by numpy's syrk (exactly symmetric, C-ordered), dsyevd on its F-ordered
    transpose, U = q1 @ S by numpy and normalized, and only then R unpacked
    for X = R^-1 S. numpy's BLAS forms the Gram matrix and U, scipy's the
    rest."""
    m, n = a.shape
    rows = m + l.shape[0]
    stack = np.concatenate((a, l), out=np.empty((rows, n), order="F"))
    q, tri = qr_reduced(stack)
    q1 = np.ascontiguousarray(q[:m])
    del stack, q
    rcond = scipy.linalg.lapack.dtrcon(tri.T, norm="I", uplo="L")[0]
    if rcond <= 1e-12 * max(rows, n):
        raise GmpViolationError(f"reciprocal condition estimate {rcond:.3e}")
    packed = scipy.linalg.lapack.dtrttp(tri.T, uplo="L")[0]
    del tri
    gram = q1.T @ q1
    psi, svecs = scipy.linalg.eigh(gram.T, driver="evd", overwrite_a=True, check_finite=False)
    svecs = np.ascontiguousarray(svecs)
    psi = np.clip(psi, 0.0, 1.0)
    r = int(np.count_nonzero(psi > 1.0 - 1e-12 * n))
    k0 = max(n - m, 0)
    alpha = np.sqrt(psi[k0:])
    u = q1 @ svecs[:, k0:]
    u /= np.maximum(_column_norms(u), np.finfo(float).tiny)
    beta = np.sqrt(1.0 - psi[: n - r])
    tri = scipy.linalg.lapack.dtpttr(n, packed, uplo="L")[0].T
    x = scipy.linalg.solve_triangular(tri, svecs, lower=False, check_finite=False)
    return GsvdFactors(u=u, alpha=alpha, beta=beta, x=x)
