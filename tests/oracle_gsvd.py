"""Reference routes for checking exact GSVD factors.

GsvdFactors keeps U, X, alpha and beta only. The second orthonormal factor
V1 is formed here from the pair's second member, and reconstruct measures
both diagonalization identities; criterion 01, test_gsvd.py and
oracle_rgsvd.py hold the factors to them. reference_gsvd is the core GSVD
by numpy's own QR and eigh on a freshly stacked copy of the pair, against
which test_gsvd.py checks the in-place library core.
"""

import numpy as np
import scipy.linalg

from randgsvd.gsvd import GsvdFactors


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
