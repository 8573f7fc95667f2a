"""Reference routes for checking two-sided randomized factorizations.

Dense, small-scale cross-checks that the library itself never calls:
the lifted reconstruction identities of an ApproxGsvd, and a Tikhonov
solve of the stacked compressed system by minimum-norm least squares,
which test_rgsvd.py holds against the filtered solve of solve_rgsvd.
"""

import numpy as np

from oracle_gsvd import v1_factor
from randgsvd.tikhonov import RegularizedSolution


def sketched_identities(approx, a, l):
    """Frobenius deviations of the lifted reconstruction identities

        |P P.T A Q Q.T - U2 diag(alpha) Z_rows|_F
        |L Q Q.T       - V1 diag(beta)  Z_head|_F

    against the supplied ambient pair, with the lifted factors U2 = P @ inner.u,
    V1 = (L Q) @ inner.x[:, :nb] / inner.beta and Z = inner.x^-1 @ Q.T formed
    here.
    """
    p, q = approx.p, approx.q
    inner = approx.inner
    u2 = p @ inner.u
    z = np.linalg.solve(inner.x, q.T)
    sketched_a = p @ (p.T @ a @ q) @ q.T
    z_rows = z[inner.offset :]
    err_a = float(np.linalg.norm(sketched_a - u2 @ (inner.alpha[:, None] * z_rows)))
    nb = inner.beta.shape[0]
    l_comp = l @ q
    v1 = v1_factor(inner, l_comp)
    err_l = float(np.linalg.norm(l_comp @ q.T - v1 @ (inner.beta[:, None] * z[:nb])))
    return err_a, err_l


def min_norm_lstsq(a, rhs):
    """Minimum-norm least-squares solution of a @ x = rhs via the thin SVD,
    treating singular values at or below 1e-12 * max(m, n) * sigma_0 as
    zero."""
    m, n = a.shape
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return np.zeros(n)
    keep = sigma > 1e-12 * max(m, n) * sigma[0]
    coeff = (u.T @ rhs)[keep] / sigma[keep]
    return vt[keep].T @ coeff


def solve_rgsvd_pinv(approx, a, l, b, lam):
    """Tikhonov solve of the stacked compressed system [P.T A Q; lam L Q],
    formed here from the ambient pair {a, l}, by minimum-norm least squares;
    residual_norm and seminorm are measured as solve_rgsvd measures them
    (against the sketched operator)."""
    a_comp, l_comp = approx.p.T @ a @ approx.q, l @ approx.q
    c = approx.p.T @ b
    perp_sq = float(b @ b - c @ c)
    stacked = np.vstack([a_comp, lam * l_comp])
    rhs = np.concatenate([c, np.zeros(l_comp.shape[0])])
    w = min_norm_lstsq(stacked, rhs)
    res = float(np.sqrt(np.linalg.norm(a_comp @ w - c) ** 2 + max(perp_sq, 0.0)))
    sem = float(np.linalg.norm(l_comp @ w))
    return RegularizedSolution(
        x=approx.q @ w, lam=lam, method="rgsvd", residual_norm=res, seminorm=sem
    )
