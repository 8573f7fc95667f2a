"""Reference routes for checking exact GSVD factors.

GsvdFactors keeps U, X, alpha and beta only. The second orthonormal factor
V1 is formed here from the pair's second member, and reconstruct measures
both diagonalization identities; criterion 01, test_gsvd.py and
oracle_rgsvd.py hold the factors to them.
"""

import numpy as np


def v1_factor(factors, l):
    """V1 = L @ X[:, :nb] / beta (nb = len(beta)), p x nb with orthonormal
    columns: L X = Q2 S for the stacked QR [A; L] = Q R and X = R^-1 S."""
    nb = factors.beta.shape[0]
    return (l @ factors.x[:, :nb]) / factors.beta


def reconstruct(factors, pair) -> tuple[float, float]:
    """Frobenius residuals of the two diagonalization identities:
    (|U.T A Xcols - diag(alpha)|_F, |V1.T L X1 - diag(beta)|_F)."""
    a, l = pair.a, pair.l
    err_a = np.linalg.norm(factors.u.T @ a @ factors.x_cols - np.diag(factors.alpha))
    nb = factors.beta.shape[0]
    err_l = np.linalg.norm(
        v1_factor(factors, l).T @ l @ factors.x[:, :nb] - np.diag(factors.beta)
    )
    return float(err_a), float(err_l)
