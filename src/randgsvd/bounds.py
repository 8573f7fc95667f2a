"""Computable a-priori error bounds for randomized-GSVD Tikhonov solves.

The diagnostics compare the sketched solve against the exact stacked-system
solution and evaluate a fully computable right-hand side that provably
dominates the relative error. Single sketching runs can exceed their
tolerance, so the bound is evaluated at the *realized* stage deviations,
eps1 = |A - P P' A| and eps2 = |P' A (I - Q Q')| on branch "over", and
eps1 = |A (I - Q Q')| and eps2 = |(I - P P') A Q| on branch "under". This
keeps the inequality deterministic instead of probabilistic. Both branches
share c0 = (1 + sqrt(5)) / 2, xi = |pinv([P P' A; lam L])|,
nu = |b| / |x_lam| and gamma1 = |L (Q Q' - I)|.

Overdetermined branch (rows >= cols), with eps the largest of eps1, eps2
and the tolerance the factorization holds, approx.stage1.epsilon:

    rhs = eps * (c0 * xi^2 * nu + sqrt(2) * xi * |pinv([A; lam L])| * nu)
          + c0 * lam * gamma1 * xi^2 * nu

Underdetermined branch (rows < cols): the tightest known constants are not
computable from the factors alone, so the bound evaluates the computable
mid-chain inequality instead, at eps1 and eps2 as realized, with
gamma2 = |X1| * |X^-1| measuring how far the dropped exact-GSVD directions
reach (X from the exact factorization of the ambient pair, X1 its leading
n - l1 columns):

    rhs = c0 * eps2 * xi * |pinv(S)| * nu
          + c0 * (eps1 + lam * gamma1 + gamma2 * |S|) * |pinv(S)|^2 * nu
          + gamma2,                                  S = [A; lam L]

Everything here is O(n^3) dense work, so a scale guard refuses problems
beyond a small-instance cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gsvd import _gsvd_core
from .linalg import dense
from .rgsvd import ApproxGsvd
from .tikhonov import TikhonovProblem, check_lambda, solve_exact, solve_gsvd

SCALE_GUARD_MAX_N = 512
_C0 = (1.0 + np.sqrt(5.0)) / 2.0


def _sv(a: np.ndarray) -> np.ndarray:
    """Singular values of a, descending; [0.0] for an empty matrix, so
    _sv(a)[0] is the 2-norm and _sv(a)[-1] the smallest singular value."""
    return np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(1)


@dataclass(frozen=True)
class ErrorBoundDiagnostics:
    """Computable bound certificate for one (problem, factorization, lam).

    xi        -- 2-norm of the pseudo-inverse of the sketched stacked matrix
    nu_lambda -- |b| / |x_lam| with x_lam the exact regularized solution
    gamma1    -- |L (Q Q' - I)|, regularizer leakage outside the sketch
    gamma2    -- |X1| * |X^-1| (underdetermined only; 0.0 otherwise)
    lhs       -- realized relative error of the sketched solve
    rhs       -- computable bound; lhs <= rhs by construction
    """

    xi: float
    nu_lambda: float
    gamma1: float
    gamma2: float
    lhs: float
    rhs: float


def error_bound_diagnostics(
    prob: TikhonovProblem, approx: ApproxGsvd, lam: float
) -> ErrorBoundDiagnostics:
    """Evaluate the branch-appropriate bound (see module docstring) at the
    realized stage deviations, on branch "over" at approx.stage1.epsilon
    where it is larger, so the certificate holds for the factorization."""
    m, p, n = prob.shape
    if n > SCALE_GUARD_MAX_N:
        raise ValueError(
            f"error bounds form dense pseudo-inverses; refusing n={n} > {SCALE_GUARD_MAX_N}"
        )
    check_lambda(lam)
    if approx.is_degenerate:
        raise ValueError("degenerate factorization: no bound to certify")

    a, l, b = prob.a, dense(prob.l), prob.b
    exact = solve_exact(prob, lam)
    x_exact = exact.x
    x_norm = float(np.linalg.norm(x_exact))
    if x_norm == 0.0:
        raise ValueError("exact regularized solution is zero; relative error undefined")
    sketchy = solve_gsvd(approx, b, lam)
    lhs = float(np.linalg.norm(sketchy.x - x_exact) / x_norm)
    nu = float(np.linalg.norm(b)) / x_norm

    q = approx.q
    pb = approx.p
    gamma1 = _sv(l - (l @ q) @ q.T)[0]
    stacked_sv = _sv(np.vstack([a, lam * l]))
    pinv_norm = 1.0 / stacked_sv[-1]
    pta = pb.T @ a
    pa = pb @ pta
    xi = 1.0 / _sv(np.vstack([pa, lam * l]))[-1]

    if approx.branch == "over":
        eps1 = _sv(a - pa)[0]
        eps2 = _sv(pta - (pta @ q) @ q.T)[0]
        eps_used = max(approx.stage1.epsilon, eps1, eps2)
        rhs = eps_used * (_C0 * xi**2 * nu + np.sqrt(2.0) * xi * pinv_norm * nu)
        rhs += _C0 * lam * gamma1 * xi**2 * nu
        gamma2 = 0.0
    else:
        aq = a @ q
        eps1 = _sv(a - aq @ q.T)[0]
        eps2 = _sv(aq - pb @ (pb.T @ aq))[0]
        # solve_exact above, and the core itself, refuse a rank-deficient stack
        x_all = _gsvd_core([a, l]).x
        x1 = x_all[:, : max(n - approx.l1, 0)]
        gamma2 = _sv(x1)[0] / _sv(x_all)[-1]
        rhs = _C0 * eps2 * xi * pinv_norm * nu
        rhs += _C0 * (eps1 + lam * gamma1 + gamma2 * stacked_sv[0]) * pinv_norm**2 * nu
        rhs += gamma2

    return ErrorBoundDiagnostics(
        xi=float(xi),
        nu_lambda=float(nu),
        gamma1=float(gamma1),
        gamma2=float(gamma2),
        lhs=lhs,
        rhs=float(rhs),
    )
