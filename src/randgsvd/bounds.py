"""Computable a-priori error bounds for randomized-GSVD Tikhonov solves.

The diagnostics compare the sketched solve against the exact stacked-system
solution and evaluate a fully computable right-hand side that provably
dominates the relative error. The requested tolerance eps is the one the
factorization holds, approx.stage1.epsilon. Since single sketching runs
can exceed it, the bound is evaluated at the *realized* stage deviations
(or eps, whichever is larger), which keeps the inequality deterministic
instead of probabilistic.

Overdetermined branch (rows >= cols), with c0 = (1 + sqrt(5)) / 2,
xi = |pinv([P P' A; lam L])|, nu = |b| / |x_lam|:

    rhs = eps * (c0 * xi^2 * nu + sqrt(2) * xi * |pinv([A; lam L])| * nu)
          + c0 * lam * gamma1 * xi^2 * nu,         gamma1 = |L (Q Q' - I)|

Underdetermined branch (rows < cols): the tightest known constants are not
computable from the factors alone, so the bound evaluates the computable
mid-chain inequality instead, with gamma2 = |X1| * |X^-1| measuring how far
the dropped exact-GSVD directions reach (X from the exact factorization of
the ambient pair, X1 its leading n - l1 columns):

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
from .tikhonov import TikhonovProblem, solve_exact, solve_gsvd

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
    """Evaluate the branch-appropriate bound (see module docstring) at
    approx.stage1.epsilon, or at the realized stage deviations where they
    are larger, so the certificate holds for the factorization in hand."""
    m, p, n = prob.shape
    if n > SCALE_GUARD_MAX_N:
        raise ValueError(
            f"error bounds form dense pseudo-inverses; refusing n={n} > {SCALE_GUARD_MAX_N}"
        )
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam}")
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

    if approx.branch == "over":
        pa = pb @ (pb.T @ a)
        eps1 = _sv(a - pa)[0]
        pta = pb.T @ a
        eps2 = _sv(pta - (pta @ q) @ q.T)[0]
        eps_used = max(approx.stage1.epsilon, eps1, eps2)
        xi = 1.0 / _sv(np.vstack([pa, lam * l]))[-1]
        rhs = eps_used * (_C0 * xi**2 * nu + np.sqrt(2.0) * xi * pinv_norm * nu)
        rhs += _C0 * lam * gamma1 * xi**2 * nu
        gamma2 = 0.0
    else:
        aq = a @ q
        eps1 = _sv(a - aq @ q.T)[0]
        eps2 = _sv(aq - pb @ (pb.T @ aq))[0]
        eps_used = max(approx.stage1.epsilon, eps1, eps2)
        pa = pb @ (pb.T @ a)
        xi = 1.0 / _sv(np.vstack([pa, lam * l]))[-1]
        # the problem already validated the pair and checked its stack rank
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
