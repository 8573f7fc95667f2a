"""Regularized least-squares solvers built on exact or sketched GSVD factors.

All solvers target

    min_x  |a @ x - b|^2 + lam^2 * |l @ x|^2

for a pair {a, l} whose stack has full column rank, so the minimizer is
unique for lam > 0. ``solve_exact`` works from the stacked augmented system
and is the reference the factored paths are tested against. ``solve_gsvd``
and ``solve_tgsvd`` expand the solution in exact GSVD coordinates with
Tikhonov respectively truncation filters, and ``solve_rgsvd`` does the same
inside the sketched subspace pair produced by the two-sided randomized
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gsvd import GmpViolationError, GsvdFactors
from .linalg import (
    CsrMatrix,
    DimensionError,
    as_matrix,
    as_operator,
    as_vector,
    dense,
    rank_cutoff,
    thin_svd,
)
from .rgsvd import ApproxGsvd


@dataclass(frozen=True)
class TikhonovProblem:
    """A discrete ill-posed instance: operator, regularizer, data.

    l may be a scipy.sparse matrix; it is kept sparse (as a CsrMatrix,
    with its stored values checked) and only the dense routes densify it:
    the stack-rank check (n <= GMP_CHECK_MAX_N), GmpPair, solve_exact,
    the error bounds and export_problem. x_true may be None for real data;
    delta records the relative noise level used to synthesize b (0.0
    means b is clean). meta carries free-form provenance notes (problem
    name, truncation, ...).
    """

    a: np.ndarray
    l: np.ndarray | CsrMatrix
    b: np.ndarray
    x_true: np.ndarray | None = None
    delta: float = 0.0
    meta: dict | None = None

    def __post_init__(self):
        a = as_matrix(self.a, "operator")
        l = as_operator(self.l, "regularizer")
        b = as_vector(self.b, "data")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "b", b)
        if l.shape[1] != a.shape[1]:
            raise DimensionError(
                f"regularizer columns {l.shape[1]} != operator columns {a.shape[1]}"
            )
        if b.shape[0] != a.shape[0]:
            raise DimensionError(f"data length {b.shape[0]} != operator rows {a.shape[0]}")
        if self.x_true is not None:
            xt = as_vector(self.x_true, "x_true")
            object.__setattr__(self, "x_true", xt)
            if xt.shape[0] != a.shape[1]:
                raise DimensionError("x_true length does not match operator columns")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        from .gsvd import check_stack_rank

        check_stack_rank(a, l, "TikhonovProblem")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.a.shape[0], self.l.shape[0], self.a.shape[1]


@dataclass(frozen=True)
class RegularizedSolution:
    """A regularized solve outcome.

    residual_norm and seminorm are |a x - b| and |l x| under the operator
    model the producing method factored: exact for 'exact'/'gsvd'/'tgsvd',
    the sketched operator for 'rgsvd' (exact up to the sketching tolerance).
    rel_error is |x - x_true| / |x_true| when a reference is supplied.
    """

    x: np.ndarray
    lam: float
    method: str
    residual_norm: float
    seminorm: float
    rel_error: float | None = None


def _with_rel_error(sol: RegularizedSolution, x_true) -> RegularizedSolution:
    if x_true is None:
        return sol
    x_true = as_vector(x_true, "x_true")
    denom = float(np.linalg.norm(x_true))
    if denom == 0.0:
        return sol
    err = float(np.linalg.norm(sol.x - x_true) / denom)
    return RegularizedSolution(
        x=sol.x,
        lam=sol.lam,
        method=sol.method,
        residual_norm=sol.residual_norm,
        seminorm=sol.seminorm,
        rel_error=err,
    )


def solve_exact(prob: TikhonovProblem, lam: float) -> RegularizedSolution:
    """Reference solver: minimum-norm least squares on the stacked system
    [a; lam * l] @ x = [b; 0]."""
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam}")
    a, l, b = prob.a, dense(prob.l), prob.b
    m, p, n = prob.shape
    stacked = np.vstack([a, lam * l])
    rhs = np.concatenate([b, np.zeros(p)])
    u, sigma, v = thin_svd(stacked)
    if sigma.size == 0 or sigma[0] == 0.0:
        raise GmpViolationError("stacked system is identically zero")
    cutoff = rank_cutoff(sigma, m + p, n)
    if sigma[-1] <= cutoff:
        raise GmpViolationError(
            f"stacked system numerically singular at lam={lam} "
            f"(sigma ratio {sigma[-1] / sigma[0]:.3e})"
        )
    x = v @ ((u.T @ rhs) / sigma)
    res = float(np.linalg.norm(a @ x - b))
    sem = float(np.linalg.norm(l @ x))
    sol = RegularizedSolution(x=x, lam=lam, method="exact", residual_norm=res, seminorm=sem)
    return _with_rel_error(sol, prob.x_true)


def tikhonov_filters(factors: GsvdFactors, lam) -> np.ndarray:
    """Filter factors f_i = alpha_i^2 / (alpha_i^2 + lam^2 beta_i^2) aligned
    with factors.alpha; components with beta = 0 pass unfiltered (f = 1).

    A scalar lam gives a vector; an array of lambdas gives one row of
    filters per lambda, shape lam.shape + alpha.shape."""
    alpha = factors.alpha
    beta = factors.beta_aligned()
    denom = alpha**2 + (np.asarray(lam)[..., None] * beta) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(denom > 0.0, alpha**2 / np.where(denom > 0.0, denom, 1.0), 1.0)
    return np.where(beta > 0.0, f, 1.0)


def filtered_coordinates(factors: GsvdFactors, filters: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Expansion coordinates y with x = (x columns) @ y for a given filter
    vector: y_i = f_i * eta_i / alpha_i on the branch window, zero on the
    leading wide-branch directions. Rows of a filter matrix (one per
    lambda, as from tikhonov_filters) give rows of y."""
    alpha = factors.alpha
    with np.errstate(invalid="ignore", divide="ignore"):
        active = np.where(alpha > 0.0, filters * eta / np.where(alpha > 0.0, alpha, 1.0), 0.0)
    y = np.zeros(active.shape[:-1] + (factors.n,))
    y[..., factors.offset :] = active
    return y


def _expand(
    factors: GsvdFactors, eta: np.ndarray, b_sq: float, filters: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """The filtered GSVD expansion shared by every factored solve.

    From the data coordinates eta = U.T data, the data energy b_sq = |data|^2
    and one filter per alpha, returns (X @ y, residual_norm, seminorm): the
    solution in the factors' own coordinates, residual^2 =
    sum(((1 - f) eta)^2) + |data|^2 - |eta|^2 and seminorm =
    |diag(beta) y_head| via the L-side diagonalization.
    """
    y = filtered_coordinates(factors, filters, eta)
    res_sq = float(np.sum(((1.0 - filters) * eta) ** 2)) + max(b_sq - float(eta @ eta), 0.0)
    nb = factors.beta.shape[0]
    sem = float(np.linalg.norm(factors.beta * y[:nb])) if nb else 0.0
    return factors.x @ y, float(np.sqrt(res_sq)), sem


def solve_gsvd(
    factors: GsvdFactors, b, lam: float, x_true=None
) -> RegularizedSolution:
    """Tikhonov solve in exact GSVD coordinates.

    eta = U.T b, each retained direction is damped by its filter factor,
    and the solution is assembled from the aligned X columns. Residual and
    seminorm come from the same expansion, so no operator matrices are
    touched.
    """
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam}")
    b = as_vector(b, "data")
    if b.shape[0] != factors.u.shape[0]:
        raise DimensionError(f"data length {b.shape[0]} != factor rows {factors.u.shape[0]}")
    x, res, sem = _expand(factors, factors.u.T @ b, float(b @ b), tikhonov_filters(factors, lam))
    sol = RegularizedSolution(x=x, lam=lam, method="gsvd", residual_norm=res, seminorm=sem)
    return _with_rel_error(sol, x_true)


def solve_tgsvd(
    factors: GsvdFactors, b, k: int, x_true=None
) -> RegularizedSolution:
    """Truncated GSVD solve: keep the k largest finite generalized values
    plus every direction the regularizer ignores (beta = 0); drop the rest.

    The reported lam field stores float(k) since truncation depth is the
    regularization parameter here.
    """
    b = as_vector(b, "data")
    if b.shape[0] != factors.u.shape[0]:
        raise DimensionError(f"data length {b.shape[0]} != factor rows {factors.u.shape[0]}")
    n_active = int(np.count_nonzero(factors.alpha > 0.0))
    if not (1 <= k <= n_active):
        raise ValueError(f"truncation depth must lie in [1, {n_active}], got {k}")
    gamma = factors.gamma()
    finite = np.isfinite(gamma)
    filters = np.zeros_like(factors.alpha)
    filters[~finite] = 1.0
    finite_idx = np.flatnonzero(finite)
    if finite_idx.size:
        keep = min(k, finite_idx.size)
        # gamma is ascending along the spectrum, so the largest finite
        # generalized values sit at the tail of the finite window
        filters[finite_idx[-keep:]] = 1.0
    x, res, sem = _expand(factors, factors.u.T @ b, float(b @ b), filters)
    sol = RegularizedSolution(
        x=x, lam=float(k), method="tgsvd", residual_norm=res, seminorm=sem
    )
    return _with_rel_error(sol, x_true)


def solve_rgsvd(approx: ApproxGsvd, b, lam: float, x_true=None) -> RegularizedSolution:
    """Tikhonov solve through a two-sided randomized factorization,
    expanded inside the compressed pair's GSVD coordinates.

    residual_norm is measured against the sketched operator (the only one
    the factorization retains); seminorm |L x| is exact because x lies in
    range(Q).
    """
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam}")
    b = as_vector(b, "data")
    m = approx.p.shape[0]
    if b.shape[0] != m:
        raise DimensionError(f"data length {b.shape[0]} != operator rows {m}")
    n = approx.q.shape[0]

    if approx.is_degenerate:
        x = np.zeros(n)
        sol = RegularizedSolution(
            x=x,
            lam=lam,
            method="rgsvd",
            residual_norm=float(np.linalg.norm(b)),
            seminorm=0.0,
        )
        return _with_rel_error(sol, x_true)

    # the sketched operator's left factor is P @ inner.u, so its data
    # coordinates are inner.u.T (P.T b) and |b|^2 - |eta|^2 is the energy
    # of b it cannot reach
    inner = approx.inner
    eta = inner.u.T @ (approx.p.T @ b)
    w, res, sem = _expand(inner, eta, float(b @ b), tikhonov_filters(inner, lam))
    sol = RegularizedSolution(
        x=approx.q @ w, lam=lam, method="rgsvd", residual_norm=res, seminorm=sem
    )
    return _with_rel_error(sol, x_true)
