"""Regularized least-squares solvers built on exact or sketched GSVD factors.

All solvers target

    min_x  |a @ x - b|^2 + lam^2 * |l @ x|^2

for a pair {a, l} whose stack has full column rank, so the minimizer is
unique for lam > 0. ``solve_exact`` works from the stacked augmented system
and is the reference the factored paths are tested against. ``solve_gsvd``
expands the solution in GSVD coordinates with Tikhonov filters, of exact
factors or inside the sketched subspace pair produced by the two-sided
randomized factorization (``solve_rgsvd`` is the same function), and
``solve_tgsvd`` does so in exact coordinates with truncation filters.
How data enter factor coordinates (``_project``), the residual and
seminorm of a filter, and the truncation rule are each coded once here,
and ``selection`` reads the same helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gsvd import GmpViolationError, GsvdFactors, check_pair
from .linalg import CsrMatrix, DimensionError, as_finite, as_vector, dense
from .rgsvd import ApproxGsvd


@dataclass(frozen=True)
class TikhonovProblem:
    """A discrete ill-posed instance: operator, regularizer, data, and the
    solution b was synthesized from (None for real data).

    Construction runs GmpPair's check on {a, l} (gsvd.check_pair), then
    checks b and x_true against a, all O(size of the inputs). The stack's
    column rank is refused where a route needs it: by the GSVD core's
    condition estimate, which every GSVD route runs, and by solve_exact's
    cutoff. l may be a scipy.sparse matrix; it is kept sparse (as a
    CsrMatrix, with its stored values checked) and only the dense routes
    densify it: gsvd_full_rank, the benchmark's dense factors, solve_exact
    and the error bounds.
    """

    a: np.ndarray
    l: np.ndarray | CsrMatrix
    b: np.ndarray
    x_true: np.ndarray | None = None

    def __post_init__(self):
        a, l = check_pair(self.a, self.l)
        b = as_vector(self.b, "data")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "b", b)
        if b.shape[0] != a.shape[0]:
            raise DimensionError(f"data length {b.shape[0]} != operator rows {a.shape[0]}")
        if self.x_true is not None:
            xt = as_vector(self.x_true, "x_true")
            object.__setattr__(self, "x_true", xt)
            if xt.shape[0] != a.shape[1]:
                raise DimensionError("x_true length does not match operator columns")

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
    if x_true.shape != sol.x.shape:
        raise DimensionError(f"x_true length {x_true.shape[0]} != solution length {sol.x.shape[0]}")
    denom = float(np.linalg.norm(x_true))
    if denom == 0.0:
        return sol
    return replace(sol, rel_error=float(np.linalg.norm(sol.x - x_true) / denom))


def solve_exact(prob: TikhonovProblem, lam: float) -> RegularizedSolution:
    """Reference solver: least squares on the stacked system
    [a; lam * l] @ x = [b; 0] by its thin SVD, refused when the smallest
    singular value is at or below the cutoff 1e-12 * max(m + p, n) * sigma_0."""
    lam = as_finite(lam, "lam")
    a, l, b = prob.a, dense(prob.l), prob.b
    m, p, n = prob.shape
    stacked = np.vstack([a, lam * l])
    rhs = np.concatenate([b, np.zeros(p)])
    u, sigma, vt = np.linalg.svd(stacked, full_matrices=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        raise GmpViolationError("stacked system is identically zero")
    if sigma[-1] <= 1e-12 * max(m + p, n) * float(sigma[0]):
        raise GmpViolationError(
            f"stacked system numerically singular at lam={lam} "
            f"(sigma ratio {sigma[-1] / sigma[0]:.3e})"
        )
    x = vt.T @ ((u.T @ rhs) / sigma)
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


@dataclass(frozen=True)
class _Projection:
    """Data b in a source's GSVD coordinates: the one place where data enter
    factor space, for every factored solve and every selector.

    factors          -- exact factors, or a sketch's inner ones (None if degenerate)
    eta              -- U.T c for the projected data c (b, or P.T b for a sketch)
    perp_sq          -- |c|^2 - |eta|^2, the residual floor the selectors read
    perp_sq_ambient  -- |b|^2 - |eta|^2, the residual floor the solves read
    rows_projected   -- length of c
    rows_ambient     -- length of b
    lift             -- Q for a sketch, None for exact factors
    """

    factors: GsvdFactors | None
    eta: np.ndarray
    perp_sq: float
    perp_sq_ambient: float
    rows_projected: int
    rows_ambient: int
    lift: np.ndarray | None


def _project(source, b) -> _Projection:
    """Validate b against source (GsvdFactors or ApproxGsvd) and take it
    into the source's GSVD coordinates."""
    b = as_vector(b, "data")
    if isinstance(source, ApproxGsvd):
        factors, basis, lift = source.inner, source.p, source.q
    elif isinstance(source, GsvdFactors):
        factors, basis, lift = source, source.u, None
    else:
        raise TypeError(f"cannot project data onto {type(source).__name__}")
    if b.shape[0] != basis.shape[0]:
        raise DimensionError(f"data length {b.shape[0]} != operator rows {basis.shape[0]}")
    c = b if lift is None else basis.T @ b
    eta = factors.u.T @ c if factors is not None else np.empty(0)
    eta_sq, c_sq = float(eta @ eta), float(c @ c)
    b_sq = c_sq if lift is None else float(b @ b)
    return _Projection(
        factors, eta, max(c_sq - eta_sq, 0.0), max(b_sq - eta_sq, 0.0), c.shape[0], b.shape[0], lift
    )


def _residual_sq(eta: np.ndarray, filters: np.ndarray, floor: float):
    """Squared residual norm sum(((1 - f) eta)^2) + floor for a filter
    vector, or one per row of a (grid, k) filter matrix."""
    return np.sum(((1.0 - filters) * eta) ** 2, axis=-1) + floor


def _seminorm(factors: GsvdFactors, y: np.ndarray):
    """|l x| = |diag(beta) y_head| via the L-side diagonalization, for the
    coordinates y of a filter vector or one per row of a matrix of them."""
    z = factors.beta * y[..., : factors.beta.shape[0]]
    # each (1 x k) @ (k x 1) product is the dot product np.linalg.norm takes
    # of one vector, so a single seminorm keeps its bits, and so does each
    # row of a grid; a flat L-curve's corner can move with the last bit
    return np.sqrt((z[..., None, :] @ z[..., :, None])[..., 0, 0])


def _truncation_depths(factors: GsvdFactors) -> np.ndarray:
    """The truncation rule, as the depth at which each direction enters:
    TGSVD of depth k keeps exactly the directions whose entry depth is <= k.

    beta = 0 directions enter at 0 (always kept). The finite generalized
    values with alpha > 0 enter from the largest down at 1, 2, .... Directions
    with alpha = 0 never enter (inf): their solution coordinate is 0 at any
    depth, so their data energy is residual whatever k is."""
    gamma = factors.gamma()
    fit = np.flatnonzero(np.isfinite(gamma) & (factors.alpha > 0.0))
    depths = np.where(np.isinf(gamma), 0.0, np.inf)
    # gamma ascends along the spectrum, so the largest finite generalized
    # values sit at the tail of fit
    depths[fit] = np.arange(fit.size, 0, -1)
    return depths


def _filtered_solution(
    proj: _Projection, filters: np.ndarray, lam: float, method: str, x_true
) -> RegularizedSolution:
    """The filtered GSVD expansion shared by every factored solve: x =
    Q X y (Q only for a sketch), the ambient residual and the seminorm."""
    factors = proj.factors
    y = filtered_coordinates(factors, filters, proj.eta)
    x = factors.x @ y
    if proj.lift is not None:
        x = proj.lift @ x
    res = float(np.sqrt(_residual_sq(proj.eta, filters, proj.perp_sq_ambient)))
    sem = float(_seminorm(factors, y))
    sol = RegularizedSolution(x=x, lam=lam, method=method, residual_norm=res, seminorm=sem)
    return _with_rel_error(sol, x_true)


def solve_gsvd(source, b, lam: float, x_true=None) -> RegularizedSolution:
    """Tikhonov solve in the GSVD coordinates of exact GsvdFactors
    (method "gsvd") or of an ApproxGsvd's compressed pair ("rgsvd").

    eta = U.T c for c = b (P.T b for a sketch), each direction is damped
    by its filter factor, and x is assembled from the aligned X columns
    (lifted by Q for a sketch); residual and seminorm come from the same
    expansion. A sketch's residual is against the sketched operator, so
    it includes the energy of b outside range(P), and a degenerate sketch
    gives x = 0 with residual |b|.
    """
    lam = as_finite(lam, "lam")
    proj = _project(source, b)
    method = "gsvd" if proj.lift is None else "rgsvd"
    if proj.factors is None:
        x, res = np.zeros(proj.lift.shape[0]), float(np.sqrt(proj.perp_sq_ambient))
        sol = RegularizedSolution(x=x, lam=lam, method=method, residual_norm=res, seminorm=0.0)
        return _with_rel_error(sol, x_true)
    return _filtered_solution(proj, tikhonov_filters(proj.factors, lam), lam, method, x_true)


def solve_tgsvd(
    factors: GsvdFactors, b, k: int, x_true=None
) -> RegularizedSolution:
    """Truncated GSVD solve: keep the k largest finite generalized values
    with alpha > 0 plus every direction the regularizer ignores (beta = 0);
    drop the rest, alpha = 0 directions included. k may run up to the
    number of alpha > 0 directions; a depth past the finite ones keeps them
    all. k must have an integer value (6, 6.0 and numpy integers qualify).

    The reported lam field stores float(k) since truncation depth is the
    regularization parameter here.
    """
    if not float(k).is_integer():
        raise ValueError(f"truncation depth must be an integer, got {k}")
    proj = _project(factors, b)
    n_active = int(np.count_nonzero(proj.factors.alpha > 0.0))
    if not (1 <= k <= n_active):
        raise ValueError(f"truncation depth must lie in [1, {n_active}], got {k}")
    filters = (_truncation_depths(proj.factors) <= k).astype(float)
    return _filtered_solution(proj, filters, float(k), "tgsvd", x_true)


# the sketched solve's earlier name, kept for callers that bind it
solve_rgsvd = solve_gsvd
