"""Regularization-parameter selection: generalized cross validation and
the L-curve corner, both driven entirely by factor-space quantities.

The data enter factor space through ``tikhonov._project``, which also
forms the residual floor; the residual, the seminorm and the truncation
rule are tikhonov's as well, so a selector and the solve it feeds agree.
For exact GSVD factors the data coefficients are eta = U.T b and the
residual floor is the energy of b outside range(U). For a randomized
factorization the same formulas run on the projected data P.T b, i.e. the
criteria see the sketched operator -- the one the factorization actually
retains. GCV counts projected rows by default; the "ambient" mode counts
the full row count of the original operator and, to match it, takes the
ambient residual floor, the energy of b outside the sketched operator's
range, which is the residual solve_gsvd reports on a sketch. The two
modes agree on exact factors.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tikhonov import (
    _project,
    _Projection,
    _residual_sq,
    _seminorm,
    _truncation_depths,
    filtered_coordinates,
    tikhonov_filters,
)

LAMBDA_RANGE = (1e-10, 1e2)
GRID_SIZE = 200
REFINE_REL_WIDTH = 1e-3


class SelectionError(RuntimeError):
    """The selection criterion is degenerate on this instance."""


def _make_context(source, b) -> _Projection:
    ctx = _project(source, b)
    if ctx.factors is None:
        raise SelectionError("degenerate factorization: no directions to select over")
    return ctx


def _rows(ctx: _Projection, rows: str) -> tuple[int, float]:
    """GCV's row count m_hat and the residual floor that goes with it."""
    if rows == "projected":
        return ctx.rows_projected, ctx.perp_sq
    if rows == "ambient":
        return ctx.rows_ambient, ctx.perp_sq_ambient
    raise ValueError(f"rows must be 'projected' or 'ambient', got {rows!r}")


def _gcv_value(ctx: _Projection, lam: float, m_hat: int, floor: float) -> float:
    # the golden-section refine's one-lambda form; its scalar dof**2 can
    # differ from the grid's in the last bit, and the refined lambda
    # follows those bits, so it stays scalar
    f = tikhonov_filters(ctx.factors, lam)
    res_sq = float(_residual_sq(ctx.eta, f, floor))
    dof = m_hat - float(np.sum(f))
    if dof <= 0.0:
        return np.inf
    return res_sq / dof**2


def _gcv_grid(ctx: _Projection, grid: np.ndarray, m_hat: int, floor: float) -> np.ndarray:
    """_gcv_value at every grid point, from one (grid, k) filter matrix."""
    f = tikhonov_filters(ctx.factors, grid)
    dof = m_hat - np.sum(f, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dof > 0.0, _residual_sq(ctx.eta, f, floor) / dof**2, np.inf)


def _log_grid() -> np.ndarray:
    """GRID_SIZE lambdas log-spaced across LAMBDA_RANGE, both read at call
    time, so a test can monkeypatch them."""
    lo, hi = LAMBDA_RANGE
    return np.logspace(np.log10(lo), np.log10(hi), GRID_SIZE)


def _golden_refine(fun: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section minimization of fun(10**t) on [log10 lo, log10 hi]
    down to REFINE_REL_WIDTH relative width in lambda."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log10(lo), np.log10(hi)
    target = np.log10(1.0 + REFINE_REL_WIDTH)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(10.0**c), fun(10.0**d)
    while (b - a) > target:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(10.0**c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(10.0**d)
    return 10.0 ** (0.5 * (a + b))


def gcv_lambda(source, b, *, rows: str = "projected") -> tuple[float, float]:
    """Minimize the GCV functional

        G(lam) = |residual(lam)|^2 / (m_hat - sum_i f_i(lam))^2

    over the lambda grid (GRID_SIZE points log-spaced across LAMBDA_RANGE),
    then sharpen the grid minimum by golden section. ``source`` is either
    exact GsvdFactors or an ApproxGsvd; ``rows`` chooses m_hat and the
    residual's floor (projected by default; see the module docstring).
    Returns (lam, G(lam)).
    """
    ctx = _make_context(source, b)
    if ctx.factors.beta.shape[0] == 0:
        raise SelectionError("all filters are unity (regularizer sees nothing); GCV is flat")
    m_hat, floor = _rows(ctx, rows)
    grid = _log_grid()
    vals = _gcv_grid(ctx, grid, m_hat, floor)
    if not np.isfinite(vals).any():
        raise SelectionError("GCV denominator vanished on the whole grid")
    i = int(np.nanargmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    lam = _golden_refine(lambda t: _gcv_value(ctx, t, m_hat, floor), lo, hi)
    return lam, _gcv_value(ctx, lam, m_hat, floor)


def gcv_truncation(source, b, *, rows: str = "projected") -> tuple[int, float]:
    """Discrete GCV over truncation depth for TGSVD: the filter vector is
    binary, so G(k) = (residual energy of dropped directions + floor) over
    (m_hat - kept)^2. Returns (best k, G(k)).

    Depth k keeps what solve_tgsvd keeps at k. k ranges over the finite
    generalized values with alpha > 0, a subset of the depths solve_tgsvd
    accepts: those may run up to the number of alpha > 0 directions, and
    every depth past the finite values keeps the same directions."""
    ctx = _make_context(source, b)
    depths = _truncation_depths(ctx.factors)
    n_fit = int(np.max(depths, initial=0.0, where=np.isfinite(depths)))
    if n_fit == 0:
        raise SelectionError("no finite generalized values with alpha > 0 to truncate over")
    m_hat, floor = _rows(ctx, rows)
    best_k, best_g = None, np.inf
    for k in range(1, n_fit + 1):
        f = (depths <= k).astype(float)
        dof = m_hat - int(np.count_nonzero(f))
        if dof <= 0:
            continue
        g = float(_residual_sq(ctx.eta, f, floor)) / dof**2
        if g < best_g:
            best_k, best_g = k, g
    if best_k is None:
        hint = "; rows='ambient' counts the operator's rows instead" if rows == "projected" else ""
        raise SelectionError(
            f"GCV denominator vanished for every truncation depth: with rows={rows!r}, "
            f"m_hat = {m_hat} and no depth k >= 1 leaves m_hat - kept > 0{hint}"
        )
    return best_k, best_g


def _lcurve_points(ctx: _Projection, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residual norm, seminorm) at every grid point, from one (grid, k)
    filter matrix."""
    f = tikhonov_filters(ctx.factors, grid)
    y = filtered_coordinates(ctx.factors, f, ctx.eta)
    return np.sqrt(_residual_sq(ctx.eta, f, ctx.perp_sq)), _seminorm(ctx.factors, y)


def lcurve_lambda(source, b) -> tuple[float, tuple[float, float]]:
    """L-curve corner: the point of gcv_lambda's lambda grid maximizing the
    signed discrete curvature of (log residual, log seminorm) as lambda
    increases.

    Returns (lam, (log10 residual, log10 seminorm)) at the corner. Raises
    SelectionError when the curve has no positively curved interior point
    (flat or degenerate curve).
    """
    ctx = _make_context(source, b)
    if ctx.factors.beta.shape[0] == 0:
        raise SelectionError("regularizer seminorm is identically zero; L-curve is flat")
    grid = _log_grid()
    rho, sem = _lcurve_points(ctx, grid)
    tiny = 1e-300
    x = np.log(np.maximum(rho, tiny))
    y = np.log(np.maximum(sem, tiny))
    h = np.log(grid[1]) - np.log(grid[0])
    xp = (x[2:] - x[:-2]) / (2 * h)
    yp = (y[2:] - y[:-2]) / (2 * h)
    xpp = (x[2:] - 2 * x[1:-1] + x[:-2]) / h**2
    ypp = (y[2:] - 2 * y[1:-1] + y[:-2]) / h**2
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (xp * ypp - yp * xpp) / np.power(xp**2 + yp**2, 1.5)
    kappa[~np.isfinite(kappa)] = -np.inf
    if kappa.size == 0 or np.max(kappa) <= 0.0:
        raise SelectionError("L-curve has no corner (flat curve)")
    i = int(np.argmax(kappa)) + 1
    corner = (float(np.log10(max(rho[i], tiny))), float(np.log10(max(sem[i], tiny))))
    return float(grid[i]), corner
