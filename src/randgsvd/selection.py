"""Regularization-parameter selection: generalized cross validation and
the L-curve corner, both driven entirely by factor-space quantities.

For exact GSVD factors the data coefficients are eta = U.T b and the
residual floor is the energy of b outside range(U). For a randomized
factorization the same formulas run on the projected data P.T b, i.e. the
criteria see the sketched operator -- the one the factorization actually
retains. The GCV denominator counts projected rows by default; the
"ambient" mode switches it to the full row count of the original operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gsvd import GsvdFactors
from .linalg import as_vector
from .rgsvd import ApproxGsvd
from .tikhonov import filtered_coordinates, tikhonov_filters

LAMBDA_RANGE = (1e-10, 1e2)
GRID_SIZE = 200
REFINE_REL_WIDTH = 1e-3


class SelectionError(RuntimeError):
    """The selection criterion is degenerate on this instance."""


@dataclass(frozen=True)
class _FilterContext:
    factors: GsvdFactors
    eta: np.ndarray
    perp_sq: float
    rows_projected: int
    rows_ambient: int


def _make_context(source, b) -> _FilterContext:
    b = as_vector(b, "data")
    if isinstance(source, ApproxGsvd):
        if source.is_degenerate:
            raise SelectionError("degenerate factorization: no directions to select over")
        c = source.p.T @ b
        eta = source.inner.u.T @ c
        perp_sq = max(float(c @ c - eta @ eta), 0.0)
        return _FilterContext(
            factors=source.inner,
            eta=eta,
            perp_sq=perp_sq,
            rows_projected=c.shape[0],
            rows_ambient=b.shape[0],
        )
    if isinstance(source, GsvdFactors):
        eta = source.u.T @ b
        perp_sq = max(float(b @ b - eta @ eta), 0.0)
        return _FilterContext(
            factors=source,
            eta=eta,
            perp_sq=perp_sq,
            rows_projected=b.shape[0],
            rows_ambient=b.shape[0],
        )
    raise TypeError(f"cannot select over {type(source).__name__}")


def _rows(ctx: _FilterContext, rows: str) -> int:
    if rows == "projected":
        return ctx.rows_projected
    if rows == "ambient":
        return ctx.rows_ambient
    raise ValueError(f"rows must be 'projected' or 'ambient', got {rows!r}")


def _residual_sq(ctx: _FilterContext, f: np.ndarray):
    """Squared residual norm for a filter vector, or one per row of a
    filter matrix."""
    return np.sum(((1.0 - f) * ctx.eta) ** 2, axis=-1) + ctx.perp_sq


def _gcv_value(ctx: _FilterContext, lam: float, m_hat: int) -> float:
    # the golden-section refine's one-lambda form; its scalar dof**2 can
    # differ from the grid's in the last bit, and the refined lambda
    # follows those bits, so it stays scalar
    f = tikhonov_filters(ctx.factors, lam)
    res_sq = float(_residual_sq(ctx, f))
    dof = m_hat - float(np.sum(f))
    if dof <= 0.0:
        return np.inf
    return res_sq / dof**2


def _gcv_grid(ctx: _FilterContext, grid: np.ndarray, m_hat: int) -> np.ndarray:
    """_gcv_value at every grid point, from one (grid, k) filter matrix."""
    f = tikhonov_filters(ctx.factors, grid)
    dof = m_hat - np.sum(f, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dof > 0.0, _residual_sq(ctx, f) / dof**2, np.inf)


def _log_grid(lam_range, size) -> np.ndarray:
    lo, hi = lam_range
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid lambda range {lam_range}")
    return np.logspace(np.log10(lo), np.log10(hi), size)


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


def gcv_lambda(
    source,
    b,
    *,
    rows: str = "projected",
    lam_range: tuple[float, float] = LAMBDA_RANGE,
    grid_size: int = GRID_SIZE,
) -> tuple[float, float]:
    """Minimize the GCV functional

        G(lam) = |residual(lam)|^2 / (m_hat - sum_i f_i(lam))^2

    over a log grid, then sharpen the grid minimum by golden section.
    ``source`` is either exact GsvdFactors or an ApproxGsvd; ``rows``
    chooses m_hat (projected row count by default). Returns (lam, G(lam)).
    """
    ctx = _make_context(source, b)
    if ctx.factors.beta.shape[0] == 0:
        raise SelectionError("all filters are unity (regularizer sees nothing); GCV is flat")
    m_hat = _rows(ctx, rows)
    grid = _log_grid(lam_range, grid_size)
    vals = _gcv_grid(ctx, grid, m_hat)
    if not np.isfinite(vals).any():
        raise SelectionError("GCV denominator vanished on the whole grid")
    i = int(np.nanargmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    lam = _golden_refine(lambda t: _gcv_value(ctx, t, m_hat), lo, hi)
    return lam, _gcv_value(ctx, lam, m_hat)


def gcv_truncation(source, b, *, rows: str = "projected") -> tuple[int, float]:
    """Discrete GCV over truncation depth for TGSVD: the filter vector is
    binary, so G(k) = (residual energy of dropped directions + floor) over
    (m_hat - kept)^2. Returns (best k, G(k)).

    Directions with alpha = 0 have finite generalized value 0 but carry no
    solution component (solve_tgsvd's y is 0 there), so they always count
    as dropped: k ranges over the finite generalized values with alpha > 0,
    which is exactly the depth range solve_tgsvd accepts."""
    ctx = _make_context(source, b)
    factors = ctx.factors
    gamma = factors.gamma()
    finite_idx = np.flatnonzero(np.isfinite(gamma))
    n_fit = int(np.count_nonzero(factors.alpha[finite_idx] > 0.0))
    if n_fit == 0:
        raise SelectionError("no finite generalized values with alpha > 0 to truncate over")
    n_always = factors.alpha.shape[0] - finite_idx.size
    m_hat = _rows(ctx, rows)
    best_k, best_g = None, np.inf
    for k in range(1, n_fit + 1):
        # gamma ascends, so the alpha = 0 directions sit at the head of
        # finite_idx and are dropped for every k <= n_fit
        dropped = finite_idx[:-k]
        res_sq = float(np.sum(ctx.eta[dropped] ** 2)) + ctx.perp_sq
        dof = m_hat - (k + n_always)
        if dof <= 0:
            continue
        g = res_sq / dof**2
        if g < best_g:
            best_k, best_g = k, g
    if best_k is None:
        raise SelectionError("GCV denominator vanished for every truncation depth")
    return best_k, best_g


def _lcurve_points(ctx: _FilterContext, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residual norm, seminorm) at every grid point, from one (grid, k)
    filter matrix."""
    f = tikhonov_filters(ctx.factors, grid)
    y = filtered_coordinates(ctx.factors, f, ctx.eta)
    z = ctx.factors.beta * y[:, : ctx.factors.beta.shape[0]]
    # each (1 x k) @ (k x 1) product is the dot product np.linalg.norm takes
    # of one vector, so the seminorms keep its bits; a flat curve's corner
    # can move with the last bit of them
    sem_sq = (z[:, None, :] @ z[:, :, None])[:, 0, 0]
    return np.sqrt(_residual_sq(ctx, f)), np.sqrt(sem_sq)


def lcurve_lambda(
    source,
    b,
    *,
    lam_range: tuple[float, float] = LAMBDA_RANGE,
    grid_size: int = GRID_SIZE,
) -> tuple[float, tuple[float, float]]:
    """L-curve corner: the grid point maximizing the signed discrete
    curvature of (log residual, log seminorm) as lambda increases.

    Returns (lam, (log10 residual, log10 seminorm)) at the corner. Raises
    SelectionError when the curve has no positively curved interior point
    (flat or degenerate curve).
    """
    ctx = _make_context(source, b)
    if ctx.factors.beta.shape[0] == 0:
        raise SelectionError("regularizer seminorm is identically zero; L-curve is flat")
    grid = _log_grid(lam_range, grid_size)
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
