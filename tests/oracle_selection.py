"""Per-lambda reference loops for the selection criteria.

These are the loops randgsvd.selection ran before it evaluated the whole
lambda grid at once: one tikhonov_filters call and one reduction per grid
point. test_selection_oracle.py checks the vectorized grid against them
and swaps them into the selectors to get the reference lambdas.
"""

import numpy as np

from randgsvd.tikhonov import filtered_coordinates, tikhonov_filters


def gcv_grid_loop(ctx, grid, m_hat):
    """GCV functional at each grid point, one lambda at a time."""
    vals = []
    for lam in grid:
        f = tikhonov_filters(ctx.factors, lam)
        res_sq = float(np.sum(((1.0 - f) * ctx.eta) ** 2)) + ctx.perp_sq
        dof = m_hat - float(np.sum(f))
        vals.append(np.inf if dof <= 0.0 else res_sq / dof**2)
    return np.array(vals)


def lcurve_points_loop(ctx, grid):
    """(residual norm, seminorm) at each grid point, one lambda at a time."""
    rho = np.empty(grid.size)
    eta_norm = np.empty(grid.size)
    nb = ctx.factors.beta.shape[0]
    for j, lam in enumerate(grid):
        f = tikhonov_filters(ctx.factors, lam)
        rho[j] = np.sqrt(float(np.sum(((1.0 - f) * ctx.eta) ** 2)) + ctx.perp_sq)
        y = filtered_coordinates(ctx.factors, f, ctx.eta)
        eta_norm[j] = np.linalg.norm(ctx.factors.beta * y[:nb]) if nb else 0.0
    return rho, eta_norm
