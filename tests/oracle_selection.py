"""Per-lambda and per-depth reference loops for the selection criteria.

These are the loops randgsvd.selection ran before it evaluated the whole
lambda grid at once: one tikhonov_filters call and one reduction per grid
point, each G squared by Python's float power. test_selection_oracle.py
checks the vectorized grid against them and swaps them into the selectors
to get the reference lambdas, so the golden refine, which scores each
lambda 0-d through the grid's evaluator, is checked against the scalar
formula.
gcv_truncation_loop is gcv_truncation as it was before it
scored the depths a block at a time: one filter vector per depth, from
the rule truncation_depths, which ranks directions by their generalized
values alpha / beta.

The *_where functions are the filter helpers as they were before the
factors held their per-direction terms: each forms beta aligned with
alpha and alpha^2 on every call and masks with nested np.where under
errstate. test_selection_oracle.py checks the in-place helpers against
them bit for bit, the sign of every zero included.
"""

import numpy as np

from randgsvd.tikhonov import filtered_coordinates, tikhonov_filters


def gcv_grid_loop(ctx, grid, m_hat, floor):
    """GCV functional at each grid point, one lambda at a time, with m_hat
    rows and the residual floor that goes with them; a 0-d lambda, as the
    golden refine passes, gives a 0-d value."""
    vals = []
    for lam in np.ravel(grid):
        f = tikhonov_filters(ctx.factors, lam)
        res_sq = float(np.sum(((1.0 - f) * ctx.eta) ** 2)) + floor
        dof = m_hat - float(np.sum(f))
        vals.append(np.inf if dof <= 0.0 else res_sq / dof**2)
    return np.reshape(vals, np.shape(grid))


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


def truncation_depths(factors):
    """The depth at which each direction enters TGSVD: beta = 0 directions
    at 0 (always kept), the finite generalized values with alpha > 0 from
    the largest down at 1, 2, ..., alpha = 0 directions never (inf)."""
    beta = factors.filter_terms.beta
    gamma = np.full(factors.alpha.shape[0], np.inf)
    finite = beta > 0.0
    gamma[finite] = factors.alpha[finite] / beta[finite]
    fit = np.flatnonzero(np.isfinite(gamma) & (factors.alpha > 0.0))
    depths = np.where(np.isinf(gamma), 0.0, np.inf)
    # gamma ascends along the spectrum: the largest sit at the tail of fit
    depths[fit] = np.arange(fit.size, 0, -1)
    return depths


def gcv_truncation_loop(ctx, m_hat, floor):
    """(best depth, G) of discrete GCV, one depth at a time, keeping the
    first strict minimum; (None, inf) when no depth leaves a degree of
    freedom."""
    depths = truncation_depths(ctx.factors)
    n_fit = int(np.max(depths, initial=0.0, where=np.isfinite(depths)))
    best_k, best_g = None, np.inf
    for k in range(1, n_fit + 1):
        f = (depths <= k).astype(float)
        dof = m_hat - int(np.count_nonzero(f))
        if dof <= 0:
            continue
        g = (float(np.sum(((1.0 - f) * ctx.eta) ** 2)) + floor) / dof**2
        if g < best_g:
            best_k, best_g = k, g
    return best_k, best_g


def beta_aligned_where(factors):
    """beta aligned with alpha, 0.0 where beta is absent, by index gather."""
    k0 = factors.offset
    nb = factors.beta.shape[0]
    idx = np.arange(factors.alpha.shape[0]) + k0
    out = np.zeros_like(factors.alpha)
    inside = idx < nb
    out[inside] = factors.beta[idx[inside]]
    return out


def tikhonov_filters_where(factors, lam):
    alpha = factors.alpha
    beta = beta_aligned_where(factors)
    denom = alpha**2 + (np.asarray(lam)[..., None] * beta) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(denom > 0.0, alpha**2 / np.where(denom > 0.0, denom, 1.0), 1.0)
    return np.where(beta > 0.0, f, 1.0)


def filtered_coordinates_where(factors, filters, eta):
    alpha = factors.alpha
    with np.errstate(invalid="ignore", divide="ignore"):
        active = np.where(alpha > 0.0, filters * eta / np.where(alpha > 0.0, alpha, 1.0), 0.0)
    y = np.zeros(active.shape[:-1] + (factors.n,))
    y[..., factors.offset :] = active
    return y


def residual_sq_where(eta, filters, floor):
    return np.sum(((1.0 - filters) * eta) ** 2, axis=-1) + floor


def gcv_where(ctx, f, m_hat, floor):
    dof = m_hat - np.sum(f, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dof > 0.0, residual_sq_where(ctx.eta, f, floor) / dof**2, np.inf)
