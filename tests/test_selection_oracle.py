"""The grid-at-once selectors against the per-lambda loops they replaced."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracle_selection import gcv_grid_loop, lcurve_points_loop
from randgsvd import selection
from randgsvd.gsvd import GmpPair, GsvdFactors, gsvd_full_rank
from randgsvd.problems import TestProblemSpec, add_noise, generate
from randgsvd.rgsvd import rgsvd
from randgsvd.sampling import SamplerConfig

N = 256
EPSILON = 1e-2
SEEDS = (0, 1, 2)


def _sources(name, m):
    prob = generate(TestProblemSpec(name=name, n=N, m=None if m == N else m))
    sources = [
        rgsvd(prob.a, prob.l, EPSILON, SamplerConfig(epsilon=EPSILON, seed=s, stage2_epsilon=1e-8))
        for s in SEEDS
    ]
    if m == N:
        sources.append(gsvd_full_rank(GmpPair(prob.a, prob.l), check_rank=False))
    return sources, [add_noise(prob.b, 1e-3, j) for j in range(2)]


def _select_all(sources, datas):
    return [
        (selection.gcv_lambda(s, b), selection.lcurve_lambda(s, b)) for s in sources for b in datas
    ]


@pytest.mark.parametrize("m", [N, N // 2])
@pytest.mark.parametrize("name", ["shaw", "heat", "phillips"])
def test_grid_values_and_lambdas_match_per_lambda_loops(name, m, monkeypatch):
    # m = N runs the column-space branch (and the exact factors), m = N/2
    # the row-space branch
    sources, datas = _sources(name, m)
    grid = selection._log_grid()
    for source in sources:
        for b in datas:
            ctx = selection._make_context(source, b)
            for rows in ("projected", "ambient"):
                m_hat, floor = selection._rows(ctx, rows)
                assert_allclose(
                    selection._gcv_grid(ctx, grid, m_hat, floor),
                    gcv_grid_loop(ctx, grid, m_hat, floor),
                    rtol=1e-14,
                )
            for vec, loop in zip(selection._lcurve_points(ctx, grid), lcurve_points_loop(ctx, grid)):
                assert_allclose(vec, loop, rtol=1e-14)
    picked = _select_all(sources, datas)
    monkeypatch.setattr(selection, "_gcv_grid", gcv_grid_loop)
    monkeypatch.setattr(selection, "_lcurve_points", lcurve_points_loop)
    assert picked == _select_all(sources, datas)


def test_gcv_denominator_vanishing_on_whole_grid_raises(monkeypatch):
    # two beta = 0 directions pass unfiltered, and on this range the third
    # filter rounds to 1 as well: every dof is 3 - 3 = 0 and the residual 0
    factors = GsvdFactors(
        u=np.eye(3),
        alpha=np.array([0.6, 1.0, 1.0]),
        beta=np.array([0.8]),
        x=np.eye(3),
        r=2,
        branch="tall",
    )
    monkeypatch.setattr(selection, "LAMBDA_RANGE", (1e-10, 1e-9))
    with pytest.raises(selection.SelectionError, match="vanished"):
        selection.gcv_lambda(factors, np.ones(3))

