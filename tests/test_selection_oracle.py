"""The grid-at-once selectors against the per-lambda loops they replaced,
and the in-place filter helpers against the np.where forms they replaced."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracle_selection import (
    filtered_coordinates_where,
    gcv_grid_loop,
    gcv_truncation_loop,
    gcv_where,
    lcurve_points_loop,
    residual_sq_where,
    tikhonov_filters_where,
    truncation_depths,
)
from randgsvd import selection
from randgsvd.gsvd import GmpPair, GsvdFactors, gsvd_full_rank
from randgsvd.problems import TestProblemSpec, add_noise, generate
from randgsvd.rgsvd import rgsvd
from randgsvd.sampling import SamplerConfig
from randgsvd.tikhonov import _residual_sq, _truncation_filters, filtered_coordinates, tikhonov_filters

N = 256
EPSILON = 1e-2
SEEDS = (0, 1, 2)


def _sources(name, m):
    prob = generate(TestProblemSpec(name=name, n=N, m=None if m == N else m))
    sources = [
        rgsvd(prob.a, prob.l, EPSILON, SamplerConfig(epsilon=EPSILON, seed=s))
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


@pytest.mark.parametrize("m", [N, N // 2])
@pytest.mark.parametrize("name", ["shaw", "heat", "phillips"])
def test_truncation_gcv_matches_per_depth_loop(name, m, monkeypatch):
    # heat's and phillips' exact factors at N have more finite values than
    # GRID_SIZE, so their depths are scored in two blocks; a block of 3
    # splits every source's depths
    sources, datas = _sources(name, m)
    for source in sources:
        for b in datas:
            ctx = selection._make_context(source, b)
            ks = np.arange(ctx.factors.alpha.size + 1)
            assert_array_equal(
                _truncation_filters(ctx.factors, ks), truncation_depths(ctx.factors) <= ks[:, None]
            )
            for rows in ("projected", "ambient"):
                want = gcv_truncation_loop(ctx, *selection._rows(ctx, rows))
                assert want[0] is not None
                for size in (selection.GRID_SIZE, 3):
                    with monkeypatch.context() as patch:
                        patch.setattr(selection, "GRID_SIZE", size)
                        k, g = selection.gcv_truncation(source, b, rows=rows)
                    assert (k, g.hex()) == (want[0], want[1].hex())


def test_gcv_denominator_vanishing_on_whole_grid_raises(monkeypatch):
    # two beta = 0 directions pass unfiltered, and on this range the third
    # filter rounds to 1 as well: every dof is 3 - 3 = 0 and the residual 0
    factors = GsvdFactors(
        u=np.eye(3),
        alpha=np.array([0.6, 1.0, 1.0]),
        beta=np.array([0.8]),
        x=np.eye(3),
    )
    monkeypatch.setattr(selection, "LAMBDA_RANGE", (1e-10, 1e-9))
    with pytest.raises(selection.SelectionError, match="vanished"):
        selection.gcv_lambda(factors, np.ones(3))



def _hand_factors(alpha, beta, n, seed=0):
    """GsvdFactors with the given diagonals, n columns (so offset n -
    len(alpha)), a random orthonormal U and X = I."""
    rng = np.random.default_rng(seed)
    k = len(alpha)
    u = np.linalg.qr(rng.standard_normal((k + 6, k)))[0]
    return GsvdFactors(u=u, alpha=np.array(alpha), beta=np.array(beta), x=np.eye(n))


def _filter_cases():
    """(name, factors) pairs covering exact and sketched factors, alpha = 0
    directions, a beta = 0 tail and the wide branch's offset."""
    shaw = generate(TestProblemSpec(name="shaw", n=64, delta=0.0))
    under = generate(TestProblemSpec(name="shaw", n=128, m=64, delta=0.0))
    cfg = SamplerConfig(epsilon=EPSILON, seed=0)
    rng = np.random.default_rng(5)
    low_rank = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 10))
    dead = gsvd_full_rank(GmpPair(low_rank, np.eye(10)), check_rank=False)
    assert np.count_nonzero(dead.alpha == 0.0) > 0  # psi clipped to exactly 0
    return [
        ("exact", gsvd_full_rank(GmpPair(shaw.a, shaw.l), check_rank=False)),
        ("sketch", rgsvd(shaw.a, shaw.l, EPSILON, cfg).inner),
        ("sketch-under", rgsvd(under.a, under.l, EPSILON, cfg).inner),
        ("alpha-zero", dead),
        # alpha = 0 twice, an alpha whose square underflows, a beta = 0 tail
        ("tall", _hand_factors([0.0, 0.0, 1e-170, 0.3, 0.8, 1.0], [1.0, 1.0, 1.0, 0.95, 0.6], 6)),
        # offset 2: alpha[i] pairs with beta[i + 2], and the last alpha has none
        ("wide", _hand_factors([0.0, 1e-170, 0.3, 0.8, 1.0], [1.0, 1.0, 1.0, 1.0, 0.95, 0.6], 7)),
        # every alpha lies past the end of beta: all filters pass
        ("wide-no-beta", _hand_factors([0.0, 0.5, 1.0], [1.0, 0.9], 6)),
    ]


LAMBDAS = {
    "float": 0.1,
    "float64": np.float64(1e-3),
    "0-d": np.array(2.5),
    "0-d-tiny": np.array(1e-200),  # (lam beta)^2 underflows: the denom > 0 guard fires
    "1-element": np.array([0.7]),
    "1-element-tiny": np.array([1e-200]),
    "grid": "grid",
}


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert_array_equal(got, want)
    assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("lam_id", list(LAMBDAS))
def test_in_place_filter_helpers_match_where_forms_bit_for_bit(lam_id):
    lam = selection._log_grid() if lam_id == "grid" else LAMBDAS[lam_id]
    for name, factors in _filter_cases():
        rng = np.random.default_rng(len(name))
        eta = rng.standard_normal(factors.u.shape[1])
        eta[:2] = (-0.0, 0.0)  # signed zeros reach y wherever alpha > 0
        f = tikhonov_filters(factors, lam)
        _assert_same_bits(f, tikhonov_filters_where(factors, lam))
        ks = np.arange(1, factors.alpha.size + 1)
        for filters in (f, _truncation_filters(factors, ks)):
            got = filtered_coordinates(factors, filters, eta)
            _assert_same_bits(got, filtered_coordinates_where(factors, filters, eta))
            for floor in (0.0, 0.25):
                _assert_same_bits(_residual_sq(eta, filters, floor), residual_sq_where(eta, filters, floor))
            ctx = SimpleNamespace(eta=eta)
            k = factors.alpha.size
            # m_hat = 1 leaves no degree of freedom at most lambdas: G is inf there
            for m_hat in (1, k, k + 3):
                want = gcv_where(ctx, filters, m_hat, 0.25)
                if filters.ndim == 1:
                    # the parent squared a 0-d dof by scalar power (libm pow),
                    # a path its golden refine never took: it scored a grid
                    # of one, whose dof numpy squares as x * x
                    want = gcv_where(ctx, filters[None], m_hat, 0.25)[0]
                _assert_same_bits(selection._gcv(ctx, filters, m_hat, 0.25), want)
