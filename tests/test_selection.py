import numpy as np
import pytest

from randgsvd import selection
from randgsvd.gsvd import GmpPair, GsvdFactors, gsvd_full_rank
from randgsvd.linalg import DimensionError
from randgsvd.problems import TestProblemSpec, add_noise, generate
from randgsvd.rgsvd import rgsvd
from randgsvd.sampling import SamplerConfig
from randgsvd.selection import (
    GRID_SIZE,
    LAMBDA_RANGE,
    SelectionError,
    gcv_lambda,
    gcv_truncation,
    lcurve_lambda,
)
from randgsvd.tikhonov import solve_gsvd, solve_rgsvd, solve_tgsvd, tikhonov_filters


@pytest.fixture(scope="module")
def shaw_instance():
    prob = generate(TestProblemSpec(name="shaw", n=96, delta=1e-3, seed=5))
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l), check_rank=False)
    return prob, factors


def test_gcv_interior_minimum(shaw_instance):
    prob, factors = shaw_instance
    lam, g = gcv_lambda(factors, prob.b)
    assert 1e-9 < lam < 1e1  # strictly inside the search range
    assert g > 0
    sol = solve_gsvd(factors, prob.b, lam, x_true=prob.x_true)
    assert sol.rel_error < 0.2


def test_gcv_beats_nearby_lambdas(shaw_instance):
    prob, factors = shaw_instance
    lam, g = gcv_lambda(factors, prob.b)
    from randgsvd.selection import _make_context, _gcv_value, _rows

    ctx = _make_context(factors, prob.b)
    for factor in (0.5, 0.9, 1.1, 2.0):
        assert g <= _gcv_value(ctx, lam * factor, *_rows(ctx, "projected")) * (1 + 1e-9)


def test_gcv_grid_refinement_stability(shaw_instance, monkeypatch):
    prob, factors = shaw_instance
    lams = []
    for size in (100, 400):
        monkeypatch.setattr(selection, "GRID_SIZE", size)
        lams.append(gcv_lambda(factors, prob.b)[0])
    assert lams[0] == pytest.approx(lams[1], rel=0.05)


def test_gcv_rows_modes_differ_only_for_sketched(shaw_instance):
    prob, factors = shaw_instance
    lam_p, _ = gcv_lambda(factors, prob.b, rows="projected")
    lam_a, _ = gcv_lambda(factors, prob.b, rows="ambient")
    assert lam_p == lam_a  # dense factors: both row counts equal m
    approx = rgsvd(prob.a, prob.l, 1e-2, SamplerConfig(epsilon=1e-2, seed=0))
    lam_sp, _ = gcv_lambda(approx, prob.b, rows="projected")
    lam_sa, _ = gcv_lambda(approx, prob.b, rows="ambient")
    assert lam_sp > 0 and lam_sa > 0


def test_ambient_gcv_reads_the_residual_solve_rgsvd_reports():
    # stage two saturates (l2 == l1), so the projected floor is rounding
    # noise; ambient GCV used to divide it by the ambient dof and ran to
    # the grid's lower edge (1e-10 here)
    prob = generate(TestProblemSpec(name="shaw", n=256, delta=0.0))
    b = add_noise(prob.b, 1e-3, 0)
    cfg = SamplerConfig(epsilon=1e-2, blocksize=4, seed=0, stage2_epsilon=1e-8)
    approx = rgsvd(prob.a, prob.l, 1e-2, cfg)
    assert approx.l1 == approx.l2
    lam, g = gcv_lambda(approx, b, rows="ambient")
    grid = np.logspace(np.log10(LAMBDA_RANGE[0]), np.log10(LAMBDA_RANGE[1]), GRID_SIZE)
    assert grid[1] < lam < grid[-2]
    sol = solve_rgsvd(approx, b, lam, x_true=prob.x_true)
    dof = 256 - np.sum(tikhonov_filters(approx.inner, lam))
    assert g == pytest.approx(sol.residual_norm**2 / dof**2, rel=1e-12)
    assert sol.rel_error < 0.2


def test_gcv_through_sketched_factors(shaw_instance):
    prob, _ = shaw_instance
    approx = rgsvd(prob.a, prob.l, 1e-2, SamplerConfig(epsilon=1e-2, seed=1))
    lam, _ = gcv_lambda(approx, prob.b)
    sol = solve_rgsvd(approx, prob.b, lam, x_true=prob.x_true)
    assert sol.rel_error < 0.25


def test_gcv_custom_range_respected(shaw_instance, monkeypatch):
    prob, factors = shaw_instance
    monkeypatch.setattr(selection, "LAMBDA_RANGE", (1e-2, 1e0))
    lam, _ = gcv_lambda(factors, prob.b)
    assert 1e-2 <= lam <= 1e0


def test_lcurve_corner(shaw_instance):
    prob, factors = shaw_instance
    lam, (log_rho, log_eta) = lcurve_lambda(factors, prob.b)
    assert 1e-9 < lam < 1e1
    sol = solve_gsvd(factors, prob.b, lam, x_true=prob.x_true)
    assert sol.rel_error < 0.2
    # the returned point sits on the curve: recompute at lam
    check = solve_gsvd(factors, prob.b, lam)
    assert log_rho == pytest.approx(np.log10(check.residual_norm), abs=1e-8)
    assert log_eta == pytest.approx(np.log10(check.seminorm), abs=1e-8)


def test_truncation_gcv_reasonable(shaw_instance):
    prob, factors = shaw_instance
    k, g = gcv_truncation(factors, prob.b)
    assert 1 <= k <= factors.alpha.size
    assert k <= 25  # shaw at delta 1e-3 supports only a handful of components
    assert g > 0


def _tall_factors(rng, alpha, beta, m=40):
    n = alpha.size
    return GsvdFactors(
        u=np.linalg.qr(rng.standard_normal((m, n)))[0],
        alpha=alpha,
        beta=beta,
        x=np.eye(n),
        r=0,
        branch="tall",
    )


def test_truncation_depth_never_keeps_alpha_zero_directions(rng):
    # alpha = 0 directions have the finite generalized value 0, but their
    # solution coordinates are 0 at every depth: the data energy there is
    # residual whatever k is, and solve_tgsvd accepts only k <= #(alpha > 0)
    factors = _tall_factors(rng, np.array([0.0, 0.0, 0.6, 0.8]), np.array([1.0, 1.0, 0.8, 0.6]))
    b = factors.u @ np.array([10.0, 10.0, 5.0, 5.0])
    k, g = gcv_truncation(factors, b)
    assert k == 2
    assert g == pytest.approx(200.0 / (40 - 2) ** 2, rel=1e-12)
    assert np.isfinite(solve_tgsvd(factors, b, k).x).all()
    only_zero = _tall_factors(rng, np.zeros(2), np.ones(2))
    with pytest.raises(SelectionError):
        gcv_truncation(only_zero, only_zero.u @ np.ones(2))


def test_truncation_gcv_names_projected_row_count_on_single_column_sketch():
    # deriv2 row-truncated to m = 256 keeps one column in each stage at sketch
    # seed 1: with rows="projected", m_hat = 1 and every depth k >= 1 keeps
    # at least one direction, so no depth leaves a degree of freedom
    prob = generate(TestProblemSpec(name="deriv2", n=512, m=256))
    b = add_noise(prob.b, 1e-3, 1)
    cfg = SamplerConfig(epsilon=1e-2, blocksize=4, seed=1, stage2_epsilon=1e-8)
    approx = rgsvd(prob.a, prob.l, 1e-2, cfg)
    assert (approx.l1, approx.l2, approx.branch) == (1, 1, "under")
    with pytest.raises(SelectionError, match=r"rows='projected', m_hat = 1 .*rows='ambient'"):
        gcv_truncation(approx, b)
    k, g = gcv_truncation(approx, b, rows="ambient")
    assert k == 1 and np.isfinite(g)


def test_selection_needs_regularizable_directions(rng):
    # L = 0 gives an empty beta set: no lambda dependence to select on
    a = np.linalg.qr(rng.standard_normal((12, 8)))[0]
    factors = gsvd_full_rank(GmpPair(a, np.zeros((3, 8))))
    assert factors.beta.size == 0
    with pytest.raises(SelectionError):
        gcv_lambda(factors, np.ones(12))
    with pytest.raises(SelectionError):
        lcurve_lambda(factors, np.ones(12))


def test_selection_rejects_degenerate_sketch(rng):
    approx = rgsvd(np.zeros((10, 9)), np.eye(9), 1e-2, SamplerConfig(epsilon=1e-2, seed=0))
    with pytest.raises(SelectionError):
        gcv_lambda(approx, np.ones(10))
    with pytest.raises(SelectionError):
        lcurve_lambda(approx, np.ones(10))


@pytest.mark.parametrize(
    "selector", [gcv_lambda, lcurve_lambda, gcv_truncation], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("sketched", [False, True], ids=["exact", "sketch"])
def test_selectors_reject_wrong_data_length(shaw_instance, selector, sketched):
    prob, factors = shaw_instance
    source = rgsvd(prob.a, prob.l, 1e-2, SamplerConfig(epsilon=1e-2, seed=0)) if sketched else factors
    with pytest.raises(DimensionError, match="data length 95 != operator rows 96"):
        selector(source, prob.b[:-1])
