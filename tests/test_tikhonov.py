import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from randgsvd.gsvd import GmpPair, GmpViolationError, GsvdFactors, gsvd_full_rank
from randgsvd.linalg import DimensionError
from randgsvd.problems import TestProblemSpec, generate
from randgsvd.tikhonov import (
    TikhonovProblem,
    filtered_coordinates,
    solve_exact,
    solve_gsvd,
    solve_tgsvd,
    tikhonov_filters,
)


@pytest.fixture
def small_problem(make_gmp, rng):
    a, l = make_gmp(25, 15, 18, seed=6)
    return TikhonovProblem(a=a, l=l, b=rng.standard_normal(25))


def test_problem_validation(make_gmp, rng):
    a, l = make_gmp(10, 5, 8, seed=0)
    with pytest.raises(Exception):
        TikhonovProblem(a=a, l=l, b=np.zeros(9))  # wrong data length
    prob = TikhonovProblem(a=a, l=l, b=rng.standard_normal(10))
    assert prob.shape == (10, 5, 8)
    # construction checks no rank: the dense routes refuse a deficient stack
    deficient = TikhonovProblem(a=np.ones((4, 3)), l=np.ones((2, 3)), b=np.ones(4))
    with pytest.raises(GmpViolationError):
        solve_exact(deficient, 1.0)
    with pytest.raises(GmpViolationError):
        gsvd_full_rank(GmpPair(deficient.a, deficient.l))


@pytest.mark.parametrize("n", [60, 600])
def test_stack_with_fewer_rows_than_columns_refused(n):
    # [A; L] with n/2 + n/3 rows cannot have full column rank, at any size
    rng = np.random.default_rng(n)
    a, l = rng.standard_normal((n // 2, n)), rng.standard_normal((n // 3, n))
    msg = rf"stack has fewer rows \({n // 2 + n // 3}\) than columns \({n}\)"
    with pytest.raises(GmpViolationError, match=msg):
        TikhonovProblem(a=a, l=l, b=rng.standard_normal(n // 2))


def test_problem_without_columns_rejected():
    with pytest.raises(DimensionError, match="at least one column"):
        TikhonovProblem(a=np.zeros((3, 0)), l=np.zeros((2, 0)), b=np.ones(3))


def test_rank_deficient_stack_refused_on_dense_routes(kahan_problem):
    prob = kahan_problem
    with pytest.raises(GmpViolationError, match="column rank deficient"):
        gsvd_full_rank(GmpPair(prob.a, prob.l), check_rank=False)
    for lam in (1e-3, 1.0):
        with pytest.raises(GmpViolationError, match="numerically singular"):
            solve_exact(prob, lam)


def test_solve_exact_matches_normal_equations(small_problem):
    prob = small_problem
    for lam in (1e-2, 0.3, 2.0):
        sol = solve_exact(prob, lam)
        lhs = prob.a.T @ prob.a + lam**2 * prob.l.T @ prob.l
        x_ref = np.linalg.solve(lhs, prob.a.T @ prob.b)
        assert_allclose(sol.x, x_ref, atol=1e-10 * np.linalg.norm(x_ref))
        assert sol.residual_norm == pytest.approx(np.linalg.norm(prob.a @ sol.x - prob.b), rel=1e-10)
        assert sol.seminorm == pytest.approx(np.linalg.norm(prob.l @ sol.x), rel=1e-10, abs=1e-12)
    with pytest.raises(ValueError):
        solve_exact(prob, 0.0)


@pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0, -1.0])
def test_solves_refuse_a_lambda_that_is_not_positive_and_finite(small_problem, lam):
    # inf is refused before the filters, which would warn, and before
    # solve_exact's SVD, which would not converge
    prob = small_problem
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l))
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        solve_exact(prob, lam)
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        solve_gsvd(factors, prob.b, lam)


def test_solve_gsvd_matches_solve_exact(small_problem):
    prob = small_problem
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l))
    for lam in (1e-3, 1e-1, 1.0, 10.0):
        dense = solve_exact(prob, lam)
        fact = solve_gsvd(factors, prob.b, lam, x_true=None)
        rel = np.linalg.norm(fact.x - dense.x) / np.linalg.norm(dense.x)
        assert rel <= 1e-9
        assert fact.residual_norm == pytest.approx(dense.residual_norm, rel=1e-8)
        assert fact.seminorm == pytest.approx(dense.seminorm, rel=1e-8, abs=1e-10)


def test_filters_shape_and_limits(small_problem):
    factors = gsvd_full_rank(GmpPair(small_problem.a, small_problem.l))
    f_small = tikhonov_filters(factors, 1e-8)
    f_large = tikhonov_filters(factors, 1e8)
    assert np.all((f_small >= 0) & (f_small <= 1))
    assert np.all(f_small >= f_large)
    assert_allclose(f_small, 1.0, atol=1e-10)  # lam -> 0 passes everything
    # beta = 0 directions stay unfiltered at any lam
    r = factors.n - factors.beta.size
    if r:
        assert_allclose(f_large[-r:], 1.0)


def test_beta_zero_direction_survives_strong_regularization(rng):
    # first-difference regularizer: the constant direction is invisible to L
    # and must pass through even at huge lam
    n = 16
    prob = generate(TestProblemSpec(name="gravity", n=n, delta=0.0))
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l))
    assert factors.n - factors.beta.size == 1
    sol = solve_gsvd(factors, prob.b, 1e6)
    # x must retain the data's mean component instead of collapsing to zero
    assert abs(sol.x.mean()) > 0.1 * abs(prob.x_true.mean())
    assert np.ptp(sol.x) < 1e-3  # but all variation is smoothed away


def test_tgsvd_limits_and_validation(small_problem):
    prob = small_problem
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l))
    n = factors.alpha.size
    full = solve_tgsvd(factors, prob.b, n)
    tiny_lam = solve_gsvd(factors, prob.b, 1e-9)
    # keeping every component equals the lam -> 0 Tikhonov limit
    assert np.linalg.norm(full.x - tiny_lam.x) <= 1e-6 * np.linalg.norm(full.x)
    assert full.lam == float(n)
    assert full.method == "tgsvd"
    with pytest.raises(ValueError):
        solve_tgsvd(factors, prob.b, 0)
    with pytest.raises(ValueError):
        solve_tgsvd(factors, prob.b, n + 1)
    # a fractional depth is rejected, not floored; integer values pass
    with pytest.raises(ValueError, match="must be an integer"):
        solve_tgsvd(factors, prob.b, 2.5)
    for k in (6.0, np.int64(6)):
        assert_array_equal(solve_tgsvd(factors, prob.b, k).x, solve_tgsvd(factors, prob.b, 6).x)
    # fewer kept components -> smaller seminorm (monotone smoothing)
    sems = [solve_tgsvd(factors, prob.b, k).seminorm for k in (2, n // 2, n)]
    assert sems[0] <= sems[1] + 1e-12 and sems[1] <= sems[2] + 1e-12


def test_tgsvd_residual_keeps_alpha_zero_energy(rng):
    # one alpha = 0 and one beta = 0 direction: a depth past the finite
    # alpha > 0 values must not keep the alpha = 0 direction, whose solution
    # coordinate is 0, so its data energy 3^2 stays in the residual
    u = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    factors = GsvdFactors(
        u=u,
        alpha=np.array([0.0, 0.6, 1.0]),
        beta=np.array([1.0, 0.8]),
        x=np.eye(3),
    )
    a = u * factors.alpha  # U.T a X = diag(alpha) with X = I
    b = u @ np.array([3.0, 2.0, 1.0])
    for k in (1, 2):
        sol = solve_tgsvd(factors, b, k)
        assert sol.residual_norm == pytest.approx(3.0, rel=1e-12)
        assert sol.residual_norm == pytest.approx(np.linalg.norm(a @ sol.x - b), rel=1e-12)


def test_filtered_coordinates_guards_dead_directions(rng):
    n = 10
    basis = rng.standard_normal((n, 4))
    a = basis @ rng.standard_normal((4, n))
    factors = gsvd_full_rank(GmpPair(a, np.eye(n)), check_rank=False)
    filters = tikhonov_filters(factors, 1e-2)
    eta = rng.standard_normal(factors.u.shape[1])
    y = filtered_coordinates(factors, filters, eta)
    dead = factors.alpha <= 0
    assert np.all(y[factors.offset :][dead] == 0.0)
    assert np.all(np.isfinite(y))


def test_rel_error_populated(small_problem, rng):
    prob = small_problem
    x_true = rng.standard_normal(18)
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l))
    sol = solve_gsvd(factors, prob.b, 0.5, x_true=x_true)
    want = np.linalg.norm(sol.x - x_true) / np.linalg.norm(x_true)
    assert sol.rel_error == pytest.approx(want, rel=1e-12)
    assert solve_gsvd(factors, prob.b, 0.5).rel_error is None


def test_residuals_recomputable_from_solution(rng):
    prob = generate(TestProblemSpec(name="phillips", n=32, delta=1e-3, seed=3))
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l), check_rank=False)
    sol = solve_gsvd(factors, prob.b, 3e-2)
    assert sol.residual_norm == pytest.approx(np.linalg.norm(prob.a @ sol.x - prob.b), rel=1e-8)
    assert sol.seminorm == pytest.approx(np.linalg.norm(prob.l @ sol.x), rel=1e-8)


def test_dense_routes_accept_sparse_regularizer():
    prob = generate(TestProblemSpec(name="shaw", n=32, delta=1e-3, seed=1))
    dense_l = prob.l.toarray()
    as_dense = TikhonovProblem(a=prob.a, l=dense_l, b=prob.b, x_true=prob.x_true)
    # the exact GSVD route keeps L sparse and densifies it for the core
    pair = GmpPair(prob.a, prob.l)
    assert pair.l is prob.l
    factors = gsvd_full_rank(pair, check_rank=False)
    from_dense = gsvd_full_rank(GmpPair(prob.a, dense_l), check_rank=False)
    for field in ("u", "x", "alpha", "beta"):
        assert_array_equal(getattr(factors, field), getattr(from_dense, field))
    for lam in (1e-2, 1.0):
        s_sparse, s_dense = solve_exact(prob, lam), solve_exact(as_dense, lam)
        assert_array_equal(s_sparse.x, s_dense.x)
        assert s_sparse.seminorm == s_dense.seminorm
        assert s_sparse.rel_error == s_dense.rel_error
