import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oracle_rgsvd import sketched_identities, solve_rgsvd_pinv
from randgsvd.gsvd import GmpPair, gsvd_full_rank
from randgsvd.linalg import DimensionError
from randgsvd.problems import TestProblemSpec, first_difference, generate, shaw_matrix
from randgsvd.rgsvd import rgsvd
from randgsvd.sampling import SamplerConfig
from randgsvd.tikhonov import solve_exact, solve_gsvd, solve_rgsvd, TikhonovProblem


def _decaying(rng, m, n, rate=0.5):
    u = np.linalg.qr(rng.standard_normal((m, min(m, n))))[0]
    v = np.linalg.qr(rng.standard_normal((n, min(m, n))))[0]
    s = np.exp(-rate * np.arange(min(m, n)))
    return u @ np.diag(s) @ v.T


def test_dispatch_matches_orientation(rng):
    a_tall = _decaying(rng, 40, 30)
    l = rng.standard_normal((29, 30))
    cfg = SamplerConfig(epsilon=1e-6, blocksize=4, seed=0)
    approx = rgsvd(a_tall, l, 1e-6, cfg)
    assert approx.branch == "over"
    a_wide = _decaying(rng, 30, 40)
    approx2 = rgsvd(a_wide, rng.standard_normal((39, 40)), 1e-6, cfg)
    assert approx2.branch == "under"


def test_epsilon_must_match_sampler(rng):
    # stage one runs at the epsilon argument, so a sampler asking for a
    # different tolerance would be ignored without a word
    a = _decaying(rng, 40, 30)
    l = rng.standard_normal((29, 30))
    with pytest.raises(ValueError, match="differs from the sampler"):
        rgsvd(a, l, 1e-2, SamplerConfig(epsilon=1e-4, blocksize=4, seed=0))


# entries set to a non-finite value, as (row, column, value) triples
POISON = {
    "nan": [(3, 2, np.nan)],
    "inf": [(3, 2, np.inf)],
    "neg-inf": [(3, 2, -np.inf)],
    "inf-pair": [(3, 2, np.inf), (3, 5, -np.inf)],
    "nan-last-row": [(-1, 2, np.nan)],
    "nan-last-col": [(3, -1, np.nan)],
}


@pytest.mark.parametrize(
    "shape, poisoned, placement",
    [
        pytest.param((40, 30), "a", "nan", id="a-over"),
        pytest.param((30, 40), "a", "nan", id="a-under"),
        pytest.param((40, 30), "l", "nan", id="l"),
        *(
            pytest.param(shape, "a", placement, id=f"a-{branch}-{placement}")
            for shape, branch in (((40, 30), "over"), ((30, 40), "under"))
            for placement in POISON
            if placement != "nan"
        ),
    ],
)
def test_rejects_non_finite_input(rng, shape, poisoned, placement):
    # rgsvd reads only a's shape; stage one's range finder rejects a
    # non-finite a on either orientation from its first sketch block, and
    # l is checked before any sketching
    m, n = shape
    pair = {"a": _decaying(rng, m, n), "l": rng.standard_normal((n - 1, n))}
    for i, j, value in POISON[placement]:
        pair[poisoned][i, j] = value
    cfg = SamplerConfig(epsilon=1e-6, blocksize=4, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        rgsvd(pair["a"], pair["l"], 1e-6, cfg)


def test_sparse_regularizer_validated_at_entry(rng):
    a = _decaying(rng, 40, 30)
    b = rng.standard_normal(40)
    cfg = SamplerConfig(epsilon=1e-6, blocksize=4, seed=0)
    poisoned = first_difference(30)
    poisoned.data[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        TikhonovProblem(a=a, l=poisoned, b=b)
    with pytest.raises(ValueError, match="non-finite"):
        rgsvd(a, poisoned, 1e-6, cfg)
    with pytest.raises(DimensionError):
        TikhonovProblem(a=a, l=first_difference(31), b=b)
    with pytest.raises(DimensionError):
        rgsvd(a, first_difference(31), 1e-6, cfg)


@pytest.mark.parametrize("rows", [64, 32], ids=["over", "under"])
def test_sparse_regularizer_matches_dense_bitwise(rows):
    # each row of the sparse L @ Q sums q_i + (-q_(i+1)), the one rounding
    # the dense product makes, so every factor is identical
    a = shaw_matrix(64)[0][:rows]
    l = first_difference(64)
    cfg = SamplerConfig(epsilon=1e-6, blocksize=4, seed=3, stage2_epsilon=1e-12)
    sparse, dense = (rgsvd(a, reg, 1e-6, cfg) for reg in (l, l.toarray()))
    assert sparse.branch == ("over" if rows == 64 else "under")
    assert sparse.l2 > 0
    for field in ("p", "q"):
        assert_array_equal(getattr(sparse, field), getattr(dense, field))
    for field in ("u", "x", "alpha", "beta"):
        assert_array_equal(getattr(sparse.inner, field), getattr(dense.inner, field))


def test_sketched_identities_hold(rng):
    a = _decaying(rng, 50, 35, rate=0.7)
    l = rng.standard_normal((34, 35))
    approx = rgsvd(a, l, 1e-8, SamplerConfig(epsilon=1e-8, blocksize=5, seed=1))
    err_a, err_l = sketched_identities(approx, a, l)
    scale = max(np.linalg.norm(a), np.linalg.norm(l))
    assert err_a <= 1e-9 * scale
    assert err_l <= 1e-9 * scale
    assert 0 < approx.l1 <= 35 and 0 < approx.l2 <= approx.l1


def test_full_sampling_reproduces_exact_solution(rng, make_gmp):
    # epsilon tight enough to force full capture on tall/square pairs: the
    # sketched solve must agree with the dense oracle essentially to roundoff
    for m, p, n, seed in [(30, 19, 20, 0), (25, 10, 25, 1)]:
        a, l = make_gmp(m, p, n, seed=seed)
        prob = TikhonovProblem(a=a, l=l, b=rng.standard_normal(m))
        cfg = SamplerConfig(epsilon=1e-12, blocksize=4, seed=seed)
        approx = rgsvd(a, l, 1e-12, cfg)
        for lam in (1e-3, 1e-1, 1.0):
            dense = solve_exact(prob, lam)
            sk = solve_rgsvd(approx, prob.b, lam)
            rel = np.linalg.norm(sk.x - dense.x) / np.linalg.norm(dense.x)
            assert rel <= 1e-8


def test_under_branch_matches_range_restricted_oracle(rng, make_gmp):
    # with m < n the sketch can only span range(A'); the reference is the
    # solve restricted to that subspace (the ambient solution keeps null(A)
    # components the compression deliberately drops)
    m, p, n, seed = 15, 24, 25, 1
    a, l = make_gmp(m, p, n, seed=seed)
    b = rng.standard_normal(m)
    approx = rgsvd(a, l, 1e-12, SamplerConfig(epsilon=1e-12, blocksize=4, seed=seed))
    assert approx.branch == "under"
    q = approx.q
    for lam in (1e-3, 1e-1, 1.0):
        stacked = np.vstack([a @ q, lam * (l @ q)])
        rhs = np.concatenate([b, np.zeros(p)])
        x_ref = q @ np.linalg.lstsq(stacked, rhs, rcond=None)[0]
        for sk in (solve_rgsvd(approx, b, lam), solve_rgsvd_pinv(approx, a, l, b, lam)):
            rel = np.linalg.norm(sk.x - x_ref) / np.linalg.norm(x_ref)
            assert rel <= 1e-8


@pytest.mark.parametrize("stage2_epsilon", [None, 1e-2], ids=["stage2-default", "stage2-loose"])
def test_filter_and_pinv_paths_agree(rng, stage2_epsilon):
    # a loose stage 2 leaves l2 < l1 on branch "over": inner.u is then not
    # square, and the residual must count the part of P.T b it misses
    a = _decaying(rng, 45, 30, rate=0.4)
    l = rng.standard_normal((29, 30))
    b = rng.standard_normal(45)
    cfg = SamplerConfig(epsilon=1e-6, blocksize=4, seed=2, stage2_epsilon=stage2_epsilon)
    approx = rgsvd(a, l, 1e-6, cfg)
    for lam in (1e-3, 1e-2, 1.0):
        s1 = solve_rgsvd(approx, b, lam)
        s2 = solve_rgsvd_pinv(approx, a, l, b, lam)
        # the two routes are algebraically equal; numerically they drift by
        # roughly eps * cond of the stacked system, which lam bounds from below
        assert np.linalg.norm(s1.x - s2.x) <= 1e-8 * max(1.0, np.linalg.norm(s1.x))
        assert s1.residual_norm == pytest.approx(s2.residual_norm, rel=1e-6, abs=1e-10)
        assert s1.seminorm == pytest.approx(s2.seminorm, rel=1e-6, abs=1e-10)


def test_low_rank_saturation(rng):
    # rank-3 operator: sample counts stop at the rank, not at min(m, n)
    u = np.linalg.qr(rng.standard_normal((50, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((40, 3)))[0]
    a = u @ np.diag([4.0, 2.0, 1.0]) @ v.T
    l = np.eye(40)
    approx = rgsvd(a, l, 1e-10, SamplerConfig(epsilon=1e-10, blocksize=4, seed=3))
    assert approx.l1 <= 8 and approx.l2 <= 8
    err_a, _ = sketched_identities(approx, a, l)
    assert err_a <= 1e-9 * np.linalg.norm(a)


def test_degenerate_zero_operator():
    a = np.zeros((12, 10))
    l = np.eye(10)
    approx = rgsvd(a, l, 1e-4, SamplerConfig(epsilon=1e-4, blocksize=3, seed=0))
    assert approx.is_degenerate
    assert approx.stage1.q is approx.p and approx.stage1.ncols == 0
    assert approx.stage2 is None
    b = np.ones(12)
    sol = solve_rgsvd(approx, b, 0.5)
    assert_array_equal(sol.x, np.zeros(10))
    assert sol.residual_norm == pytest.approx(np.linalg.norm(b))


@pytest.mark.parametrize("solve", [solve_gsvd, solve_rgsvd], ids=["solve_gsvd", "solve_rgsvd"])
def test_either_solve_name_takes_a_sketch(rng, solve):
    # one Tikhonov solve serves exact factors and sketches alike: a
    # degenerate sketch gives x = 0 and the residual |b|, and a sketch's
    # result is labelled "rgsvd" whichever name it was solved under
    l = first_difference(10)
    b = np.ones(12)
    cfg = SamplerConfig(epsilon=1e-4, blocksize=3, seed=0)
    zero = rgsvd(np.zeros((12, 10)), l, 1e-4, cfg)
    assert zero.is_degenerate
    sol = solve(zero, b, 0.5)
    assert_array_equal(sol.x, np.zeros(10))
    assert sol.residual_norm == pytest.approx(np.linalg.norm(b), rel=1e-15)
    assert (sol.method, sol.seminorm) == ("rgsvd", 0.0)
    approx = rgsvd(_decaying(rng, 12, 10), l, 1e-4, cfg)
    assert not approx.is_degenerate
    assert solve(approx, b, 0.5).method == "rgsvd"


def test_stage_metadata_kept_on_row_space_branch():
    # stage one sketches the 2048-row transposed view of the row-truncated
    # shaw kernel, where one pass forms several blocks
    prob = generate(TestProblemSpec(name="shaw", n=2048, m=1024))
    approx = rgsvd(prob.a, prob.l, 1e-2, SamplerConfig(epsilon=1e-2, blocksize=4, seed=5))
    assert approx.branch == "under"
    assert approx.stage1.q is approx.q and approx.stage2.q is approx.p
    assert (approx.stage1.ncols, approx.stage2.ncols) == (approx.l1, approx.l2)
    assert approx.stage1.passes < approx.stage1.blocks_consumed
    assert approx.stage1.triggered_diag <= 1e-2


def test_under_branch_alignment(rng):
    a = _decaying(rng, 25, 60, rate=0.6)
    l = rng.standard_normal((59, 60))
    approx = rgsvd(a, l, 1e-8, SamplerConfig(epsilon=1e-8, blocksize=4, seed=4))
    assert approx.branch == "under"
    assert approx.inner is not None
    # the inner pair is l2 x l1: wide exactly when stage 2 dropped columns
    assert approx.inner.branch == ("wide" if approx.l2 < approx.l1 else "tall")
    assert approx.q.shape == (60, approx.inner.n)
    err_a, err_l = sketched_identities(approx, a, l)
    scale = max(np.linalg.norm(a), np.linalg.norm(l))
    assert max(err_a, err_l) <= 1e-9 * scale


def test_under_branch_wide_inner_via_loose_stage2(rng):
    # a looser stage-2 tolerance drops columns, exercising the wide inner
    # branch and its leading zero block in the filtered coordinates
    a = _decaying(rng, 25, 60, rate=0.6)
    l = rng.standard_normal((59, 60))
    cfg = SamplerConfig(epsilon=1e-10, blocksize=4, seed=7, stage2_epsilon=1e-2)
    approx = rgsvd(a, l, 1e-10, cfg)
    assert approx.branch == "under"
    assert approx.l2 < approx.l1
    assert approx.inner.branch == "wide"
    assert approx.inner.offset == approx.l1 - approx.l2
    b = rng.standard_normal(25)
    for lam in (1e-2, 1.0):
        s1 = solve_rgsvd(approx, b, lam)
        s2 = solve_rgsvd_pinv(approx, a, l, b, lam)
        assert np.linalg.norm(s1.x - s2.x) <= 1e-9 * max(1.0, np.linalg.norm(s2.x))


def test_determinism_per_seed(rng):
    a = _decaying(rng, 40, 30)
    l = rng.standard_normal((29, 30))
    c1 = rgsvd(a, l, 1e-6, SamplerConfig(epsilon=1e-6, blocksize=4, seed=9))
    c2 = rgsvd(a, l, 1e-6, SamplerConfig(epsilon=1e-6, blocksize=4, seed=9))
    assert_array_equal(c1.p, c2.p)
    assert_array_equal(c1.q, c2.q)
    assert_array_equal(c1.inner.x, c2.inner.x)
    c3 = rgsvd(a, l, 1e-6, SamplerConfig(epsilon=1e-6, blocksize=4, seed=10))
    assert c1.l1 != c3.l1 or not np.array_equal(c1.p, c3.p)


def test_compressed_pair_freed_once_stacked():
    # l1 = l2 = 1000: the core's stack is (1000 + 999) x 1000. Besides p and
    # q, the factorization peaks at 2.51 stacks when the core frees
    # P.T A Q and L Q once stacked, and at 4.01 when they stay alive
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1200, 1000))
    l = first_difference(1000)
    tracemalloc.start()
    try:
        approx = rgsvd(a, l, 1e-2, SamplerConfig(epsilon=1e-2, blocksize=64, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert approx.l1 == approx.l2 == 1000
    stack_bytes = (approx.l1 + l.shape[0]) * approx.l2 * 8
    assert peak - approx.p.nbytes - approx.q.nbytes <= 2.75 * stack_bytes
