import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from oracle_gsvd import reconstruct, reference_gsvd, v1_factor
from randgsvd import gsvd
from randgsvd.gsvd import GmpPair, GmpViolationError, _column_norms, _gsvd_core, gsvd_full_rank
from randgsvd.linalg import RankDeficiencyError
from randgsvd.problems import first_difference


def _check_identities(pair, factors, tol=1e-10):
    scale = max(np.linalg.norm(pair.a), np.linalg.norm(pair.l), 1.0)
    d1 = factors.u.T @ pair.a @ factors.x[:, factors.offset :]
    assert np.linalg.norm(d1 - np.diag(factors.alpha)) <= tol * scale
    nb = factors.beta.size
    v1 = v1_factor(factors, pair.l)
    if nb:
        d2 = v1.T @ pair.l @ factors.x[:, :nb]
        assert np.linalg.norm(d2 - np.diag(factors.beta)) <= tol * scale
    # orthonormal columns
    assert_allclose(factors.u.T @ factors.u, np.eye(factors.u.shape[1]), atol=1e-10)
    if nb:
        assert_allclose(v1.T @ v1, np.eye(nb), atol=1e-10)
    # normalization: alpha_i^2 + beta_i^2 = 1 on the overlap
    ab = factors.beta_aligned()
    assert np.max(np.abs(factors.alpha**2 + ab**2 - 1.0)) <= 1e-12
    assert np.all(np.diff(factors.alpha) >= -1e-14)


def test_tall_branch_identities(make_gmp):
    a, l = make_gmp(40, 25, 30, seed=1)
    pair = GmpPair(a, l)
    factors = gsvd_full_rank(pair)
    assert factors.branch == "tall"
    assert factors.alpha.size == 30
    assert factors.offset == 0
    _check_identities(pair, factors)


def test_wide_branch_identities(make_gmp):
    a, l = make_gmp(18, 30, 28, seed=2)
    pair = GmpPair(a, l)
    factors = gsvd_full_rank(pair)
    assert factors.branch == "wide"
    assert factors.alpha.size == 18  # m values on the wide branch
    assert factors.offset == 28 - 18
    _check_identities(pair, factors)


def test_square_pair(make_gmp):
    a, l = make_gmp(20, 19, 20, seed=3)
    pair = GmpPair(a, l)
    factors = gsvd_full_rank(pair)
    assert factors.branch == "tall"
    _check_identities(pair, factors)


def test_reconstruct_errors_small(make_gmp):
    a, l = make_gmp(35, 20, 25, seed=4)
    pair = GmpPair(a, l)
    factors = gsvd_full_rank(pair)
    err_a, err_l = reconstruct(factors, pair)
    scale = max(np.linalg.norm(a), np.linalg.norm(l))
    assert err_a <= 1e-10 * scale
    assert err_l <= 1e-10 * scale


def test_beta_zero_block_from_regularizer_null_space(rng):
    # L with a null space (first-difference style) forces r >= 1
    n = 12
    a = rng.standard_normal((15, n))
    l = np.eye(n - 1, n) - np.eye(n - 1, n, k=1)
    pair = GmpPair(a, l)
    factors = gsvd_full_rank(pair)
    assert factors.r == 1
    assert factors.beta.size == n - 1
    assert np.all(factors.beta > 0)
    gamma = factors.gamma()
    assert np.isinf(gamma[-1]) and np.all(np.isfinite(gamma[:-1]))
    _check_identities(pair, factors)


def test_gmp_violation_detected():
    a = np.ones((4, 3))
    l = np.ones((2, 3))
    with pytest.raises(GmpViolationError):
        GmpPair(a, l)


def test_too_few_stack_rows_rejected(rng):
    with pytest.raises(GmpViolationError):
        GmpPair(rng.standard_normal((2, 6)), rng.standard_normal((3, 6)))


def test_rank_check_rejects_deficient_first_member(rng):
    # healthy stack (L = I) but A itself rank deficient on the tall branch
    n = 10
    basis = rng.standard_normal((n, 3))
    a = basis @ rng.standard_normal((3, n))
    pair = GmpPair(a, np.eye(n))
    with pytest.raises(RankDeficiencyError):
        gsvd_full_rank(pair)
    factors = gsvd_full_rank(pair, check_rank=False)
    # tolerant mode: unit factor columns, near-zero alphas on dead directions
    # (psi rounds off around 1e-15, so alpha = sqrt(psi) can reach ~1e-7)
    assert np.all(np.linalg.norm(factors.u, axis=0) <= 1.0 + 1e-12)
    assert np.count_nonzero(factors.alpha < 1e-6) == n - 3


def test_many_random_pairs_both_branches(make_gmp):
    # mirrors the acceptance sweep at reduced size: identities must hold
    # across a spread of shapes
    shapes = [(30, 10, 20), (12, 20, 25), (25, 25, 25), (40, 5, 18), (9, 30, 30)]
    for i, (m, p, n) in enumerate(shapes):
        a, l = make_gmp(m, p, n, seed=100 + i)
        pair = GmpPair(a, l)
        _check_identities(pair, gsvd_full_rank(pair))


def _reference_pairs():
    rng = np.random.default_rng(7)
    sparse_l = scipy.sparse.random(35, 30, density=0.15, random_state=8, format="csr")
    pairs = {
        "tall": (rng.standard_normal((40, 30)), rng.standard_normal((35, 30))),
        "wide": (rng.standard_normal((18, 28)), rng.standard_normal((30, 28))),
        "sparse-l": (rng.standard_normal((45, 30)), sparse_l + scipy.sparse.eye(35, 30)),
        "r>0": (rng.standard_normal((50, 40)), first_difference(40)),
    }
    return [pytest.param(name, a, l, id=name) for name, (a, l) in pairs.items()]


@pytest.mark.parametrize("name, a, l", _reference_pairs())
def test_core_matches_numpy_reference_route(name, a, l):
    pair = GmpPair(a, l)
    factors = gsvd_full_rank(pair, check_rank=False)
    ref = reference_gsvd(pair.a, pair.l)
    assert (factors.r, factors.branch) == (ref.r, ref.branch)
    assert (factors.r > 0) == (name == "r>0")
    for field in ("u", "x", "alpha", "beta"):
        got, want = getattr(factors, field), getattr(ref, field)
        assert got.shape == want.shape
        assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()), err_msg=field)
    # u comes out of a C-ordered product; x keeps the F layout of the
    # triangular solve: the solves' products were measured with these
    # layouts, and another layout gives other last bits downstream
    assert factors.u.flags.c_contiguous
    assert factors.x.flags.f_contiguous


def test_core_peak_memory_stays_under_2_3_stacks():
    # the stack is factored in place and its Q dropped once the top block
    # is copied out, the Gram matrix is the eigensolver's buffer, q1 goes
    # once U is formed and U's norms are taken a block of columns at a
    # time: the peak is set by dsyevd's 2N^2 workspace beside Q1, R and the
    # Gram matrix, about 2.2 stacks here, and 2.3 leaves a small margin
    rng = np.random.default_rng(0)
    a = rng.standard_normal((900, 600))
    l = first_difference(600).toarray()
    stack_bytes = (a.shape[0] + l.shape[0]) * a.shape[1] * a.itemsize
    tracemalloc.start()
    try:
        _gsvd_core([a, l])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * stack_bytes


def test_core_empties_the_pair_it_is_given(rng):
    pair = [rng.standard_normal((12, 8)), np.eye(8)]
    _gsvd_core(pair)
    assert pair == []


@pytest.mark.parametrize("scale", [1e-6, 1e-12, 1e6])
def test_stack_rank_test_does_not_depend_on_scale(scale):
    # the pair's scale cancels in the GSVD; the triangular factor's
    # diagonal-ratio test must not refuse a small but well-conditioned pair
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 20))
    l = np.eye(20)
    ref = gsvd_full_rank(GmpPair(a, l))
    factors = gsvd_full_rank(GmpPair(scale * a, scale * l))
    assert_allclose(factors.alpha, ref.alpha, rtol=1e-12, atol=0)


def test_stack_rank_test_refuses_a_zero_pair():
    with pytest.raises(GmpViolationError):
        _gsvd_core([np.zeros((4, 3)), np.zeros((2, 3))])


@pytest.mark.parametrize(
    "m, p, n", [(40, 35, 30), (600, 599, 600), (18, 30, 28), (2, 1, 2), (1, 3, 3), (1, 1, 1)],
    ids=["tall", "tall-large", "wide", "tiny-tall", "tiny-wide", "one"],
)
def test_core_gram_matrix_is_exactly_symmetric(make_gmp, monkeypatch, m, p, n):
    # the core hands q1.T @ q1 to symmetric_eig as it comes, without
    # symmetrizing it, and dsyevd reads only one triangle
    eig = gsvd.symmetric_eig
    seen = []

    def spy(s):
        seen.append(np.array_equal(s, s.T))
        return eig(s)

    monkeypatch.setattr(gsvd, "symmetric_eig", spy)
    a, l = make_gmp(m, p, n, seed=m + p + n)
    _gsvd_core([a, l])
    assert seen == [True]


B = gsvd.NORM_BLOCK


@pytest.mark.parametrize("n", [1, 2, B, B + 1, B + 2, 2 * B + 1])
def test_column_norms_match_numpy_bitwise(rng, n):
    # u's norms are taken a block of columns at a time; one column past a
    # whole number of blocks would be a lone last column, which numpy would
    # sum pairwise
    u = rng.standard_normal((1001, n))
    assert np.array_equal(_column_norms(u), np.linalg.norm(u, axis=0))
