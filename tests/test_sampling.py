import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracle_sampling import per_block_range_finder, verify_expectation_identity
from randgsvd.problems import TestProblemSpec, generate, phillips_matrix
from randgsvd.sampling import (
    _WINDOW_MIN_BYTES,
    _WINDOW_ROW_MULTIPLE,
    SamplerConfig,
    adaptive_range_finder,
    uniform_test_matrix,
)


def test_uniform_test_matrix_range_and_moments():
    omega = uniform_test_matrix(400, 50, seed=7)
    assert omega.shape == (400, 50)
    s3 = np.sqrt(3.0)
    assert omega.min() >= -s3 and omega.max() <= s3
    # mean 0, variance 1 for U[-sqrt(3), sqrt(3)]
    assert abs(omega.mean()) < 0.02
    assert abs(omega.var() - 1.0) < 0.02
    assert_array_equal(omega, uniform_test_matrix(400, 50, seed=7))
    assert not np.array_equal(omega, uniform_test_matrix(400, 50, seed=8))


def test_uniform_test_matrix_takes_a_numpy_integer_seed():
    # masked as an int, not overflowed, it gives the int seed's bits
    assert_array_equal(uniform_test_matrix(40, 5, seed=np.int64(7)), uniform_test_matrix(40, 5, seed=7))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(epsilon=1e-2, blocksize=0)
    with pytest.raises(ValueError):
        SamplerConfig(epsilon=1e-2, seed=-1)
    cfg = SamplerConfig(epsilon=1e-2)
    assert cfg.blocksize == 4 and cfg.seed == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", np.inf),
        ("stage2_epsilon", -1.0),
        ("stage2_epsilon", 0.0),
        ("stage2_epsilon", np.nan),
        ("stage2_epsilon", np.inf),
        ("blocksize", 2.5),
        ("seed", 1.5),
    ],
)
def test_sampler_config_refuses_what_no_run_honors(field, value):
    # each used to be accepted, and then gave NaN rows, a refusal that
    # named epsilon for stage two, or a TypeError deep inside rgsvd
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SamplerConfig(**{"epsilon": 1e-2, field: value})


def test_sampler_config_takes_numpy_integers():
    cfg = SamplerConfig(epsilon=1e-2, blocksize=np.int64(3), seed=np.int64(5))
    assert type(cfg.blocksize) is int and type(cfg.seed) is int
    assert cfg == SamplerConfig(epsilon=1e-2, blocksize=3, seed=5)


def test_identity_is_captured_completely():
    # nothing decays, so the basis must grow to the full dimension
    cfg = SamplerConfig(epsilon=1e-6, blocksize=3, seed=1)
    basis = adaptive_range_finder(np.eye(8), cfg)
    assert basis.ncols == 8
    assert_allclose(basis.q.T @ basis.q, np.eye(8), atol=1e-12)
    assert_allclose(basis.q @ (basis.q.T @ np.eye(8)), np.eye(8), atol=1e-12)


def test_zero_matrix_yields_empty_basis():
    cfg = SamplerConfig(epsilon=1e-3, blocksize=2, seed=0)
    basis = adaptive_range_finder(np.zeros((9, 6)), cfg)
    assert basis.ncols == 0
    assert basis.triggered_diag is not None


def test_low_rank_saturates_at_rank(rng):
    u = np.linalg.qr(rng.standard_normal((40, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((25, 3)))[0]
    a = u @ np.diag([5.0, 2.0, 1.0]) @ v.T
    basis = adaptive_range_finder(a, SamplerConfig(epsilon=1e-8, blocksize=4, seed=3))
    assert basis.ncols <= 6  # rank 3 plus at most one extra block
    assert np.linalg.norm(a - basis.q @ (basis.q.T @ a)) < 1e-8


def test_tolerance_monotonicity(rng):
    a = rng.standard_normal((60, 60))
    # make the spectrum decay
    u, s, vt = np.linalg.svd(a)
    a = u @ np.diag(np.exp(-0.4 * np.arange(60))) @ vt
    sizes = []
    for eps in (1e-1, 1e-3, 1e-6):
        basis = adaptive_range_finder(a, SamplerConfig(epsilon=eps, blocksize=4, seed=5))
        sizes.append(basis.ncols)
        err = np.linalg.norm(a - basis.q @ (basis.q.T @ a))
        assert err <= 10 * eps  # deflated-diagonal trigger tracks the tail closely
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_determinism_and_seed_sensitivity(rng):
    a = rng.standard_normal((50, 30))
    cfg = SamplerConfig(epsilon=1e-4, blocksize=5, seed=11)
    b1 = adaptive_range_finder(a, cfg)
    b2 = adaptive_range_finder(a, cfg)
    assert_array_equal(b1.q, b2.q)
    b3 = adaptive_range_finder(a, SamplerConfig(epsilon=1e-4, blocksize=5, seed=12))
    assert b1.ncols != b3.ncols or not np.array_equal(b1.q, b3.q)


def test_blocksize_must_fit():
    # a block as wide as the target or wider is narrowed to n - 1 columns:
    # on 6 columns, blocksize 64 draws the blocks of blocksize 5
    a = np.random.default_rng(3).standard_normal((20, 6))
    wide = adaptive_range_finder(a, SamplerConfig(epsilon=1e-12, blocksize=64, seed=2))
    fit = adaptive_range_finder(a, SamplerConfig(epsilon=1e-12, blocksize=5, seed=2))
    assert_array_equal(wide.q, fit.q)
    assert wide.blocks_consumed == fit.blocks_consumed == 2
    # a one-column target takes a single-column block
    basis = adaptive_range_finder(np.ones((3, 1)), SamplerConfig(epsilon=1e-2, blocksize=4))
    assert basis.ncols == 1


def test_wide_target_basis_stops_at_its_row_count():
    # on a wide target the deflated blocks past the m-th column are rounding
    # noise, which the scale lifts above epsilon; the basis is still capped
    # at min(a.shape) = 10 columns and stays orthonormal
    a = np.random.default_rng(0).standard_normal((10, 100)) * 1e12
    cfg = SamplerConfig(epsilon=1e-3, blocksize=4, seed=0)
    basis = adaptive_range_finder(a, cfg)
    assert basis.ncols == 10 and basis.triggered_diag is None
    assert_allclose(basis.q.T @ basis.q, np.eye(10), atol=1e-12)
    q, blocks, triggered = per_block_range_finder(a, cfg)
    assert_array_equal(basis.q, q)
    assert (basis.blocks_consumed, basis.triggered_diag) == (blocks, triggered)


def test_passes_count_products_with_the_target():
    cfg = SamplerConfig(epsilon=1e-2, blocksize=4, seed=0)
    a, _ = phillips_matrix(2048)
    assert a.nbytes >= _WINDOW_MIN_BYTES
    basis = adaptive_range_finder(a, cfg)
    assert (basis.blocks_consumed, basis.passes) == (8, 2)
    small, _ = phillips_matrix(512)
    assert small.nbytes < _WINDOW_MIN_BYTES
    basis = adaptive_range_finder(small, cfg)
    assert basis.blocks_consumed > 1
    assert basis.passes == basis.blocks_consumed


@pytest.fixture(scope="module")
def window_target():
    # 18003 x 61 (8.4 MB, above the window limit) with singular values
    # 1 ... 1e-8: n = 61 leaves a trailing width-1 block for blocksizes 2-5
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.standard_normal((18003, 61)))[0]
    v = np.linalg.qr(rng.standard_normal((61, 61)))[0]
    a = (u * np.logspace(0, -8, 61)) @ v.T
    assert a.nbytes >= _WINDOW_MIN_BYTES
    return a


def _transposed_view(a):
    return np.ascontiguousarray(a.T).T


# "transposed" keeps all 18003 rows (not a multiple of 8: one block per
# pass); "transposed-18000" drops three, which makes the view qualify
@pytest.mark.parametrize("layout", ["C", "transposed", "transposed-18000"])
@pytest.mark.parametrize("blocksize", [2, 3, 4, 5])
@pytest.mark.parametrize("run", ["to_last_block", "stop_in_first_window"])
def test_windowed_passes_match_per_block_oracle(window_target, layout, blocksize, run):
    rows = 18000 if layout == "transposed-18000" else 18003
    a = window_target if layout == "C" else _transposed_view(window_target[:rows])
    assert a.nbytes >= _WINDOW_MIN_BYTES
    assert (a.shape[0] % _WINDOW_ROW_MULTIPLE == 0) == (layout == "transposed-18000")
    epsilon = 0.3 if run == "stop_in_first_window" else 1e-11
    cfg = SamplerConfig(epsilon=epsilon, blocksize=blocksize, seed=3)
    q, blocks, triggered = per_block_range_finder(a, cfg)
    basis = adaptive_range_finder(a, cfg)
    assert_array_equal(basis.q, q)
    assert basis.blocks_consumed == blocks
    assert basis.triggered_diag == triggered
    if run == "to_last_block":
        assert basis.ncols == 61 and triggered is None  # the width-1 block was used
    else:
        assert triggered is not None and blocks < 16 // blocksize  # look-ahead blocks dropped
    if layout == "transposed":
        assert basis.passes == blocks
    else:
        assert basis.passes < blocks


# The basis grows in a buffer that deflation reads as a strided view. Every
# case runs one product per block, and the basis ends below the buffer's
# capacity ("rank" runs, which stop early) or fills it ("full" runs):
# blocksize 1 deflates every block through gemv, on a contiguous copy; the
# 2048 x 30 target is under _WINDOW_MIN_BYTES, like stage two's A.T P; and
# blocksize 64 on 600 columns grows the buffer four times.
@pytest.mark.parametrize(
    "shape, blocksize, rank",
    [
        ((2048, 30), 1, 20),
        ((2048, 30), 1, 30),
        ((2048, 30), 4, 21),
        ((2048, 30), 4, 30),
        ((2500, 600), 64, 450),
        ((2500, 600), 64, 600),
    ],
    ids=["bs1-stop", "bs1-full", "small-stop", "small-full", "bs64-stop", "bs64-full"],
)
def test_basis_buffer_matches_per_block_oracle(shape, blocksize, rank):
    rng = np.random.default_rng(11)
    m, n = shape
    a = rng.standard_normal(shape)
    if rank < n:
        a = a[:, :rank] @ rng.standard_normal((rank, n))
    cfg = SamplerConfig(epsilon=1e-6, blocksize=blocksize, seed=4)
    q, blocks, triggered = per_block_range_finder(a, cfg)
    basis = adaptive_range_finder(a, cfg)
    assert_array_equal(basis.q, q)
    assert basis.q.flags.c_contiguous
    assert (basis.blocks_consumed, basis.triggered_diag) == (blocks, triggered)
    assert basis.ncols == rank and basis.passes == blocks
    assert (triggered is None) == (rank == n)


@pytest.mark.parametrize(
    "name, blocks", [("shaw", 2), ("heat", 3), ("phillips", 4)], ids=["shaw", "heat", "phillips"]
)
def test_row_space_sketch_of_truncated_kernel_takes_one_pass(name, blocks):
    # stage one on the row-space branch of a row-truncated kernel (n = 2048,
    # m = 1024): the target is the 2048-row transposed view of A, which
    # qualifies for windows, so one pass forms every block
    t = generate(TestProblemSpec(name=name, n=2048, m=1024)).a.T
    assert t.flags.f_contiguous and t.nbytes >= _WINDOW_MIN_BYTES
    cfg = SamplerConfig(epsilon=1e-2, blocksize=4, seed=5)
    q, expected_blocks, triggered = per_block_range_finder(t, cfg)
    basis = adaptive_range_finder(t, cfg)
    assert_array_equal(basis.q, q)
    assert (basis.blocks_consumed, basis.passes) == (expected_blocks, 1) == (blocks, 1)
    assert basis.triggered_diag == triggered


@pytest.mark.parametrize(
    "placement",
    ["nan-first", "nan-last-row", "nan-last-col", "inf", "neg-inf", "inf-pair"],
)
@pytest.mark.parametrize("path", ["windowed", "transposed", "transposed-windowed", "gemv"])
def test_non_finite_target_rejected_from_first_block(window_target, path, placement):
    # every entry of the target enters a row of the first sketch block, so
    # that block is non-finite on each product path: a 16-column window on
    # a C-ordered 8.4 MB target, one block per pass on a transposed view of
    # 18003 rows, F-ordered slices of a window on one of 18000 rows, and
    # gemv for blocksize 1
    rows = 18000 if path == "transposed-windowed" else 18003
    a = _transposed_view(window_target[:rows]) if path.startswith("transposed") else window_target.copy()
    entries = {
        "nan-first": [(0, 0, np.nan)],
        "nan-last-row": [(-1, 7, np.nan)],
        "nan-last-col": [(5, -1, np.nan)],
        "inf": [(5, 7, np.inf)],
        "neg-inf": [(5, 7, -np.inf)],
        "inf-pair": [(5, 7, np.inf), (5, 40, -np.inf)],
    }[placement]
    for i, j, value in entries:
        a[i, j] = value
    cfg = SamplerConfig(epsilon=1e-11, blocksize=1 if path == "gemv" else 4, seed=3)
    with pytest.raises(ValueError, match="non-finite sketch in block 1:") as err:
        adaptive_range_finder(a, cfg)
    assert "NaN or inf entry" in str(err.value) and "overflows" in str(err.value)


@pytest.mark.parametrize("seed, block", [(0, 1), (1, 3)], ids=["first-block", "later-block"])
def test_sketch_overflow_raises_with_reason(seed, block):
    # every entry is finite, but some sketch entries pass the float64 range:
    # the range finder must say so, not return NaN columns
    a = 1e307 * np.random.default_rng(seed).standard_normal((60, 40))
    assert np.isfinite(a).all()
    cfg = SamplerConfig(epsilon=1e-6, blocksize=4, seed=0)
    with pytest.raises(ValueError, match=f"non-finite sketch in block {block}:.*overflows"):
        adaptive_range_finder(a, cfg)


def test_expectation_identity_monte_carlo(rng):
    # sample mean of |F (C' Omega) G|_F^2 over uniform Omega converges to
    # |F|_F^2 |G|_F^2 when C has orthonormal columns
    f = rng.standard_normal((5, 6))
    c = np.linalg.qr(rng.standard_normal((12, 6)))[0]
    g = rng.standard_normal((7, 3))
    mean, target = verify_expectation_identity(f, c, g, trials=20000, seed=42)
    assert target == pytest.approx(
        np.linalg.norm(f, "fro") ** 2 * np.linalg.norm(g, "fro") ** 2
    )
    assert abs(mean - target) <= 0.05 * target


def test_expectation_identity_requires_orthonormal_c(rng):
    f = rng.standard_normal((3, 4))
    g = rng.standard_normal((2, 2))
    c = rng.standard_normal((5, 4))  # not orthonormal
    with pytest.raises(ValueError):
        verify_expectation_identity(f, c, g, trials=10, seed=0)

