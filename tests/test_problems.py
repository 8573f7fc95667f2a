import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracle_quadrature import baart_whole, deriv2_whole, foxgood_whole, gravity_whole, shaw_whole
from randgsvd import problems
from randgsvd.bench import BenchConfig
from randgsvd.bounds import error_bound_diagnostics
from randgsvd.gsvd import GmpPair, gsvd_full_rank
from randgsvd.linalg import DimensionError
from randgsvd.problems import (
    QUADRATURE_PROBLEMS,
    TestProblemSpec,
    add_noise,
    baart_matrix,
    deriv2_matrix,
    first_difference,
    foxgood_matrix,
    generate,
    gravity_matrix,
    heat_matrix,
    parallel_tomo,
    phantom,
    phillips_matrix,
    shaw_matrix,
)
from randgsvd.rgsvd import rgsvd
from randgsvd.sampling import SamplerConfig, uniform_test_matrix
from randgsvd.tikhonov import solve_exact, solve_gsvd

# frozen from oracle_quadrature.py at n = 16 (independent scalar/adaptive
# quadrature of the underlying kernels; see that script for the recipes)
PINNED = {
    "shaw": {"a0_0": 1.7660211535338715e-07, "a3_7": 0.010819633129263505, "a12_5": 0.3315157229988498, "a15_15": 1.7660211535338715e-07, "x2": 0.5103695790836215, "x9": 0.7146944664951196},
    "deriv2": {"a0_0": -0.0012410481770833333, "a3_7": -0.00726318359375, "a12_5": -0.00469970703125, "a15_15": -0.001241048177083333, "x2": 0.0390625, "x9": 0.10156249999999999},
    "foxgood": {"a0_0": 0.0027621358640099515, "a3_7": 0.03232997140087275, "a12_5": 0.05334570423338931, "a15_15": 0.08562621178430849, "x2": 0.15625, "x9": 0.59375},
    "gravity": {"a0_0": 1.0, "a3_7": 0.35355339059327373, "a12_5": 0.12212650790322062, "a15_15": 1.0, "x2": 0.8871315429772703, "x9": 0.679155219222408},
    "heat": {"a0_0": 0.001070641806119083, "a3_7": 0.0, "a12_5": 0.0322284515998092, "a15_15": 0.001070641806119083, "x2": 0.16734762011132237, "x9": 0.0},
    "phillips": {"a0_0": 1.4622309026638378, "a3_7": 0.018884548668079086, "a12_5": 0.0, "a15_15": 1.4622309026638378, "x2": 0.0, "x9": 1.0296924214335426},
    "baart": {"a0_0": 0.1458373436703832, "a3_7": 0.1436157434345365, "a12_5": 0.24785705491088963, "a15_15": 0.030624714959624162, "x2": 0.20854685759300504, "x9": 0.4233523152168356},
}

GENERATORS = {
    "shaw": shaw_matrix,
    "deriv2": deriv2_matrix,
    "foxgood": foxgood_matrix,
    "gravity": gravity_matrix,
    "heat": heat_matrix,
    "phillips": phillips_matrix,
    "baart": baart_matrix,
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_entries_match_independent_quadrature(name):
    a, x = GENERATORS[name](16)
    for key, want in PINNED[name].items():
        if key.startswith("a"):
            i, j = map(int, key[1:].split("_"))
            got = a[i, j]
        else:
            got = x[int(key[1:])]
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13), (name, key)


@pytest.mark.parametrize("n", [32, 2052])
@pytest.mark.parametrize("name", ["shaw", "deriv2", "foxgood", "gravity", "phillips", "baart"])
def test_symmetry_structure(name, n):
    # bit for bit; shaw forms one triangle and copies it to the other, and
    # test_row_blocks_match_whole_matrix_formulas holds every entry of that
    # copy to the formula
    a, _ = GENERATORS[name](n)
    if name in ("shaw", "deriv2", "foxgood", "gravity", "phillips"):
        assert_array_equal(a, a.T)
    else:
        assert not np.allclose(a, a.T)


BLOCK_BUILT = {
    "shaw": shaw_whole,
    "baart": baart_whole,
    "deriv2": deriv2_whole,
    "foxgood": foxgood_whole,
    "gravity": gravity_whole,
}
# below one block of rows, one block, one block and one row, and two sizes
# whose last block is ragged
BLOCK_SIZES = (8, problems._BLOCK_ROWS, problems._BLOCK_ROWS + 1, 1000, 2052)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("name", sorted(BLOCK_BUILT))
def test_row_blocks_match_whole_matrix_formulas(name, n):
    a, x = GENERATORS[name](n)
    want_a, want_x = BLOCK_BUILT[name](n)
    assert_array_equal(a, want_a)
    assert_array_equal(x, want_x)


def test_baart_chunks_build_the_same_matrix(monkeypatch):
    # 7-row blocks: several full ones and a ragged last one
    monkeypatch.setattr(problems, "_BLOCK_ROWS", 7)
    a, _ = baart_matrix(96)
    assert_array_equal(a, baart_whole(96)[0])


@pytest.mark.parametrize("name", QUADRATURE_PROBLEMS)
def test_generation_peak_is_about_one_matrix(name):
    # the blocks and their scratch buffers are a few rows of A, and a
    # row-truncated instance forms only its m rows
    n = 1024
    for m in (None, n // 2):
        tracemalloc.start()
        try:
            prob = generate(TestProblemSpec(name=name, n=n, m=m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * prob.a.nbytes, m


def test_heat_is_lower_triangular():
    a, _ = heat_matrix(32)
    assert_allclose(np.triu(a, k=1), 0.0, atol=0.0)
    assert np.all(np.diag(a) > 0)


@pytest.mark.parametrize("name", QUADRATURE_PROBLEMS)
def test_generate_clean_data_is_consistent(name):
    n = 32
    prob = generate(TestProblemSpec(name=name, n=n, delta=0.0))
    assert prob.a.shape == (n, n)
    assert prob.l.shape == (n - 1, n)
    assert_array_equal(prob.b, prob.a @ prob.x_true)


@pytest.mark.parametrize("name", QUADRATURE_PROBLEMS)
def test_pair_has_full_column_rank_at_pilot_size(name):
    prob = generate(TestProblemSpec(name=name, n=64, delta=0.0))
    gsvd_full_rank(GmpPair(prob.a, prob.l), check_rank=False)  # the core raises on violation


def test_picard_projections_bounded():
    # |u_i' b_clean| = |sigma_i v_i' x| <= sigma_i |x|: the clean data's
    # spectral coefficients must decay at least as fast as the singular values
    prob = generate(TestProblemSpec(name="shaw", n=256, delta=0.0))
    u, sigma, _ = np.linalg.svd(prob.a)
    coeffs = np.abs(u.T @ prob.b)[:20]
    assert np.all(coeffs <= sigma[:20] * np.linalg.norm(prob.x_true) + 1e-12)


def test_noise_norm_identity(rng):
    b = rng.standard_normal(200)
    for delta in (1e-4, 1e-2, 0.5):
        noisy = add_noise(b, delta, seed=3)
        got = np.linalg.norm(noisy - b) / np.linalg.norm(b)
        assert got == pytest.approx(delta, rel=1e-12)
    same = add_noise(b, 0.0, seed=3)
    assert_array_equal(same, b)
    assert same is not b
    assert_array_equal(add_noise(b, 1e-2, 5), add_noise(b, 1e-2, 5))
    assert not np.array_equal(add_noise(b, 1e-2, 5), add_noise(b, 1e-2, 6))


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, -1e-3])
def test_noise_level_must_be_finite_and_nonnegative(rng, delta):
    with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
        add_noise(rng.standard_normal(20), delta, 0)
    with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
        TestProblemSpec(name="shaw", n=32, delta=delta)


def test_spec_validation():
    with pytest.raises(ValueError):
        TestProblemSpec(name="nope", n=32)
    with pytest.raises(ValueError):
        TestProblemSpec(name="shaw", n=4)  # too small
    with pytest.raises(ValueError):
        TestProblemSpec(name="shaw", n=32, m=40)  # m > n unsupported
    for m in (0, -5):  # a[:m] would slice rows off the end
        with pytest.raises(ValueError, match="m must be at least 1"):
            TestProblemSpec(name="shaw", n=64, m=m)
    for m in (3, 36, 360):  # tomo's row count is fixed by its geometry
        with pytest.raises(ValueError, match="takes no m"):
            TestProblemSpec(name="tomo", n=6, m=m)
    with pytest.raises(ValueError):
        TestProblemSpec(name="shaw", n=32, delta=-0.1)


@pytest.mark.parametrize(
    "name, n, msg",
    [
        ("heat", 33, "heat requires n divisible by 2"),
        ("deriv2", 33, "deriv2 requires n divisible by 2"),
        ("phillips", 10, "phillips requires n divisible by 4"),
        ("phillips", 34, "phillips requires n divisible by 4"),
        ("tomo", 1, "n must be at least 2, got 1"),
    ],
)
def test_spec_refuses_sizes_its_generator_cannot_build(name, n, msg):
    # refused where the size enters, so the benchmark exits 2 for it
    # instead of running a row that fails
    with pytest.raises(ValueError, match=msg):
        TestProblemSpec(name=name, n=n)


def test_numpy_integers_give_the_bits_of_python_ints():
    # numpy integers are stored and masked as ints, not overflowed
    spec = TestProblemSpec(name="shaw", n=np.int64(64), m=np.int32(32), delta=1e-3, seed=np.int64(3))
    assert all(type(v) is int for v in (spec.n, spec.m, spec.seed))
    ref = generate(TestProblemSpec(name="shaw", n=64, m=32, delta=1e-3, seed=3))
    got = generate(spec)
    assert_array_equal(got.a, ref.a)
    assert_array_equal(got.b, ref.b)
    assert_array_equal(add_noise(ref.b, 1e-2, np.int64(5)), add_noise(ref.b, 1e-2, 5))
    assert_array_equal(add_noise(ref.b, 1e-2, np.uint64(2**64 - 1)), add_noise(ref.b, 1e-2, 2**64 - 1))
    assert_array_equal(phantom(8, np.int64(2)), phantom(8, 2))


@functools.cache
def _small_instance():
    """shaw at n = 16 with its exact factors and a sketch, for the lam rows."""
    prob = generate(TestProblemSpec(name="shaw", n=16, delta=1e-3))
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l), check_rank=False)
    return prob, factors, rgsvd(prob.a, prob.l, 1e-2, SamplerConfig(epsilon=1e-2))


def _bench(**kw):
    return BenchConfig(problems=("shaw",), methods=("gsvd",), n=16, **kw)


# Every field that linalg.as_int or linalg.as_finite guards: a call that
# returns the checked value (or what is built from it), the name its
# refusals give, and the least integer allowed, or whether the real number
# must be "positive" or "nonnegative". Bare keys are TestProblemSpec's.
INT_FIELDS = {
    "n": (lambda v: TestProblemSpec(name="shaw", n=v).n, "n", 8),
    "m": (lambda v: TestProblemSpec(name="shaw", n=64, m=v).m, "m", 1),
    "seed": (lambda v: TestProblemSpec(name="shaw", n=64, seed=v).seed, "seed", 0),
    "SamplerConfig.blocksize": (
        lambda v: SamplerConfig(epsilon=1e-2, blocksize=v).blocksize, "blocksize", 1
    ),
    "SamplerConfig.seed": (lambda v: SamplerConfig(epsilon=1e-2, seed=v).seed, "seed", 0),
    "BenchConfig.seeds": (lambda v: _bench(seeds=(0, v)).seeds[1], "seeds", 0),
    "first_difference.n": (lambda v: first_difference(v).toarray(), "n", 2),
    "parallel_tomo.n_grid": (lambda v: parallel_tomo(v, [0.0], 2)[0].toarray(), "n_grid", 2),
    "parallel_tomo.rays": (lambda v: parallel_tomo(2, [0.0], v)[0].toarray(), "rays", 1),
    "phantom.n_grid": (lambda v: phantom(v), "n_grid", 1),
    # the seeded draws, refused in sampling._philox, which all three go through
    "add_noise.seed": (lambda v: add_noise(np.ones(4), 1e-3, v), "seed", 0),
    "uniform_test_matrix.seed": (lambda v: uniform_test_matrix(4, 2, v), "seed", 0),
    "phantom.seed": (lambda v: phantom(4, v), "seed", 0),
}
FINITE_FIELDS = {
    "delta": (lambda v: TestProblemSpec(name="shaw", n=64, delta=v).delta, "delta", "nonnegative"),
    "SamplerConfig.epsilon": (lambda v: SamplerConfig(epsilon=v).epsilon, "epsilon", "positive"),
    "SamplerConfig.stage2_epsilon": (
        lambda v: SamplerConfig(epsilon=1e-2, stage2_epsilon=v).stage2_epsilon, "stage2_epsilon", "positive"
    ),
    "BenchConfig.fixed_value": (
        lambda v: _bench(selector="fixed", fixed_value=v).fixed_value, "fixed_value", "positive"
    ),
    "solve_gsvd.lam": (
        lambda v: solve_gsvd(_small_instance()[1], _small_instance()[0].b, v).x, "lam", "positive"
    ),
    "solve_exact.lam": (lambda v: solve_exact(_small_instance()[0], v).x, "lam", "positive"),
    "error_bound_diagnostics.lam": (
        lambda v: dataclasses.astuple(error_bound_diagnostics(_small_instance()[0], _small_instance()[2], v)),
        "lam",
        "positive",
    ),
}


def _field_cases():
    """A float, a value below the least allowed and a numpy integer per field."""
    for key, (_, _, least) in INT_FIELDS.items():
        yield key, float(least)
        yield key, least - 1
        yield pytest.param(key, np.int64(least), id=f"{key}-int64")
    for key, (_, _, kind) in FINITE_FIELDS.items():
        yield key, np.inf
        yield key, 0.0 if kind == "positive" else -1e-3
        yield pytest.param(key, np.int64(1), id=f"{key}-int64")


@pytest.mark.parametrize(
    "field, value", [("n", 64.0), ("m", 32.5), ("seed", 1.5), ("seed", "3"), *_field_cases()]
)
def test_spec_refuses_a_size_or_seed_that_is_not_an_integer(field, value):
    # the first rows gave the test its name; the table now holds every
    # scalar field, of the spec and beyond, that the two validators guard
    if field in INT_FIELDS:
        call, name, least = INT_FIELDS[field]
        if isinstance(value, np.integer):  # taken, and stored as an int
            got, want = call(value), call(int(value))
            assert type(got) is type(want)
            assert_array_equal(got, want)
            return
        below = isinstance(value, int)
        msg = f"{name} must be at least {least}, got {value}" if below else f"{name} must be an integer"
    else:
        call, name, kind = FINITE_FIELDS[field]
        if isinstance(value, np.integer):  # taken, with the value of the float
            assert_array_equal(call(value), call(float(value)))
            return
        msg = f"{name} must be {kind} and finite, got"
    with pytest.raises(ValueError, match=f"^{msg}"):
        call(value)


def test_generate_underdetermined_truncates_clean_rows():
    full = generate(TestProblemSpec(name="gravity", n=40, delta=0.0))
    trunc = generate(TestProblemSpec(name="gravity", n=40, m=25, delta=0.0))
    assert trunc.a.shape == (25, 40)
    assert_array_equal(trunc.a, full.a[:25])
    assert_array_equal(trunc.b, full.b[:25])
    # noise applies after truncation, at exact level on the kept rows
    noisy = generate(TestProblemSpec(name="gravity", n=40, m=25, delta=1e-2, seed=4))
    rel = np.linalg.norm(noisy.b - trunc.b) / np.linalg.norm(trunc.b)
    assert rel == pytest.approx(1e-2, rel=1e-12)


def _buildable(sizes):
    """(kernel, n) for every n in sizes that the kernel's spec accepts."""
    for name in QUADRATURE_PROBLEMS:
        for n in sizes:
            try:
                TestProblemSpec(name=name, n=n)
            except ValueError:  # n = 33 is odd: not deriv2, heat or phillips
                continue
            yield name, n


@pytest.mark.parametrize("name, n", _buildable((8, 33, 1000, 2052)))
def test_truncated_instance_is_the_square_ones_first_rows(name, n):
    # built from its m rows alone, bit for bit those of the square instance;
    # its clean b is the same product of those rows (the square b is a
    # product of all n rows and may differ from it in the last bits)
    square = generate(TestProblemSpec(name=name, n=n))
    for m in (1, n // 3, n // 2, n - 1):
        prob = generate(TestProblemSpec(name=name, n=n, m=m))
        assert_array_equal(prob.a, square.a[:m])
        assert_array_equal(prob.b, square.a[:m] @ square.x_true)
        assert_array_equal(prob.x_true, square.x_true)


def test_generate_underdetermined_holds_only_its_rows():
    prob = generate(TestProblemSpec(name="shaw", n=64, m=24, delta=1e-3))
    # A owns its buffer of m rows: no view that holds an n x n matrix alive
    assert prob.a.base is None
    assert prob.a.nbytes == 24 * 64 * 8


def test_first_difference_operator():
    l = first_difference(6)
    assert l.shape == (5, 6)
    assert l.nnz == 10 and l.nbytes < l.toarray().nbytes
    assert_array_equal(l.toarray(), np.eye(5, 6) - np.eye(5, 6, k=1))
    assert_allclose(l @ np.ones(6), 0.0, atol=0.0)
    assert_array_equal(l @ np.arange(6.0), -np.ones(5))
    with pytest.raises(ValueError):
        first_difference(1)


# --- tomography ---------------------------------------------------------


def test_single_horizontal_ray_crosses_lower_row():
    # 2 x 2 grid, two horizontal rays: each crosses one full row of pixels
    op, _ = parallel_tomo(2, [0.0], rays=2)
    dense = op.toarray()
    assert dense.shape == (2, 4)
    # ray 0 sits below center (offset -sqrt(2)/4), ray 1 above
    assert_allclose(dense[0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)
    assert_allclose(dense[1], [0.0, 0.0, 0.5, 0.5], atol=1e-12)


def test_vertical_rays():
    op, _ = parallel_tomo(2, [90.0], rays=2)
    dense = op.toarray()
    # theta=90: direction (0,1), offsets shift along -x; lower offset = right column
    cols = {tuple(np.nonzero(row)[0]) for row in dense}
    assert cols == {(0, 2), (1, 3)}
    assert_allclose(dense[dense > 0], 0.5, atol=1e-12)


def test_gridline_ray_assigns_lower_pixel():
    # a ray running exactly along the interior gridline y = 0.5 belongs to
    # the lower row by the tie rule
    op, _ = parallel_tomo(2, [0.0], rays=1)  # single ray: offset 0 -> y = 0.5
    dense = op.toarray()
    assert_allclose(dense[0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "angles, error, match",
    [
        ([np.nan], ValueError, "angles_deg contains non-finite entries"),
        ([0.0, np.inf], ValueError, "angles_deg contains non-finite entries"),
        ([[0.0, 90.0]], DimensionError, "angles_deg must be 1-D"),
        ([], ValueError, "angles_deg needs at least one angle"),
    ],
    ids=["nan", "inf", "2-D", "empty"],
)
def test_tomo_refuses_bad_angles(angles, error, match):
    # unchecked, a NaN angle gives an operator with no nonzeros and an
    # inf one garbage
    with pytest.raises(error, match=f"^{match}"):
        parallel_tomo(4, angles, 4)


def test_diagonal_ray_length():
    # 45-degree center ray crosses the unit square diagonal: total length sqrt(2)
    op, _ = parallel_tomo(4, [45.0], rays=1)
    dense = op.toarray()
    assert dense.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_tomo_geometry_invariants():
    op, img = parallel_tomo(8, np.arange(0.0, 180.0, 12.0), rays=32, phantom_seed=2)
    dense = op.toarray()
    assert dense.shape == (15 * 32, 64)
    assert np.all(op.data > 0)
    # no chord of a 1/8-pixel exceeds its diagonal
    assert op.data.max() <= np.sqrt(2.0) / 8 + 1e-12
    # row sums: chord length through the unit square is at most sqrt(2)
    assert dense.sum(axis=1).max() <= np.sqrt(2.0) + 1e-12
    assert img.shape == (64,)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_example_scale_shape():
    # grid 50, 15 angles, 200 rays -> 3000 x 2500
    op, img = parallel_tomo(50, np.arange(0.0, 180.0, 12.0), rays=200)
    assert op.shape == (3000, 2500)
    assert img.shape == (2500,)
    # one stored entry per (ray, pixel) crossing
    assert op.nnz == 134_972


def _clipped_lengths(p0, direction, n_grid):
    """Brute-force oracle: clip each line p0[k] + t * direction against
    every pixel box [ix/N, (ix+1)/N] x [iy/N, (iy+1)/N] separately; the
    chord length is the clipped t-interval, as |direction| = 1."""
    out = np.zeros((len(p0), n_grid * n_grid))
    for k, p in enumerate(p0):
        for iy in range(n_grid):
            for ix in range(n_grid):
                t0, t1 = -np.inf, np.inf
                for axis, cell in ((0, ix), (1, iy)):
                    lo, hi = cell / n_grid, (cell + 1) / n_grid
                    d = direction[axis]
                    if d == 0.0:
                        if not lo <= p[axis] <= hi:
                            t0, t1 = 0.0, -1.0
                        continue
                    ta, tb = (lo - p[axis]) / d, (hi - p[axis]) / d
                    t0, t1 = max(t0, min(ta, tb)), min(t1, max(ta, tb))
                if t1 > t0:
                    out[k, iy * n_grid + ix] = t1 - t0
    return out


@pytest.mark.parametrize("seed", range(4))
def test_tracer_matches_per_pixel_clipping(seed):
    # random angles and offsets in general position: no ray runs along a
    # gridline or through a grid corner (the tie rules are pinned above)
    rng = np.random.default_rng(seed)
    n_grid = 8
    angles = rng.uniform(-360.0, 360.0, size=3)
    op, _ = parallel_tomo(n_grid, angles, rays=10)
    offsets = ((np.arange(10) + 0.5) / 10 - 0.5) * np.sqrt(2.0)
    traced = op.toarray()
    for ia, ang in enumerate(np.deg2rad(angles)):
        direction = np.array([np.cos(ang), np.sin(ang)])
        normal = np.array([-np.sin(ang), np.cos(ang)])
        # the documented geometry, and the same rays at random offsets
        for s in (offsets, rng.uniform(-0.75, 0.75, size=10)):
            p0 = 0.5 + s[:, None] * normal
            want = _clipped_lengths(p0, direction, n_grid)
            if s is offsets:
                got = traced[ia * 10 : (ia + 1) * 10]
            else:
                ray, pix, lengths = problems._trace_rays(p0, direction, n_grid)
                got = np.zeros_like(want)
                got[ray, pix] = lengths
            assert_array_equal(got > 0, want > 0)
            assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_phantom_seeded():
    p1 = phantom(16, seed=3)
    p2 = phantom(16, seed=3)
    p3 = phantom(16, seed=4)
    assert_array_equal(p1, p2)
    assert not np.array_equal(p1, p3)
    assert p1.max() <= 1.0 and p1.min() >= 0.0
    assert p1.max() > 0.0  # shapes actually landed on the grid


def test_generate_tomo_instance():
    prob = generate(TestProblemSpec(name="tomo", n=6, delta=0.0, seed=1))
    assert prob.a.shape == (15 * 24, 36)
    assert prob.l.shape == (35, 36)
    assert_array_equal(prob.b, prob.a @ prob.x_true)
