"""Test-problem generators: seven classic first-kind Fredholm
discretizations (square, or row-truncated to an underdetermined variant),
the first-difference regularizer, noise injection, and a parallel-beam
tomography operator.

The Fredholm problems follow the standard Regularization Tools
discretizations: midpoint quadrature for the kernels evaluated pointwise
(shaw, foxgood, gravity, heat) and Galerkin with orthonormal box functions
for the rest (deriv2, phillips, baart; baart's cell integrals are done with
a fixed-order Gauss rule since its kernel has no convenient closed form).
Every generator takes the row count m (default n) and forms only those m
rows, so a row-truncated instance computes no entry it drops. The kernels
other than heat and phillips (Toeplitz, built by scipy from the first m
entries of the column) fill A a block of rows at a time, with no
whole-matrix temporaries; shaw, symmetric bit for bit, forms each block on
and right of the diagonal only and copies the rest from the blocks above.
Entry-level fidelity is pinned in the tests against an independent
quadrature oracle. In every case the clean data is synthesized as
b = A @ x_true exactly, so solvers can be scored against a consistent
discrete ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import CsrMatrix, as_finite, as_int, as_vector
from .sampling import _philox
from .tikhonov import TikhonovProblem

QUADRATURE_PROBLEMS = ("shaw", "baart", "deriv2", "foxgood", "gravity", "heat", "phillips")
# every name TestProblemSpec, and so the benchmark, accepts
PROBLEMS = QUADRATURE_PROBLEMS + ("tomo",)


@dataclass(frozen=True)
class TestProblemSpec:
    """Recipe for one synthetic instance.

    m defaults to n; 1 <= m < n truncates rows (underdetermined variant
    built from the noiseless square problem, then noised at level delta).
    The 'tomo' name interprets n as the grid side N and builds the
    parallel-beam operator with angles 0:12:179 and 4N rays per angle
    (no m). n, m and seed must be integers, seed >= 0, and a numpy integer
    is stored as an int. Sizes the generators need are checked here: n >= 8
    for the quadrature kernels, even for deriv2 and heat, a multiple of 4
    for phillips, and N >= 2 for tomo.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    n: int
    m: int | None = None
    delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.name not in PROBLEMS:
            raise ValueError(f"unknown problem {self.name!r}")
        object.__setattr__(self, "n", as_int(self.n, "n", 2 if self.name == "tomo" else 8))
        step = {"deriv2": 2, "heat": 2, "phillips": 4}.get(self.name, 1)
        if self.n % step:
            raise ValueError(f"{self.name} requires n divisible by {step}, got {self.n}")
        if self.m is not None:
            if self.name == "tomo":
                raise ValueError("'tomo' has a fixed row count and takes no m")
            object.__setattr__(self, "m", as_int(self.m, "m", 1))
            if self.m > self.n:
                raise ValueError(f"m must lie in [1, n] = [1, {self.n}], got {self.m}")
        as_finite(self.delta, "delta", nonnegative=True)
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))


def _midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h


# rows of A formed at a time by the generators that fill it by blocks; at
# n = 2048 a block and each scratch buffer take 512 kB
_BLOCK_ROWS = 32


def _row_blocks(a: np.ndarray, scratch: int):
    """Walk the rows of a, _BLOCK_ROWS at a time (the last block may be
    shorter). Yields the block's row slice, the block of a, and `scratch`
    buffers of the block's shape, the same ones for every block."""
    rows, cols = a.shape
    height = min(_BLOCK_ROWS, rows)
    buffers = np.empty((scratch, height, cols))
    for start in range(0, rows, height):
        stop = min(start + height, rows)
        yield slice(start, stop), a[start:stop], *buffers[:, : stop - start]


def shaw_matrix(n: int, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint quadrature of the kernel (cos s + cos t)^2 (sin u / u)^2,
    u = pi (sin s + sin t), on [-pi/2, pi/2]^2; two-Gaussian-bump solution.

    Every entry is formed from the shared sin and cos of the nodes by sums
    and products, which commute, so A is symmetric bit for bit. A block of
    rows [r0, r1) is formed on columns [r0, n) only; its columns [r1, m),
    transposed, fill the rows below it in columns [r0, r1), which the later
    blocks do not form."""
    h = np.pi / n
    g = _midpoints(-np.pi / 2, np.pi / 2, n)
    sin_g, cos_g = np.sin(g), np.cos(g)
    a = np.empty((n if m is None else m, n))
    for rows, block, u, sinc in _row_blocks(a, 2):
        r0, r1 = rows.start, rows.stop
        out, u, sinc = block[:, r0:], u[:, r0:], sinc[:, r0:]
        np.add(sin_g[rows, None], sin_g[r0:], out=u)
        u *= np.pi
        zero = u == 0.0  # where sin u / u is taken as 1
        u[zero] = 1.0
        np.sin(u, out=sinc)
        sinc /= u
        sinc[zero] = 1.0
        np.square(sinc, out=sinc)
        # h (cos s + cos t)^2, then times sinc^2
        np.add(cos_g[rows, None], cos_g[r0:], out=out)
        np.square(out, out=out)
        out *= h
        out *= sinc
        a[r1:, rows] = a[rows, r1 : a.shape[0]].T
    x = 2.0 * np.exp(-6.0 * (g - 0.8) ** 2) + np.exp(-2.0 * (g + 0.5) ** 2)
    return a, x


def deriv2_matrix(n: int, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin discretization of the second-derivative Green's function
    K(s,t) = s(t-1) for s < t and t(s-1) otherwise, on [0,1]^2.

    The solution is the symmetric hat f(t) = min(t, 1-t) (the variant whose
    sine coefficients decay quadratically, so it stays representable in the
    few-column sketches this operator admits). Requires even n so the peak
    falls on a cell boundary."""
    h = 1.0 / n
    idx = np.arange(1, n + 1, dtype=float)
    # entry (i, j) below the diagonal is left[j] * right[i], and A is symmetric
    left = h**2 * (idx - 0.5)
    right = (idx - 0.5) * h - 1.0
    a = np.empty((n if m is None else m, n))
    for rows, out, upper in _row_blocks(a, 1):
        np.multiply(left, right[rows, None], out=out)
        np.multiply(left[rows, None], right, out=upper)
        np.copyto(out, upper, where=idx > idx[rows, None])
    diag = idx[: a.shape[0]]
    np.fill_diagonal(a, h**2 * ((diag**2 - diag + 0.25) * h - (diag - 2.0 / 3.0)))
    x = h**1.5 * np.minimum(idx - 0.5, n - idx + 0.5)
    return a, x


def foxgood_matrix(n: int, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint quadrature of sqrt(s^2 + t^2) on [0,1]^2; solution t."""
    h = 1.0 / n
    g = _midpoints(0.0, 1.0, n)
    g_sq = g**2
    a = np.empty((n if m is None else m, n))
    for rows, out in _row_blocks(a, 0):
        np.add(g_sq[rows, None], g_sq, out=out)
        np.sqrt(out, out=out)
        out *= h
    return a, g.copy()


def gravity_matrix(n: int, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint quadrature of the gravity surveying kernel
    d (d^2 + (s-t)^2)^(-3/2) at depth d = 0.25 on [0,1]^2."""
    h = 1.0 / n
    d = 0.25
    g = _midpoints(0.0, 1.0, n)
    a = np.empty((n if m is None else m, n))
    for rows, out in _row_blocks(a, 0):
        np.subtract(g[rows, None], g, out=out)
        np.square(out, out=out)
        out += d**2
        np.power(out, -1.5, out=out)
        out *= h * d
    x = np.sin(np.pi * g) + 0.5 * np.sin(2.0 * np.pi * g)
    return a, x


def heat_matrix(n: int, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Volterra heat-conduction kernel (unit conductivity): lower-triangular
    Toeplitz with first column c t^(-3/2) exp(-1/(4t)) at midpoints.
    Requires even n; the solution ramp lives on the first half."""
    h = 1.0 / n
    t = (np.arange(1, n + 1) - 0.5) * h
    c = h / (2.0 * np.sqrt(np.pi))
    with np.errstate(under="ignore"):
        col = c * t**-1.5 * np.exp(-0.25 / t)
    row = np.zeros(n)
    row[0] = col[0]
    a = scipy.linalg.toeplitz(col[:m], row)
    x = np.zeros(n)
    ti = np.arange(1, n // 2 + 1) * 20.0 / n
    x[: n // 2] = np.select(
        [ti < 2.0, ti < 3.0],
        [0.75 * ti**2 / 4.0, 0.75 + (ti - 2.0) * (3.0 - ti)],
        0.75 * np.exp(-(ti - 3.0) * 2.0),
    )
    return a, x


def phillips_matrix(n: int, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin discretization of the convolution kernel
    1 + cos(pi (s-t)/3) (support |s-t| < 3) on [-6,6]^2; requires n
    divisible by 4. The solution is the cell-integrated hat
    1 + cos(pi t/3) on |t| < 3."""
    h = 12.0 / n
    n4 = n // 4
    r = np.zeros(n)
    j = np.arange(1, n4 + 1, dtype=float)
    ang = 4.0 * np.pi / n
    r[: n4] = h + (9.0 / (h * np.pi**2)) * (
        2.0 * np.cos(ang * (j - 1.0)) - np.cos(ang * (j - 2.0)) - np.cos(ang * j)
    )
    r[n4] = h / 2.0 + (9.0 / (h * np.pi**2)) * (np.cos(ang) - 1.0)
    a = scipy.linalg.toeplitz(r[:m], r)
    x = np.zeros(n)
    left = -6.0 + np.arange(2 * n4, 3 * n4) * h
    x[2 * n4 : 3 * n4] = h + (3.0 / np.pi) * (
        np.sin(np.pi * (left + h) / 3.0) - np.sin(np.pi * left / 3.0)
    )
    x[n4 : 2 * n4] = x[2 * n4 : 3 * n4][::-1]
    return a, x


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _cell_rule(lo: float, width: float, cells: int):
    """Gauss nodes of `cells` equal subintervals of [lo, lo+cells*width],
    one row per cell, and the weights every cell shares."""
    left = lo + width * np.arange(cells)[:, None]
    nodes = left + width * (0.5 * (_GAUSS_NODES[None, :] + 1.0))
    return nodes, 0.5 * width * _GAUSS_WEIGHTS


def baart_matrix(n: int, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin (orthonormal boxes) discretization of the kernel
    exp(s cos t) for s in [0, pi/2], t in [0, pi]; solution sin t.

    Cell integrals use a fixed 4-point Gauss product rule, far below
    rounding error for this analytic kernel at any usable n. Each entry
    sums its 16 node pairs as the t sum inside the s sum, each in node
    order: the order numpy's sum over both node axes of the (n, 4, n, 4)
    array of weighted values takes.
    """
    hs = np.pi / (2 * n)
    ht = np.pi / n
    s_nodes, s_weights = _cell_rule(0.0, hs, n)
    t_nodes, t_weights = _cell_rule(0.0, ht, n)
    cos_t = np.cos(t_nodes).T.copy()  # one row per t node
    scale = 1.0 / np.sqrt(hs * ht)
    a = np.empty((n if m is None else m, n))
    for rows, out, inner, term in _row_blocks(a, 2):
        # value is the weighted exp(s cos t) at node pair (p, q); the sum
        # over q is formed in inner (in out itself for p = 0), and the first
        # term of each sum in that sum's own buffer
        for p, s_weight in enumerate(s_weights):
            t_sum = out if p == 0 else inner
            for q, t_weight in enumerate(t_weights):
                value = t_sum if q == 0 else term
                np.multiply(s_nodes[rows, p, None], cos_t[q], out=value)
                np.exp(value, out=value)
                value *= s_weight
                value *= t_weight
                if q:
                    t_sum += term
            if p:
                out += inner
        out *= scale
    t_left = ht * np.arange(n)
    x = (np.cos(t_left) - np.cos(t_left + ht)) / np.sqrt(ht)
    return a, x


_GENERATORS = {
    "shaw": shaw_matrix,
    "deriv2": deriv2_matrix,
    "foxgood": foxgood_matrix,
    "gravity": gravity_matrix,
    "heat": heat_matrix,
    "phillips": phillips_matrix,
    "baart": baart_matrix,
}


def first_difference(n: int) -> CsrMatrix:
    """(n-1) x n forward-difference operator (row i is e_i - e_(i+1));
    null space = constants. Returned sparse, as a CsrMatrix holding its
    2(n-1) nonzeros; .toarray() gives the dense matrix."""
    n = as_int(n, "n", 2)
    idx = np.arange(n - 1)
    values = np.tile([1.0, -1.0], n - 1)
    cols = np.column_stack([idx, idx + 1]).ravel()
    return CsrMatrix((values, cols, 2 * np.arange(n)), shape=(n - 1, n))


def add_noise(b, delta: float, seed: int) -> np.ndarray:
    """Perturb b by a seeded Gaussian direction scaled so that
    |out - b| = delta * |b| exactly."""
    b = as_vector(b, "data")
    as_finite(delta, "delta", nonnegative=True)
    gen = _philox(seed)  # refuses a seed that is not an integer >= 0, at any delta
    if delta == 0.0:
        return b.copy()
    zeta = gen.standard_normal(b.shape[0])
    norm = np.linalg.norm(zeta)
    if norm == 0.0:
        return b.copy()
    return b + delta * np.linalg.norm(b) * zeta / norm


def generate(spec: TestProblemSpec) -> TikhonovProblem:
    """Build the instance a TestProblemSpec describes.

    Quadrature problems: A and x_true from the discretization, then
    b = A x_true + noise at level spec.delta (seeded). An underdetermined
    variant is built from its m rows alone, the first m rows of the square
    A bit for bit, so the noise level is exact for the rows it has. 'tomo'
    builds the parallel-beam operator on an n x n pixel grid with the
    phantom as ground truth.
    """
    if spec.name == "tomo":
        return _generate_tomo(spec)
    a, x_true = _GENERATORS[spec.name](spec.n, spec.m)
    b = add_noise(a @ x_true, spec.delta, spec.seed)
    return TikhonovProblem(a=a, l=first_difference(spec.n), b=b, x_true=x_true)


def _trace_rays(p0: np.ndarray, direction: np.ndarray, n_grid: int):
    """Intersection lengths of the parallel lines p0[k] + t * direction
    with the unit-square pixel grid.

    Returns (ray, pixel, length) arrays ordered by ray, then by t, with
    pixels flattened row-major as iy * n_grid + ix, iy counted from the
    bottom edge. Each ray's crossings are clipped to its chord [t_lo, t_hi]
    and sorted, so crossings off the chord, repeated crossings (corner
    hits) and rays that miss the square give segments of length 0, which
    are dropped.
    """
    t_lo = np.full(p0.shape[0], -np.inf)
    t_hi = np.full(p0.shape[0], np.inf)
    lines = np.arange(1, n_grid) / n_grid
    crossings = []
    for axis in range(2):
        d = direction[axis]
        o = p0[:, axis]
        if abs(d) < 1e-14:  # a line along this axis outside [0, 1] has an empty chord
            t_hi = np.where((0.0 <= o) & (o <= 1.0), t_hi, -np.inf)
        else:
            ta = (0.0 - o) / d
            tb = (1.0 - o) / d
            t_lo = np.maximum(t_lo, np.minimum(ta, tb))
            t_hi = np.minimum(t_hi, np.maximum(ta, tb))
            crossings.append((lines - o[:, None]) / d)
    t_hi = np.where(t_hi > t_lo, t_hi, t_lo)[:, None]
    t_lo = t_lo[:, None]
    ts = np.sort(np.hstack([t_lo, t_hi] + [np.clip(c, t_lo, t_hi) for c in crossings]), axis=1)
    lengths = np.diff(ts, axis=1)
    ray, seg = np.nonzero(lengths > 1e-14)
    mids = 0.5 * (ts[ray, seg] + ts[ray, seg + 1])
    scaled = (p0[ray] + mids[:, None] * direction) * n_grid
    cell = np.floor(scaled)
    cell -= (cell > 0) & (scaled == cell)  # gridline hits go to the lower cell
    ix, iy = np.clip(cell, 0, n_grid - 1).astype(np.int64).T
    return ray, iy * n_grid + ix, lengths[ray, seg]


def parallel_tomo(
    n_grid: int, angles_deg, rays: int, phantom_seed: int = 0
) -> tuple[CsrMatrix, np.ndarray]:
    """Parallel-beam line-integral operator on the unit square, sparse.

    For each angle, `rays` parallel lines cross the square with offsets
    centered across the sqrt(2) diagonal span; all rays of an angle are
    traced at once. Row (angle_index * rays + k) holds the per-pixel
    intersection lengths of ray k at that angle; a ray along a gridline
    counts in the lower (left) cells. Also returns a seeded piecewise
    phantom (values in [0,1]) flattened in the same pixel order.
    """
    n_grid = as_int(n_grid, "n_grid", 2)
    rays = as_int(rays, "rays", 1)
    angles = as_vector(np.atleast_1d(angles_deg), "angles_deg")
    if angles.size == 0:
        raise ValueError("angles_deg needs at least one angle")
    span = np.sqrt(2.0)
    offsets = ((np.arange(rays) + 0.5) / rays - 0.5) * span
    center = np.array([0.5, 0.5])
    traced = []
    for ia, ang in enumerate(angles):
        rad = np.deg2rad(ang)
        direction = np.array([np.cos(rad), np.sin(rad)])
        normal = np.array([-np.sin(rad), np.cos(rad)])
        ray, pix, lengths = _trace_rays(center + offsets[:, None] * normal, direction, n_grid)
        traced.append((lengths, ia * rays + ray, pix))
    vals, rows_i, cols_i = (np.concatenate(parts) for parts in zip(*traced))
    op = CsrMatrix((vals, (rows_i, cols_i)), shape=(angles.size * rays, n_grid * n_grid))
    return op, phantom(n_grid, phantom_seed)


def phantom(n_grid: int, seed: int = 0) -> np.ndarray:
    """Seeded synthetic test image: a mixture of eight axis-aligned
    rectangles and disks with intensities in [0,1], max-blended, flattened
    like the tomography pixel order."""
    n_grid = as_int(n_grid, "n_grid", 1)
    gen = _philox(seed)
    xs = (np.arange(n_grid) + 0.5) / n_grid
    gx, gy = np.meshgrid(xs, xs)  # gy rows follow iy (bottom-up)
    img = np.zeros((n_grid, n_grid))
    for _ in range(8):
        kind = gen.random()
        cx, cy = gen.uniform(0.2, 0.8, size=2)
        size = gen.uniform(0.08, 0.25)
        level = gen.uniform(0.3, 1.0)
        if kind < 0.5:
            mask = (np.abs(gx - cx) <= size) & (np.abs(gy - cy) <= size * gen.uniform(0.5, 1.5))
        else:
            mask = (gx - cx) ** 2 + (gy - cy) ** 2 <= size**2
        img = np.maximum(img, np.where(mask, level, 0.0))
    return img.reshape(-1)


def _generate_tomo(spec: TestProblemSpec) -> TikhonovProblem:
    n_grid = spec.n
    angles = np.arange(0.0, 180.0, 12.0)
    op, x_true = parallel_tomo(n_grid, angles, 4 * n_grid, phantom_seed=spec.seed)
    a = op.toarray()
    b = add_noise(a @ x_true, spec.delta, spec.seed)
    return TikhonovProblem(a=a, l=first_difference(n_grid * n_grid), b=b, x_true=x_true)
