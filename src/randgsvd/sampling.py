"""Uniform random sketching and the blockwise adaptive range finder.

The sampler draws test matrices with i.i.d. entries uniform on
[-sqrt(3), sqrt(3)] (zero mean, unit variance) from a counter-based Philox
generator, so every draw is reproducible from a 64-bit seed alone. The
range finder consumes the target matrix in column blocks, orthogonalizes
each sketched block against the basis collected so far, and stops as soon
as a diagonal entry of the block's triangular factor falls to the requested
tolerance -- those diagonals are the norms of the deflated sample columns,
which is exactly the quantity the tolerance speaks about.

On a large target each skinny product a @ Omega_i is a memory-bound pass
over a, so the range finder multiplies a window of consecutive test blocks
in one pass, then examines the blocks one at a time. This holds for a
C-ordered target and for the transposed view that stage one sketches on
the row-space branch alike. Every block keeps its own seed, the factors are
bit-identical to one product per block, and blocks drawn past the stop are
discarded. The window's limits and their measured reasons are given at
_WINDOW_COLUMNS, _WINDOW_MIN_BYTES and _WINDOW_ROW_MULTIPLE.

The target is not scanned for finiteness on its own, which on a large
target would cost one more pass over it: each sketch block is checked as
it is examined instead. Every entry a_ij enters every entry of row i of
a @ Omega_1, so a non-finite a already makes the first block non-finite
(see adaptive_range_finder), and a finite a whose sketch overflows is
refused by the same check instead of yielding NaN basis columns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, as_finite, as_int, matmul

_SQRT3 = float(np.sqrt(3.0))
_MASK64 = (1 << 64) - 1
# odd 64-bit constant (golden-ratio fraction) used to derive secondary streams
_STREAM_SALT = 0x9E3779B97F4A7C15
# The range finder multiplies the target by up to this many test columns in
# one product. At n = 2048 and one OpenBLAS thread (2-vCPU Xeon, OpenBLAS
# 0.3.31) A @ Omega took 4.7, 4.9, 6.0 and 9.9 ms at widths 4, 8, 16 and 32:
# up to about 16 columns a product costs one memory-bound pass over A, past
# that it is compute-bound, and a wider window would only draw more columns
# past the stop.
_WINDOW_COLUMNS = 16
# Windows are formed only on targets of at least this many bytes, because
# only there did a column slice of the windowed product equal the per-block
# product bit for bit (same machine): on 17 C-ordered shapes from 1024 x 1024
# to 16384 x 64, windows of 2-16 columns, mixed widths included, at 1-4
# threads. Small targets such as stage two's A.T P (2048 x 37) take another
# OpenBLAS path and their slices differ; without this limit 96 of the 504
# cases of tests/factor_digest.py kernels changed.
_WINDOW_MIN_BYTES = 8 * 2**20
# A transposed (F-ordered) target, which stage one sketches on branch
# "under", qualifies for windows only when its row count is a multiple of
# this. Both the window and each block are formed by linalg.matmul as
# (Omega.T @ a.T).T, and at 1 thread a column slice of the windowed product
# equalled the block's own product exactly when rows % 8 == 0 (same
# machine): on 64 combinations of 1024-4100 rows, 600-1537 columns and
# blocksizes 2, 3, 4, 5 and 8. Every other row count tried differed: 1030,
# 1036, 1100, 2050, 2052, 2060, 3001 and 4100, and earlier 700 and
# 2049-2055. At 2 threads every shape tried matched, so the rule is
# conservative there. The row-truncated kernels at n = 2048 give 2048 rows.
_WINDOW_ROW_MULTIPLE = 8


def _philox(seed: int) -> np.random.Generator:
    # a numpy integer seed would overflow in the mask
    return np.random.Generator(np.random.Philox(key=operator.index(seed) & _MASK64))


def derive_stage_seed(seed: int) -> int:
    """Deterministic secondary seed for a second sketching stage."""
    return (seed ^ _STREAM_SALT) & _MASK64


def uniform_test_matrix(n: int, l: int, seed: int) -> np.ndarray:
    """n-by-l test matrix with i.i.d. entries uniform on [-sqrt(3), sqrt(3)].

    The distribution has zero mean and unit variance, so sketches preserve
    Frobenius norms in expectation. Identical (n, l, seed) triples return
    bit-identical matrices.
    """
    u = _philox(seed).random((as_int(n, "n", 1), as_int(l, "l", 1)))
    return _SQRT3 * (2.0 * u - 1.0)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for adaptive sketching.

    epsilon        -- deflated-column-norm stopping tolerance, finite and
                      > 0; it is absolute, in the units of the target's
                      entries, not relative to |A|, so rescaling A by c
                      calls for epsilon * c to stop at the same column
    blocksize      -- columns sketched per adaptive step, an integer
    seed           -- 64-bit base seed, an integer; block i uses seed XOR i
    stage2_epsilon -- optional override for the second stage of the
                      two-sided factorization (defaults to the stage-one
                      tolerance)
    """

    epsilon: float
    blocksize: int = 4
    seed: int = 0
    stage2_epsilon: float | None = None

    def __post_init__(self):
        as_finite(self.epsilon, "epsilon")
        if self.stage2_epsilon is not None:
            as_finite(self.stage2_epsilon, "stage2_epsilon")
        object.__setattr__(self, "blocksize", as_int(self.blocksize, "blocksize", 1))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))


@dataclass(frozen=True)
class RangeBasis:
    """Orthonormal basis produced by the adaptive range finder.

    q               -- rows x l matrix with orthonormal columns (l may be 0)
    epsilon         -- tolerance the run was asked to honor
    blocks_consumed -- number of sketch blocks examined, the stopping
                       block included
    passes          -- number of products formed with the target; a pass
                       may form several blocks, and blocks it formed past
                       the stopping block are discarded
    triggered_diag  -- |R_ll| value that fired the stopping rule, or None
                       when the basis reached min(rows, cols) columns
    seed            -- base seed of the run
    """

    q: np.ndarray
    epsilon: float
    blocks_consumed: int
    passes: int
    triggered_diag: float | None
    seed: int

    @property
    def ncols(self) -> int:
        return self.q.shape[1]


def _block_widths(n: int, blocksize: int) -> list[int]:
    s = n // blocksize
    widths = [blocksize] * s + [n - s * blocksize]
    return [w for w in widths if w > 0]


def _sample_blocks(a, blocksize: int, seed: int):
    """Yield (pass number, a @ Omega_i) for every test block in order.

    On a target of at least _WINDOW_MIN_BYTES that is C-ordered, or a
    transposed view whose row count is a multiple of _WINDOW_ROW_MULTIPLE,
    consecutive blocks spanning up to _WINDOW_COLUMNS columns are
    multiplied in one pass. The window goes
    through linalg.matmul as each block's own product does, and each
    block's slice is copied out in that product's layout (C order on a
    C-ordered target, F order on a transposed view), so the caller sees the
    same bits as from one product per block. A width-1 block is always
    multiplied alone: numpy forms an n x 1 product with gemv, whose bits
    differ from gemm's.

    Products are formed with numpy's overflow and invalid-value warnings
    off: the caller checks each block for non-finite entries and raises an
    error that gives the reason, in place of a RuntimeWarning. The warning
    state is left before each yield, since numpy keeps it per context.
    """
    n = a.shape[1]
    widths = _block_widths(n, blocksize)
    per_pass = 1
    if a.nbytes >= _WINDOW_MIN_BYTES and (
        a.flags.c_contiguous or (a.flags.f_contiguous and a.shape[0] % _WINDOW_ROW_MULTIPLE == 0)
    ):
        per_pass = max(1, _WINDOW_COLUMNS // blocksize)
    start = passes = 0
    while start < len(widths):
        stop = start + 1
        if widths[start] > 1:
            while stop < min(start + per_pass, len(widths)) and widths[stop] > 1:
                stop += 1
        omegas = [
            uniform_test_matrix(n, w, seed ^ (i + 1))
            for i, w in enumerate(widths[start:stop], start=start)
        ]
        passes += 1
        with np.errstate(invalid="ignore", over="ignore"):
            # the row-space sketch passes the transposed view a.T
            y = matmul(a, omegas[0] if len(omegas) == 1 else np.hstack(omegas))
        if len(omegas) == 1:
            yield passes, y
        else:
            lo = 0
            for omega in omegas:
                hi = lo + omega.shape[1]
                yield passes, y[:, lo:hi].copy(order="K")
                lo = hi
        start = stop


def adaptive_range_finder(a, cfg: SamplerConfig) -> RangeBasis:
    """Blockwise adaptive randomized range finder.

    Draws uniform test blocks Omega_i (seeded seed XOR i, i = 1, 2, ...),
    forms Y_i = a @ Omega_i, deflates against the basis collected so far
    (twice, for orthogonality at working precision), and takes a reduced QR
    of the deflated block. Diagonal entries of the triangular factor are
    the norms of the successively deflated sample columns: while they stay
    above cfg.epsilon the whole block joins the basis, and the first entry
    at or below the tolerance stops the run, keeping only the columns in
    front of it.

    Blocks are min(cfg.blocksize, max(n - 1, 1)) columns wide on a target
    of n columns, so a block never spans the whole target unless it has
    one column; the last block takes what is left.

    The products are formed in passes over a: on a target of at least
    8 MiB that is C-ordered, or a transposed view whose row count is a
    multiple of 8, one pass multiplies up to 16 columns' worth of
    consecutive blocks (a width-1 block alone), at about the cost of one
    block's product, since reading a dominates it; elsewhere each pass
    forms one block. Either way each Y_i has the bits of its own product,
    so q, blocks_consumed and triggered_diag do not depend on the
    grouping, and RangeBasis.passes reports the number of products.

    a is not scanned for finiteness. Each Y_i is checked as it is examined
    (rows x blocksize entries), and the first non-finite one raises
    ValueError. For a non-finite a the check at Y_1 is exact: under IEEE
    arithmetic every entry a_ij enters every entry of row i of Y_1, a NaN
    propagates, +-inf times a test entry is +-inf (NaN for a zero entry),
    and inf - inf is NaN. The same check refuses a finite a whose sketch
    overflows, which would otherwise give a basis of NaN columns. Blocks
    formed past the stop are not examined, so the outcome does not depend
    on the grouping either.

    Returns a RangeBasis whose column count l satisfies
    0 <= l <= min(a.shape); l == 0 means the very first sample column was
    already below tolerance (e.g. a zero matrix).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"range finder target must be 2-D, got ndim={a.ndim}")
    m, n = a.shape
    if n == 0:
        raise DimensionError("range finder target must have at least one column")
    blocksize = min(cfg.blocksize, max(n - 1, 1))

    q = np.empty((m, 0))
    blocks_consumed = passes = 0
    triggered: float | None = None

    for passes, y in _sample_blocks(a, blocksize, cfg.seed):
        if not np.isfinite(y).all():
            raise ValueError(
                f"range finder target gives a non-finite sketch in block {blocks_consumed + 1}: "
                "it holds a NaN or inf entry, or its sketch overflows"
            )
        if q.shape[1]:
            # two deflation passes keep the new block orthogonal to q at
            # working precision even when it is nearly contained in range(q)
            y -= q @ (q.T @ y)
            y -= q @ (q.T @ y)
        p, r = np.linalg.qr(y)
        blocks_consumed += 1
        diag = np.abs(np.diag(r))
        below = np.flatnonzero(diag <= cfg.epsilon)
        if below.size:
            keep = int(below[0])
            triggered = float(diag[keep])
            q = np.hstack([q, p[:, :keep]])
            break
        q = np.hstack([q, p])
        if q.shape[1] >= min(m, n):
            break

    return RangeBasis(
        q=q,
        epsilon=cfg.epsilon,
        blocks_consumed=blocks_consumed,
        passes=passes,
        triggered_diag=triggered,
        seed=cfg.seed,
    )

