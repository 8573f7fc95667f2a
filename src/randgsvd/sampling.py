"""Uniform random sketching and the blockwise adaptive range finder.

The sampler draws test matrices with i.i.d. entries uniform on
[-sqrt(3), sqrt(3)] (zero mean, unit variance) from a counter-based Philox
generator, so every draw is reproducible from a 64-bit seed alone. The
range finder consumes the target matrix in column blocks, orthogonalizes
each sketched block against the basis collected so far, and stops as soon
as a diagonal entry of the block's triangular factor falls to the requested
tolerance -- those diagonals are the norms of the deflated sample columns,
which is exactly the quantity the tolerance speaks about.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import matio
from .linalg import DimensionError, as_matrix

_SQRT3 = float(np.sqrt(3.0))
_MASK64 = (1 << 64) - 1
# odd 64-bit constant (golden-ratio fraction) used to derive secondary streams
_STREAM_SALT = 0x9E3779B97F4A7C15


class SamplingError(RuntimeError):
    """Adaptive sampling exceeded its configured column budget."""


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def derive_stage_seed(seed: int) -> int:
    """Deterministic secondary seed for a second sketching stage."""
    return (seed ^ _STREAM_SALT) & _MASK64


def uniform_test_matrix(n: int, l: int, seed: int) -> np.ndarray:
    """n-by-l test matrix with i.i.d. entries uniform on [-sqrt(3), sqrt(3)].

    The distribution has zero mean and unit variance, so sketches preserve
    Frobenius norms in expectation. Identical (n, l, seed) triples return
    bit-identical matrices.
    """
    if n < 1 or l < 1:
        raise DimensionError(f"test matrix dimensions must be positive, got {n}x{l}")
    u = _philox(seed).random((n, l))
    return _SQRT3 * (2.0 * u - 1.0)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for adaptive sketching.

    epsilon        -- deflated-column-norm stopping tolerance (> 0); it is
                      absolute, in the units of the target's entries, not
                      relative to |A|, so rescaling A by c calls for
                      epsilon * c to stop at the same column
    blocksize      -- columns sketched per adaptive step
    seed           -- 64-bit base seed; block i uses seed XOR i
    max_columns    -- optional hard cap on collected columns
    stage2_epsilon -- optional override for the second stage of the
                      two-sided factorizations (defaults to the stage-one
                      tolerance)
    """

    epsilon: float
    blocksize: int = 4
    seed: int = 0
    max_columns: int | None = None
    stage2_epsilon: float | None = None

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.blocksize < 1:
            raise ValueError(f"blocksize must be >= 1, got {self.blocksize}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.max_columns is not None and self.max_columns < 0:
            raise ValueError("max_columns must be nonnegative")


@dataclass(frozen=True)
class RangeBasis:
    """Orthonormal basis produced by the adaptive range finder.

    q               -- rows x l matrix with orthonormal columns (l may be 0)
    epsilon         -- tolerance the run was asked to honor
    blocks_consumed -- number of (nonempty) sketch blocks drawn
    triggered_diag  -- |R_ll| value that fired the stopping rule, or None
                       when the full column budget was used
    seed            -- base seed of the run
    """

    q: np.ndarray
    epsilon: float
    blocks_consumed: int
    triggered_diag: float | None
    seed: int

    @property
    def ncols(self) -> int:
        return self.q.shape[1]


def _block_widths(n: int, blocksize: int) -> list[int]:
    s = n // blocksize
    widths = [blocksize] * s + [n - s * blocksize]
    return [w for w in widths if w > 0]


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

    Returns a RangeBasis whose column count l satisfies
    0 <= l <= min(a.shape); l == 0 means the very first sample column was
    already below tolerance (e.g. a zero matrix).
    """
    a = as_matrix(a, "range finder target")
    m, n = a.shape
    if n == 0:
        raise DimensionError("range finder target must have at least one column")
    if cfg.blocksize >= n and not (n == 1 and cfg.blocksize == 1):
        raise ValueError(
            f"blocksize must satisfy 1 <= b < n, got b={cfg.blocksize} for n={n}"
        )

    q = np.empty((m, 0))
    blocks_consumed = 0
    triggered: float | None = None

    for idx, width in enumerate(_block_widths(n, cfg.blocksize)):
        omega = uniform_test_matrix(n, width, cfg.seed ^ (idx + 1))
        # for a transposed view (the row-space sketch passes a.T),
        # (omega.T @ a.T).T gives the bits of a @ omega about twice as fast
        y = a @ omega if a.flags.c_contiguous else (omega.T @ a.T).T
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
        if cfg.max_columns is not None and q.shape[1] > cfg.max_columns:
            raise SamplingError(
                f"adaptive sampling exceeded max_columns={cfg.max_columns} "
                f"(deflated column norms still above epsilon={cfg.epsilon}; "
                f"last diagonal {diag.min():.3e})"
            )
        if q.shape[1] >= min(m, n):
            break

    return RangeBasis(
        q=q,
        epsilon=cfg.epsilon,
        blocks_consumed=blocks_consumed,
        triggered_diag=triggered,
        seed=cfg.seed,
    )


def verify_expectation_identity(f, c, g, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo check of the sketching norm identity.

    For fixed factors F, C (orthonormal columns), G and a fresh uniform test
    matrix Omega per trial, the squared Frobenius norm of F @ (C.T @ Omega) @ G
    has expectation ||F||_F^2 * ||G||_F^2. Returns (sample_mean, target).
    """
    f = as_matrix(f, "left factor")
    c = as_matrix(c, "orthonormal factor")
    g = as_matrix(g, "right factor")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = c.shape
    if f.shape[1] != k:
        raise DimensionError(f"left factor columns {f.shape[1]} != {k}")
    l, _ = g.shape
    if k:
        gram_err = np.linalg.norm(c.T @ c - np.eye(k))
        if gram_err > 1e-10 * max(1, k):
            raise ValueError(f"factor C must have orthonormal columns (|C'C - I| = {gram_err:.2e})")

    target = float(np.linalg.norm(f) ** 2 * np.linalg.norm(g) ** 2)
    total = 0.0
    chunk = max(1, min(trials, 4096))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        gen = _philox((seed ^ _STREAM_SALT) + done)
        omega = _SQRT3 * (2.0 * gen.random((b, n, l)) - 1.0)
        h = np.einsum("nk,bnl->bkl", c, omega)
        val = np.einsum("mk,bkl,lq->bmq", f, h, g, optimize=True)
        total += float(np.sum(val**2))
        done += b
    return total / trials, target


def save_range_basis(prefix, basis: RangeBasis) -> None:
    """Persist a RangeBasis as '<prefix>.mtx' plus a '<prefix>.json' sidecar."""
    matio.write_matrix_mm(f"{prefix}.mtx", basis.q)
    meta = {
        "epsilon": basis.epsilon,
        "blocks_consumed": basis.blocks_consumed,
        "triggered_diag": basis.triggered_diag,
        "seed": basis.seed,
    }
    with open(f"{prefix}.json", "w") as fh:
        json.dump(meta, fh, indent=1)


def load_range_basis(prefix) -> RangeBasis:
    q = matio.read_matrix_mm(f"{prefix}.mtx")
    with open(f"{prefix}.json") as fh:
        meta = json.load(fh)
    return RangeBasis(
        q=q,
        epsilon=float(meta["epsilon"]),
        blocks_consumed=int(meta["blocks_consumed"]),
        triggered_diag=None if meta["triggered_diag"] is None else float(meta["triggered_diag"]),
        seed=int(meta["seed"]),
    )


def stage_config(cfg: SamplerConfig, *, epsilon: float, seed: int, ncols: int) -> SamplerConfig:
    """Clone a SamplerConfig for a dependent sketching stage, clamping the
    block size to stay valid for a target with ``ncols`` columns."""
    blocksize = min(cfg.blocksize, max(1, ncols - 1)) if ncols > 1 else 1
    return replace(cfg, epsilon=epsilon, seed=seed, blocksize=blocksize)
