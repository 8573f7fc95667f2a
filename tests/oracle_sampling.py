"""Reference implementations for the sampling module.

verify_expectation_identity is a Monte Carlo check of the norm identity
behind uniform sketching: for fixed factors F, C (orthonormal columns), G
and test matrices Omega with i.i.d. entries uniform on [-sqrt(3), sqrt(3)],
the squared Frobenius norm of F @ (C.T @ Omega) @ G has expectation
||F||_F^2 * ||G||_F^2. Criterion 04 and test_sampling.py hold the sample
mean to that target.

per_block_range_finder is the adaptive range finder with one product per
test block, which adaptive_range_finder must match bit for bit.
"""

import numpy as np

from randgsvd.linalg import matmul
from randgsvd.sampling import (
    _SQRT3,
    _STREAM_SALT,
    SamplerConfig,
    SamplingError,
    _block_widths,
    _philox,
    uniform_test_matrix,
)


def per_block_range_finder(a, cfg: SamplerConfig) -> tuple[np.ndarray, int, float | None]:
    """Adaptive range finder forming a @ Omega_i once per test block.

    Returns (q, blocks_consumed, triggered_diag). Past cfg.max_columns it
    raises SamplingError with the library's message, whose last diagonal
    names the block that crossed the budget.
    """
    m, n = a.shape
    q = np.empty((m, 0))
    blocks = 0
    triggered = None
    for idx, width in enumerate(_block_widths(n, cfg.blocksize)):
        y = matmul(a, uniform_test_matrix(n, width, cfg.seed ^ (idx + 1)))
        if q.shape[1]:
            y -= q @ (q.T @ y)
            y -= q @ (q.T @ y)
        p, r = np.linalg.qr(y)
        blocks += 1
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
    return q, blocks, triggered


def verify_expectation_identity(f, c, g, trials: int, seed: int) -> tuple[float, float]:
    """Sample mean over ``trials`` fresh Omega draws (Philox streams
    derived from ``seed``) and the target; returns (sample_mean, target)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = c.shape
    if f.shape[1] != k:
        raise ValueError(f"left factor columns {f.shape[1]} != {k}")
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
