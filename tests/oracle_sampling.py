"""Monte Carlo check of the norm identity behind uniform sketching.

For fixed factors F, C (orthonormal columns), G and test matrices Omega
with i.i.d. entries uniform on [-sqrt(3), sqrt(3)], the squared Frobenius
norm of F @ (C.T @ Omega) @ G has expectation ||F||_F^2 * ||G||_F^2.
Criterion 04 and test_sampling.py hold the sample mean to that target.
"""

import numpy as np

from randgsvd.sampling import _SQRT3, _STREAM_SALT, _philox


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
