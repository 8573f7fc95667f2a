import numpy as np
import pytest

from randgsvd.tikhonov import TikhonovProblem


@pytest.fixture
def make_gmp():
    """Factory for random full-column-rank matrix pairs. Gaussian blocks of
    compatible shape are full rank with probability one and comfortably
    conditioned, which is what the exactness tests need."""

    def build(m, p, n, seed=0, scale_a=1.0):
        rng = np.random.default_rng(seed)
        a = scale_a * rng.standard_normal((m, n))
        l = rng.standard_normal((p, n))
        assert m + p >= n
        return a, l

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def kahan_problem():
    """A = Kahan(theta = 1.2) at n = 100 over L = zeros(1, n). The QR
    diagonal of [A; L] decays only to sin(1.2)^99 ~ 9e-4 of its largest
    entry, which passes the GSVD core's diagonal-ratio test, but the
    stack's sigma_min / sigma_max is ~1e-17: a rank-deficient pair that
    only an SVD-based check catches."""
    n, theta = 100, 1.2
    upper = np.eye(n) - np.cos(theta) * np.triu(np.ones((n, n)), 1)
    a = np.sin(theta) ** np.arange(n)[:, None] * upper
    return TikhonovProblem(a=a, l=np.zeros((1, n)), b=np.ones(n), x_true=np.ones(n))
