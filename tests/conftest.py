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
def make_kahan():
    """Factory for A = Kahan(theta) over L = zeros(1, n). The QR diagonal
    of [A; L] decays only to sin(theta)^(n-1) of its largest entry
    (~9e-4 for theta = 1.2 at n = 100, ~1e-3 for theta = 1.42 at
    n = 600), so a test on the diagonal's ratio passes it, but the
    stack's sigma_min / sigma_max is ~1e-17 at n = 100 and far below
    working precision at n = 600: rank-deficient pairs that only a
    condition estimate or an SVD catches."""

    def build(n=100, theta=1.2):
        upper = np.eye(n) - np.cos(theta) * np.triu(np.ones((n, n)), 1)
        a = np.sin(theta) ** np.arange(n)[:, None] * upper
        return TikhonovProblem(a=a, l=np.zeros((1, n)), b=np.ones(n), x_true=np.ones(n))

    return build


@pytest.fixture
def kahan_problem(make_kahan):
    """The Kahan pair at theta = 1.2, n = 100 (see make_kahan)."""
    return make_kahan()
