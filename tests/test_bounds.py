import numpy as np
import pytest

from randgsvd.bounds import error_bound_diagnostics
from randgsvd.problems import TestProblemSpec, generate
from randgsvd.rgsvd import rgsvd
from randgsvd.sampling import SamplerConfig
from randgsvd.tikhonov import TikhonovProblem


def _sketch(prob, epsilon, seed, blocksize=4):
    return rgsvd(prob.a, prob.l, epsilon, SamplerConfig(epsilon=epsilon, blocksize=blocksize, seed=seed))


def test_bound_holds_overdetermined(make_gmp, rng):
    a, l = make_gmp(40, 29, 30, seed=21)
    prob = TikhonovProblem(a=a, l=l, b=rng.standard_normal(40))
    approx = _sketch(prob, 1e-4, seed=0)
    for lam in (1e-2, 1e-1, 1.0):
        diag = error_bound_diagnostics(prob, approx, lam)
        assert diag.lhs <= diag.rhs
        assert diag.xi > 0 and diag.nu_lambda > 0
        assert diag.gamma2 == 0.0  # over branch has no discarded-direction term


def test_bound_holds_underdetermined(make_gmp, rng):
    a, l = make_gmp(20, 34, 35, seed=22)
    prob = TikhonovProblem(a=a, l=l, b=rng.standard_normal(20))
    approx = _sketch(prob, 1e-4, seed=1)
    assert approx.branch == "under"
    for lam in (1e-2, 1e-1, 1.0):
        diag = error_bound_diagnostics(prob, approx, lam)
        assert diag.lhs <= diag.rhs
        assert diag.gamma2 >= 0.0


def test_bound_on_ill_posed_instance():
    prob = generate(TestProblemSpec(name="gravity", n=96, delta=1e-3, seed=7))
    approx = _sketch(prob, 1e-2, seed=7)
    diag = error_bound_diagnostics(prob, approx, 1e-1)
    assert diag.lhs <= diag.rhs
    # a realized sketch this coarse cannot beat the requested tolerance by luck
    assert diag.rhs > diag.lhs * 0  # rhs finite and nonnegative
    assert np.isfinite(diag.rhs)
    # the generated regularizer is sparse; the bound densifies it
    as_dense = TikhonovProblem(a=prob.a, l=prob.l.toarray(), b=prob.b, x_true=prob.x_true)
    assert error_bound_diagnostics(as_dense, approx, 1e-1) == diag


def test_bound_input_validation(make_gmp, rng):
    a, l = make_gmp(20, 14, 15, seed=23)
    prob = TikhonovProblem(a=a, l=l, b=rng.standard_normal(20))
    approx = _sketch(prob, 1e-4, seed=2)
    # inf is refused before the exact solve's SVD, which would not converge
    for lam in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            error_bound_diagnostics(prob, approx, lam)
    big = generate(TestProblemSpec(name="shaw", n=600, delta=1e-3, seed=0))
    sk = _sketch(big, 1e-2, seed=0, blocksize=8)
    with pytest.raises(ValueError):
        error_bound_diagnostics(big, sk, 1e-1)  # above the dense-guard size
