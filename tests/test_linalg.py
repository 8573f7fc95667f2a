import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from oracle_rgsvd import min_norm_lstsq
from randgsvd.linalg import (
    DimensionError,
    as_matrix,
    as_vector,
    qr_reduced,
    solve_upper_triangular,
    symmetric_eig,
)


def test_as_matrix_coerces_and_validates():
    a = as_matrix([[1, 2], [3, 4]], "a")
    assert a.dtype == np.float64 and a.shape == (2, 2)
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0], "a")
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]], "a")


def test_as_matrix_checks_finiteness_without_a_temporary(rng):
    # np.isfinite(a).all() would hold an m x n bool array, 1/8 of a's bytes
    a = rng.standard_normal((1024, 1024))
    tracemalloc.start()
    try:
        assert as_matrix(a, "a") is a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * a.nbytes
    for bad in (np.nan, np.inf, -np.inf):
        a[512, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(a, "a")


def test_as_vector_coerces_and_validates():
    v = as_vector([1, 2, 3], "b")
    assert v.dtype == np.float64
    with pytest.raises(DimensionError):
        as_vector([[1.0], [2.0]], "b")
    with pytest.raises(ValueError):
        as_vector([np.inf], "b")


def test_qr_reduced_reconstructs_with_positive_diagonal(rng):
    # a C-ordered input is factored in a copy and left as it was
    a = rng.standard_normal((30, 12))
    a0 = a.copy()
    q, r = qr_reduced(a)
    assert not np.shares_memory(q, a) and np.array_equal(a, a0)
    assert q.shape == (30, 12) and r.shape == (12, 12)
    assert_allclose(q @ r, a, atol=1e-12)
    assert_allclose(q.T @ q, np.eye(12), atol=1e-12)
    assert np.all(np.diag(r) > 0)
    # the same bits as from an F-ordered copy of the input
    q2, r2 = qr_reduced(np.asfortranarray(a0))
    assert np.array_equal(q, q2) and np.array_equal(r, r2)


def test_qr_reduced_factors_f_ordered_input_in_place(rng):
    a = np.asfortranarray(rng.standard_normal((30, 12)))
    a0 = a.copy()
    q, r = qr_reduced(a)
    assert np.shares_memory(q, a)  # the input's buffer became q
    assert np.all(np.diag(r) >= 0)
    assert_allclose(q @ r, a0, atol=1e-12)
    assert_allclose(q.T @ q, np.eye(12), atol=1e-12)


def test_qr_reduced_forms_r_in_one_copy(rng):
    # R is the only n x n array formed, and its strict lower triangle is
    # +0.0, as np.triu leaves it
    n = 300
    a = np.asfortranarray(rng.standard_normal((2 * n, n)))
    tracemalloc.start()
    try:
        _, r = qr_reduced(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * r.nbytes
    lower = r[np.tril_indices(n, -1)]
    assert np.all(lower == 0.0) and not np.signbit(lower).any()


def test_symmetric_eig_orders_ascending(rng):
    s0 = rng.standard_normal((9, 9))
    s0 = s0 + s0.T
    # the contract is an F-ordered lower triangle: NaN above the diagonal
    # is never read
    s = np.asfortranarray(s0)
    s[np.triu_indices(9, 1)] = np.nan
    values, vectors = symmetric_eig(s)
    w0, v0 = scipy.linalg.eigh(s0, driver="evd")
    assert np.array_equal(values, w0) and np.array_equal(vectors, v0)
    # the input is consumed: dsyevd leaves the vectors in its buffer, and
    # they come back as a C-ordered copy
    assert np.array_equal(s, v0)
    assert vectors.flags.c_contiguous and not np.shares_memory(vectors, s)
    assert np.all(np.diff(values) >= 0)
    assert_allclose(vectors @ np.diag(values) @ vectors.T, s0, atol=1e-11)
    assert_allclose(vectors.T @ vectors, np.eye(9), atol=1e-12)


def test_min_norm_lstsq_matches_pinv(rng):
    a = rng.standard_normal((20, 8))
    b = rng.standard_normal(20)
    assert_allclose(min_norm_lstsq(a, b), np.linalg.pinv(a) @ b, atol=1e-11)
    # rank-deficient: picks the minimum-norm solution
    a2 = np.zeros((6, 4))
    a2[:, 0] = 1.0
    x = min_norm_lstsq(a2, np.ones(6))
    assert_allclose(x, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_solve_upper_triangular_rejects_singular(rng):
    r = np.triu(rng.standard_normal((5, 5))) + 5 * np.eye(5)
    b = rng.standard_normal((5, 2))
    assert_allclose(r @ solve_upper_triangular(r, b), b, atol=1e-12)
    # LAPACK's dtrtrs refuses an exactly zero diagonal on its own
    r[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_upper_triangular(r, b)
