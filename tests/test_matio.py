import numpy as np
import pytest
from numpy.testing import assert_array_equal

from randgsvd import matio


def test_dense_matrix_market_round_trip(tmp_path, rng):
    a = rng.standard_normal((7, 4))
    path = tmp_path / "a.mtx"
    matio.write_matrix_mm(path, a)
    assert_array_equal(matio.read_matrix_mm(path), a)


def test_csv_vector_round_trip_is_exact(tmp_path, rng):
    v = rng.standard_normal(23) * 10.0 ** rng.integers(-12, 12, size=23)
    path = tmp_path / "v.csv"
    matio.write_vector_csv(path, v)
    assert_array_equal(matio.read_vector_csv(path), v)


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        matio.read_vector_csv(tmp_path / "nope.csv")
