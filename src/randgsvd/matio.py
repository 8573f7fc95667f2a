"""Matrix Market and CSV serialization helpers.

Dense matrices round-trip through Matrix Market array files, vectors
through one-value-per-line CSV. Floats written to CSV use repr(), i.e. the
shortest digit string that round-trips exactly, so a write/read cycle
reproduces vectors bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse

from .linalg import as_matrix, as_vector


def write_matrix_mm(path, a) -> None:
    """Write a dense matrix as a Matrix Market array file."""
    scipy.io.mmwrite(str(path), as_matrix(a), field="real")


def read_matrix_mm(path) -> np.ndarray:
    """Read a Matrix Market file (array or coordinate) as a dense matrix."""
    a = scipy.io.mmread(str(path))
    if scipy.sparse.issparse(a):
        a = a.toarray()
    return as_matrix(np.asarray(a, dtype=float), "matrix market payload")


def write_vector_csv(path, v) -> None:
    """Write a vector as CSV, one value per line."""
    v = as_vector(v)
    with open(path, "w") as fh:
        for x in v:
            fh.write(f"{float(x)!r}\n")


def read_vector_csv(path) -> np.ndarray:
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                vals.append(float(line))
    return np.asarray(vals, dtype=float)
