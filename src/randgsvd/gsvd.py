"""Exact generalized SVD of a full-column-rank matrix pair.

For a pair {A (m x n), L (p x n)} whose vertical stack has full column
rank, the factorization produces orthonormal-column factors U and V1, a
nonsingular X, and nonnegative diagonals alpha (ascending) and beta
(descending) with alpha_i^2 + beta_i^2 = 1, such that

    tall branch (n <= m):  U.T @ A @ X           = diag(alpha)   (n values)
    wide branch (m <  n):  U.T @ A @ X[:, n-m:]  = diag(alpha)   (m values)
    both:                  V1.T @ L @ X[:, :n-r] = diag(beta)

where r counts the generalized values with beta = 0 (directions A sees but
L annihilates). The route is a reduced QR of the stack followed by a
symmetric eigendecomposition of the top Gram block: with [A; L] = Q R and
Q1.T @ Q1 = S diag(psi) S.T (psi ascending in [0, 1]), the columns of
X = R^-1 S simultaneously diagonalize both Gram matrices, alpha = sqrt(psi)
on the branch's index window, and beta = sqrt(1 - psi) wherever psi < 1.

The core keeps only what it still needs. It takes the pair in a list that
it empties, so a pair formed for it alone (rgsvd's compressed pair) is
freed once stacked. The stack is factored in place in one F-ordered
buffer, of which only Q1 is copied out, and R is one n x n copy. R is not
read during the eigensolve, so it is held packed, its upper triangle in
n(n+1)/2 entries, from the rank check until the triangular solve, which
runs on the same values unpacked. dsyevd runs in the buffer of the Gram
matrix Q1.T @ Q1, which numpy's syrk forms exactly symmetric. Q1 goes
once U is formed, and U's column norms are taken a block of columns at a
time. What remains at the peak is dsyevd's 2N^2 workspace beside Q1, the
packed R and the Gram matrix: 2.01 copies of a 1500 x 600 stack under
tracemalloc, against 2.21 with R held full.

GsvdFactors keeps U, X, alpha and beta, which every solve and selector
reads. V1 is not formed: no routine needs it, and a caller that does gets
it on demand as V1 = L @ X[:, :n-r] / beta, whose columns are orthonormal
because L X[:, :n-r] = Q2 S[:, :n-r] with Q2 the bottom block of Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    CsrMatrix,
    DimensionError,
    RankDeficiencyError,
    as_matrix,
    as_operator,
    dense,
    qr_reduced,
    solve_upper_triangular,
    symmetric_eig,
)

class GmpViolationError(RankDeficiencyError):
    """The stacked pair [A; L] is (numerically) column rank deficient."""


def check_pair(a, l) -> tuple[np.ndarray, np.ndarray | CsrMatrix]:
    """The checked (a, l) of a pair, for GmpPair and TikhonovProblem: as_matrix
    a, as_operator l, matching columns, and a stack [a; l] with at least one
    column and as many rows (fewer cannot have full column rank)."""
    a = as_matrix(a, "pair member a")
    l = as_operator(l, "pair member l")
    n = a.shape[1]
    if l.shape[1] != n:
        raise DimensionError(f"pair members need matching column counts, got {a.shape} and {l.shape}")
    if n < 1:
        raise DimensionError(f"stack needs at least one column, got {n}")
    rows = a.shape[0] + l.shape[0]
    if rows < n:
        raise GmpViolationError(f"stack has fewer rows ({rows}) than columns ({n})")
    return a, l


@dataclass(frozen=True)
class GmpPair:
    """A matrix pair {a, l} acting on the same solution space, with the
    vertical stack [a; l] required to have full column rank. a is stored
    dense; a scipy.sparse l stays sparse, as a CsrMatrix, and is densified
    only for the core, which frees that copy once stacked.

    Construction runs check_pair on entries and shapes only; the stack's
    column rank is refused by the GSVD core that factors it, at any size."""

    a: np.ndarray
    l: np.ndarray | CsrMatrix

    def __post_init__(self):
        a, l = check_pair(self.a, self.l)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "l", l)


@dataclass(frozen=True)
class GsvdFactors:
    """Generalized SVD factors of a pair (see module docstring for the
    identities each branch satisfies).

    u     -- m x n (tall) or m x m (wide), orthonormal columns
    alpha -- ascending, in [0, 1]; length min(m, n)
    beta  -- descending, in (0, 1]; length n - r, where r counts the
             generalized values with beta = 0
    x     -- n x n nonsingular

    The lengths give the branch and r: offset = n - len(alpha) is 0 on
    the tall branch and n - m on the wide one, and r = n - len(beta).
    """

    u: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    x: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def offset(self) -> int:
        """Index of alpha[0] within the global spectrum 1..n: the count of
        leading directions that have no alpha, because A has fewer rows
        than columns (0 on the tall branch, n - m on the wide branch)."""
        return self.n - self.alpha.shape[0]

    def gamma(self) -> np.ndarray:
        """Generalized values alpha_i / beta_i aligned with alpha
        (np.inf where beta = 0)."""
        beta = self.beta_aligned()
        out = np.full(self.alpha.shape[0], np.inf)
        finite = beta > 0.0
        out[finite] = self.alpha[finite] / beta[finite]
        return out

    def beta_aligned(self) -> np.ndarray:
        """beta values aligned with alpha entries (0.0 where beta absent)."""
        k0 = self.offset
        nb = self.beta.shape[0]
        idx = np.arange(self.alpha.shape[0]) + k0
        out = np.zeros_like(self.alpha)
        inside = idx < nb
        out[inside] = self.beta[idx[inside]]
        return out


# columns of U squared at a time by _column_norms
NORM_BLOCK = 256


def _column_norms(u: np.ndarray) -> np.ndarray:
    """np.linalg.norm(u, axis=0), bit for bit, squaring NORM_BLOCK columns
    at a time instead of all of u. numpy sums a block's rows in order, as
    it does for the whole of u, but sums a lone column pairwise, so a lone
    trailing column joins the block before it."""
    n = u.shape[1]
    edges = [*range(0, max(n - 1, 1), NORM_BLOCK), n]
    return np.concatenate([np.linalg.norm(u[:, i:j], axis=0) for i, j in zip(edges, edges[1:])])


def _gsvd_core(pair: list[np.ndarray]) -> GsvdFactors:
    """Shared GSVD workhorse of gsvd_full_rank (which the benchmark's
    dense factors and the error bounds' ambient pair go through) and of
    rgsvd's compressed pair. It has one, tolerant mode: a first member
    numerically rank deficient on the branch gets near-zero alphas, not a
    refusal. Takes the pair as a list [a, l] and empties it, so that a
    pair the caller formed for the core alone is freed once it is stacked.
    Trusts its input: a and l are dense, finite float64 arrays that pass
    check_pair. It is the one stack-rank refusal, on every route and at
    every size."""
    a, l = pair
    pair.clear()
    m, n = a.shape
    rows = m + l.shape[0]
    stack = np.concatenate((a, l), out=np.empty((rows, n), order="F"))
    del a, l
    # the F-ordered stack becomes Q in place; only its top block is kept
    q, tri = qr_reduced(stack)
    q1 = np.ascontiguousarray(q[:m])
    del stack, q
    # R has the singular values of [A; L]; dtrcon estimates R's reciprocal
    # 1-norm condition from its F-ordered transpose, so R is not copied. The
    # estimate is scale-free, and 0 for an all-zero R
    rcond = scipy.linalg.lapack.dtrcon(tri.T, norm="I", uplo="L")[0]
    if rcond <= 1e-12 * max(rows, n):
        raise GmpViolationError(
            "stacked pair is numerically column rank deficient (reciprocal "
            f"condition estimate of its triangular factor {rcond:.3e})"
        )
    # R is not read again until the triangular solve, so it waits through
    # the eigensolve packed: dtrttp copies its upper triangle, read as the
    # lower one of the F-ordered transpose, into n(n+1)/2 entries
    packed = scipy.linalg.lapack.dtrttp(tri.T, uplo="L")[0]
    del tri

    # the Gram matrix comes out of numpy's syrk exactly symmetric, and
    # symmetric_eig consumes it
    psi, svecs = symmetric_eig(q1.T @ q1)
    psi = np.clip(psi, 0.0, 1.0)

    r = int(np.count_nonzero(psi > 1.0 - 1e-12 * n))
    k0 = max(n - m, 0)  # the wide branch's leading directions have no alpha
    alpha = np.sqrt(psi[k0:])
    # Columns of q1 @ svecs carry norm sqrt(psi) in exact arithmetic, but
    # psi can round to zero while the computed column still holds rounding
    # noise; normalizing by the computed norm keeps every column at unit
    # length instead of amplifying that noise.
    u = q1 @ svecs[:, k0:]
    del q1
    u /= np.maximum(_column_norms(u), np.finfo(float).tiny)

    beta = np.sqrt(1.0 - psi[: n - r])
    # dtpttr unpacks R.T, F-ordered with zeros above the diagonal, so its
    # transpose is R as qr_reduced gave it: the same values, C-ordered
    tri = scipy.linalg.lapack.dtpttr(n, packed, uplo="L")[0].T
    del packed
    x = solve_upper_triangular(tri, svecs)

    return GsvdFactors(u=u, alpha=alpha, beta=beta, x=x)


def gsvd_full_rank(pair: GmpPair, check_rank: bool = True) -> GsvdFactors:
    """Exact GSVD of a full-column-rank pair via stacked QR + symmetric eig.

    With check_rank=True (default) the routine refuses pairs whose first
    member is numerically rank deficient on the branch it would need
    (required psi = alpha^2 at or below 1e-12 * n). check_rank=False
    returns the core's tolerant factors; discretized ill-posed operators
    are numerically rank deficient by nature, and their noise directions
    carry generalized values so small that any sensible regularizer
    filters them out, so the tolerant mode is what large-scale callers want.
    """
    factors = _gsvd_core([pair.a, dense(pair.l)])
    alpha = factors.alpha
    if check_rank and alpha.size and alpha.min() <= np.sqrt(1e-12 * factors.n):
        raise RankDeficiencyError(
            "first pair member is numerically rank deficient on the requested "
            f"branch (smallest required psi = {alpha.min() ** 2:.3e})"
        )
    return factors

