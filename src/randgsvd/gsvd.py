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

GsvdFactors keeps U, X, alpha and beta, which every solve and selector
reads. V1 is not formed: no routine needs it, and a caller that does gets
it on demand as V1 = L @ X[:, :n-r] / beta, whose columns are orthonormal
because L X[:, :n-r] = Q2 S[:, :n-r] with Q2 the bottom block of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


@dataclass(frozen=True)
class GmpPair:
    """A matrix pair {a, l} acting on the same solution space, with the
    vertical stack [a; l] required to have full column rank.

    Construction checks entries and shapes: a by as_matrix, l by
    as_operator, matching column counts, and a stack with at least one
    column (DimensionError) and at least as many rows (GmpViolationError),
    since fewer cannot have full column rank. The column rank itself is
    refused by the core that factors the stack (_gsvd_core)."""

    a: np.ndarray
    l: np.ndarray | CsrMatrix

    def __post_init__(self):
        a = as_matrix(self.a, "pair member a")
        l = as_operator(self.l, "pair member l")
        n = a.shape[1]
        if l.shape[1] != n:
            raise DimensionError(f"pair members need matching column counts, got {a.shape} and {l.shape}")
        if n < 1:
            raise DimensionError(f"stack needs at least one column, got {n}")
        rows = a.shape[0] + l.shape[0]
        if rows < n:
            raise GmpViolationError(f"stack has fewer rows ({rows}) than columns ({n})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "l", l)


class FilterTerms(NamedTuple):
    """Per-direction terms of GsvdFactors that every Tikhonov filter,
    filtered coordinate and truncation rule reads, aligned with alpha.

    alpha_sq  -- alpha**2
    beta      -- beta aligned with alpha, 0.0 where beta is absent
    beta_pos  -- beta > 0
    alpha_pos -- alpha > 0
    divisor   -- alpha where alpha > 0, else 1.0
    """

    alpha_sq: np.ndarray
    beta: np.ndarray
    beta_pos: np.ndarray
    alpha_pos: np.ndarray
    divisor: np.ndarray


@dataclass(frozen=True)
class GsvdFactors:
    """Generalized SVD factors of a pair (see module docstring for the
    identities each branch satisfies).

    u     -- m x n (tall) or m x m (wide), orthonormal columns
    alpha -- ascending, in [0, 1]; length min(m, n)
    beta  -- descending, in (0, 1]; length n - r, where r counts the
             generalized values with beta = 0
    x     -- n x n nonsingular

    The lengths give the branch (offset) and r = n - len(beta).
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

    @cached_property
    def filter_terms(self) -> FilterTerms:
        """The per-direction terms every Tikhonov filter, filtered
        coordinate and truncation rule reads, formed once per factorization
        on first use and held read-only, so every solve and selector on the
        same factors reads them without forming them again."""
        alpha = self.alpha
        beta = np.zeros_like(alpha)
        # alpha[i] sits at index offset + i of beta, which ends at len(beta)
        inside = self.beta[self.offset :]
        beta[: inside.shape[0]] = inside
        alpha_pos = alpha > 0.0
        terms = FilterTerms(
            alpha_sq=np.square(alpha),
            beta=beta,
            beta_pos=beta > 0.0,
            alpha_pos=alpha_pos,
            divisor=np.where(alpha_pos, alpha, 1.0),
        )
        for arr in terms:
            arr.flags.writeable = False
        return terms


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
    """The GSVD of the pair [a, l], for gsvd_full_rank and for rgsvd's
    compressed pair. It has one, tolerant mode: a first member numerically
    rank deficient on the branch gets near-zero alphas, not a refusal.
    Trusts its input: a and l are dense, finite float64 arrays that pass
    GmpPair's checks.

    The stack's column rank is refused here and nowhere else, on every
    route and at every size. R has the singular values of [a; l], and the
    core raises GmpViolationError when LAPACK's dtrcon estimates R's
    reciprocal condition at or below 1e-12 max(rows, n). The estimate costs
    O(n^2) and copies nothing, and unlike a ratio of R's diagonal entries
    it sees Kahan-type rank loss.

    Memory order: the core keeps only what it still needs. It takes the
    pair in a list that it empties, so a pair formed for it alone is freed
    once stacked. The stack is factored in place in one F-ordered buffer,
    of which only Q1 is copied out, and R is one n x n copy. R is not read
    during the eigensolve, so it waits packed in n(n+1)/2 entries from the
    rank check to the triangular solve. dsyevd runs in the buffer of the
    Gram matrix Q1.T Q1, whose lower triangle scipy's dsyrk forms F-ordered
    with the bits of numpy's syrk; nothing holds that buffer once the
    eigensolve returns. Q1 goes once U is formed, and U's column norms are
    taken a block of columns at a time. The peak is dsyevd's 2n^2
    workspace beside Q1, the packed R and the Gram matrix: about two copies
    of the stack.

    BLAS: numpy and scipy each load their own OpenBLAS, whose thread pool
    keeps spinning for a while after every call, so a switch from one to
    the other leaves the old pool spinning against the new one. Every BLAS
    and LAPACK call up to the triangular solve is scipy's, and the core
    hands over to numpy once, for its last product U = Q1 S, which stays
    numpy's because scipy's dgemm gives U other bits."""
    a, l = pair
    pair.clear()
    m, n = a.shape
    rows = m + l.shape[0]
    stack = np.concatenate((a, l), out=np.empty((rows, n), order="F"))
    del a, l
    q, tri = qr_reduced(stack)
    q1 = np.ascontiguousarray(q[:m])
    del stack, q
    # dtrcon reads R as the lower triangle of its F-ordered transpose. The
    # estimate is scale-free, and 0 for an all-zero R
    rcond = scipy.linalg.lapack.dtrcon(tri.T, norm="I", uplo="L")[0]
    if rcond <= 1e-12 * max(rows, n):
        raise GmpViolationError(
            "stacked pair is numerically column rank deficient (reciprocal "
            f"condition estimate of its triangular factor {rcond:.3e})"
        )
    # dtrttp packs R's upper triangle, read as the lower one of the
    # F-ordered transpose
    packed = scipy.linalg.lapack.dtrttp(tri.T, uplo="L")[0]
    del tri

    psi, svecs = symmetric_eig(scipy.linalg.blas.dsyrk(1.0, q1.T, trans=0, lower=1))
    # dtpttr unpacks R.T, F-ordered with zeros above the diagonal, so its
    # transpose is R as qr_reduced gave it: the same values, C-ordered
    tri = scipy.linalg.lapack.dtpttr(n, packed, uplo="L")[0].T
    del packed
    x = solve_upper_triangular(tri, svecs)
    del tri

    psi = np.clip(psi, 0.0, 1.0)
    r = int(np.count_nonzero(psi > 1.0 - 1e-12 * n))
    k0 = max(n - m, 0)  # the wide branch's leading directions have no alpha
    alpha = np.sqrt(psi[k0:])
    beta = np.sqrt(1.0 - psi[: n - r])
    # Columns of q1 @ svecs carry norm sqrt(psi) in exact arithmetic, but
    # psi can round to zero while the computed column still holds rounding
    # noise; normalizing by the computed norm keeps every column at unit
    # length instead of amplifying that noise.
    u = q1 @ svecs[:, k0:]
    del q1
    u /= np.maximum(_column_norms(u), np.finfo(float).tiny)

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

