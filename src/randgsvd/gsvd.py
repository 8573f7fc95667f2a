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
buffer, of which only Q1 is copied out, and R is one n x n copy. dsyevd
runs in the buffer of the Gram matrix Q1.T @ Q1, which numpy's syrk forms
exactly symmetric. Q1 goes once U is formed, and U's column norms are
taken a block of columns at a time. What remains at the peak is dsyevd's
2N^2 workspace beside Q1, R and the Gram matrix.

GsvdFactors keeps U, X, alpha and beta, which every solve and selector
reads. V1 is not formed: no routine needs it, and a caller that does gets
it on demand as V1 = L @ X[:, :n-r] / beta, whose columns are orthonormal
because L X[:, :n-r] = Q2 S[:, :n-r] with Q2 the bottom block of Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionError,
    RankDeficiencyError,
    as_matrix,
    dense,
    qr_reduced,
    solve_upper_triangular,
    symmetric_eig,
)

# stack-rank check is O(n^3); trust larger inputs (callers pay for a full
# factorization anyway, which surfaces rank trouble on its own)
GMP_CHECK_MAX_N = 512


class GmpViolationError(RankDeficiencyError):
    """The stacked pair [A; L] is (numerically) column rank deficient."""


def check_stack_rank(a: np.ndarray, l, context: str = "matrix pair") -> None:
    """Raise GmpViolationError when [A; L] is numerically rank deficient.

    Only runs the O(n^3) check for n <= GMP_CHECK_MAX_N; a sparse L is
    densified only then.
    """
    n = a.shape[1]
    if n > GMP_CHECK_MAX_N:
        return
    sigma = np.linalg.svd(np.vstack([a, dense(l)]), compute_uv=False)
    if sigma.size < n or sigma[0] == 0.0 or sigma[n - 1] <= 1e-10 * sigma[0]:
        raise GmpViolationError(
            f"{context}: stacked matrix is numerically column rank deficient "
            f"(sigma_min/sigma_max = {0.0 if sigma[0] == 0 else sigma[n-1]/sigma[0]:.3e})"
        )


@dataclass(frozen=True)
class GmpPair:
    """A matrix pair {a, l} acting on the same solution space, with the
    vertical stack [a; l] required to have full column rank. Both members
    are stored dense; a scipy.sparse l is densified."""

    a: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "pair member a")
        l = as_matrix(dense(self.l), "pair member l")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "l", l)
        if a.shape[1] != l.shape[1]:
            raise DimensionError(
                f"pair members need matching column counts, got {a.shape} and {l.shape}"
            )
        if a.shape[0] + l.shape[0] < a.shape[1]:
            raise GmpViolationError(
                f"stack has fewer rows ({a.shape[0] + l.shape[0]}) than columns ({a.shape[1]})"
            )
        check_stack_rank(a, l, "GmpPair")


@dataclass(frozen=True)
class GsvdFactors:
    """Generalized SVD factors of a pair (see module docstring for the
    identities each branch satisfies).

    u      -- m x n (tall) or m x m (wide), orthonormal columns
    alpha  -- ascending, in [0, 1]
    beta   -- descending, in (0, 1]; length n - r
    x      -- n x n nonsingular
    r      -- number of generalized values with beta = 0
    branch -- "tall" or "wide"
    """

    u: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    x: np.ndarray
    r: int
    branch: str

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def offset(self) -> int:
        """Index of alpha[0] within the global spectrum 1..n (0 for the tall
        branch, n - m for the wide branch whose leading directions have
        alpha = 0)."""
        return 0 if self.branch == "tall" else self.n - self.u.shape[0]

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
    """Shared GSVD workhorse of gsvd_full_rank, rgsvd's compressed pair,
    bench's dense factors and the error bounds' ambient pair. It has one,
    tolerant mode: a first member numerically rank deficient on the branch
    gets near-zero alphas, not a refusal. Takes the pair as a list [a, l]
    and empties it, so that a pair the caller formed for the core alone is
    freed once it is stacked. Trusts its input: a and l are dense, finite
    float64 arrays with matching column counts whose stack has at least as
    many rows as columns; a numerically singular triangular factor is
    refused by the diagonal-ratio check below."""
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
    diag_r = np.abs(np.diag(tri))
    # relative to the largest diagonal entry, so the test does not depend on
    # the pair's scale; an all-zero diagonal fails it too
    if diag_r.size and diag_r.min() <= 1e-12 * diag_r.max() * max(rows, n):
        raise GmpViolationError(
            "stacked pair is numerically column rank deficient (triangular factor "
            f"diagonal ratio {diag_r.min() / max(diag_r.max(), 1e-300):.3e})"
        )

    # the Gram matrix comes out of numpy's syrk exactly symmetric, and
    # symmetric_eig consumes it
    psi, svecs = symmetric_eig(q1.T @ q1)
    psi = np.clip(psi, 0.0, 1.0)

    r = int(np.count_nonzero(psi > 1.0 - 1e-12 * n))
    tall = n <= m
    k0 = 0 if tall else n - m
    alpha = np.sqrt(psi[k0:])
    # Columns of q1 @ svecs carry norm sqrt(psi) in exact arithmetic, but
    # psi can round to zero while the computed column still holds rounding
    # noise; normalizing by the computed norm keeps every column at unit
    # length instead of amplifying that noise.
    u = q1 @ svecs if tall else q1 @ svecs[:, k0:]
    del q1
    u /= np.maximum(_column_norms(u), np.finfo(float).tiny)

    beta = np.sqrt(1.0 - psi[: n - r])
    x = solve_upper_triangular(tri, svecs)

    return GsvdFactors(
        u=u,
        alpha=alpha,
        beta=beta,
        x=x,
        r=r,
        branch="tall" if tall else "wide",
    )


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
    factors = _gsvd_core([pair.a, pair.l])
    alpha = factors.alpha
    if check_rank and alpha.size and alpha.min() <= np.sqrt(1e-12 * factors.n):
        raise RankDeficiencyError(
            "first pair member is numerically rank deficient on the requested "
            f"branch (smallest required psi = {alpha.min() ** 2:.3e})"
        )
    return factors

