"""Two-sided randomized GSVD of a large matrix pair.

Both routines compress the first pair member with two adaptive randomized
range finders -- one for its column space (basis P) and one for the row
space revealed by the first sketch (basis Q) -- then take the exact GSVD of
the small compressed pair {P.T A Q, L Q}. Lifting the inner factors back
through the bases yields orthonormal-column U2 and V1, diagonals alpha and
beta, and a full-row-rank Z with

    [P P.T A Q Q.T; L Q Q.T] = [U2 diag(alpha) Z_rows; V1 diag(beta) Z_head]

where Z = inner_X^-1 @ Q.T, Z_rows is Z aligned with alpha (all rows in
the overdetermined case, the trailing l2 rows in the underdetermined one)
and Z_head is the leading rows aligned with beta. The sketched operator
P P.T A Q Q.T deviates from A by at most the adaptive tolerance per stage,
which is what makes solves and error bounds through this object honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gsvd import GsvdFactors, _gsvd_core
from .linalg import DimensionError, as_matrix
from .sampling import (
    RangeBasis,
    SamplerConfig,
    adaptive_range_finder,
    derive_stage_seed,
    stage_config,
)


@dataclass(frozen=True)
class ApproxGsvd:
    """Randomized GSVD payload.

    p, q        -- orthonormal sketch bases (their widths are l2/l1-aligned
                   per branch; p.T @ b is the projected data in both cases)
    a_comp      -- P.T A Q, the compressed first member
    l_comp      -- L Q, the compressed regularizer
    inner       -- exact GSVD factors of {a_comp, l_comp} (None when a
                   stage collapsed to zero columns)
    u2, v1      -- lifted orthonormal-column factors
    l1, l2      -- stage-one / stage-two sample counts
    epsilon     -- stage-one tolerance the run was asked to honor
    branch      -- "over" (rows >= cols) or "under" (rows < cols)
    seed        -- base seed of stage one
    """

    p: np.ndarray
    q: np.ndarray
    a_comp: np.ndarray
    l_comp: np.ndarray
    inner: GsvdFactors | None
    u2: np.ndarray
    v1: np.ndarray
    w: np.ndarray
    l1: int
    l2: int
    epsilon: float
    branch: str
    seed: int

    @property
    def is_degenerate(self) -> bool:
        return self.inner is None

    @property
    def z(self) -> np.ndarray:
        """Z = inner_X^-1 @ Q.T (full row rank), formed on each access: it
        is the one lifted factor whose size grows with the ambient
        dimension, so it is not kept."""
        return self.w @ self.q.T

    @property
    def alpha(self) -> np.ndarray:
        return self.inner.alpha if self.inner is not None else np.empty(0)

    @property
    def beta(self) -> np.ndarray:
        return self.inner.beta if self.inner is not None else np.empty(0)


def _degenerate(m, n, p_rows, basis_p, basis_q, epsilon, branch, seed) -> ApproxGsvd:
    return ApproxGsvd(
        p=basis_p,
        q=basis_q,
        a_comp=np.empty((basis_p.shape[1], basis_q.shape[1])),
        l_comp=np.empty((p_rows, basis_q.shape[1])),
        inner=None,
        u2=np.empty((m, 0)),
        v1=np.empty((p_rows, 0)),
        w=np.empty((0, 0)),
        l1=0,
        l2=0,
        epsilon=epsilon,
        branch=branch,
        seed=seed,
    )


def rgsvd_overdetermined(a, l, epsilon: float, cfg: SamplerConfig) -> ApproxGsvd:
    """Two-sided randomized GSVD for rows >= cols.

    Stage one sketches a itself (basis P, l1 columns); stage two sketches
    a.T @ P (basis Q, l2 <= l1 columns, fresh seed derived from cfg.seed,
    tolerance cfg.stage2_epsilon or epsilon). The compressed pair
    {P.T A Q (l1 x l2, full column rank w.p. 1), L Q} goes through the
    exact GSVD on its tall branch, and U2 = P @ inner_U lifts the left
    factor back to the ambient rows.
    """
    a = as_matrix(a, "pair member a")
    l = as_matrix(l, "pair member l")
    m, n = a.shape
    if m < n:
        raise DimensionError(f"overdetermined factorization needs rows >= cols, got {m}x{n}")
    if l.shape[1] != n:
        raise DimensionError(f"regularizer columns {l.shape[1]} != {n}")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    st1 = stage_config(cfg, epsilon=epsilon, seed=cfg.seed, ncols=n)
    basis_p = adaptive_range_finder(a, st1)
    l1 = basis_p.ncols
    if l1 == 0:
        return _degenerate(m, n, l.shape[0], basis_p.q, np.empty((n, 0)), epsilon, "over", cfg.seed)

    # (P.T A).T gives the bits of A.T P about twice as fast; stage two
    # needs it C-ordered to keep its own bits
    atp = np.ascontiguousarray((basis_p.q.T @ a).T)
    st2 = stage_config(
        cfg,
        epsilon=cfg.stage2_epsilon if cfg.stage2_epsilon is not None else epsilon,
        seed=derive_stage_seed(cfg.seed),
        ncols=l1,
    )
    basis_q = adaptive_range_finder(atp, st2)
    l2 = basis_q.ncols
    if l2 == 0:
        return _degenerate(m, n, l.shape[0], basis_p.q, basis_q.q, epsilon, "over", cfg.seed)

    a_comp = atp.T @ basis_q.q
    l_comp = l @ basis_q.q
    # tolerant core: a tight epsilon can legitimately capture directions the
    # regularizer dominates (tiny alpha); the sketched stack stays full rank,
    # so the solve is well-posed and the filters damp those directions
    inner, svecs, rtri = _gsvd_core(a_comp, l_comp, check_rank=False)
    u2 = basis_p.q @ inner.u
    w = svecs.T @ rtri

    return ApproxGsvd(
        p=basis_p.q,
        q=basis_q.q,
        a_comp=a_comp,
        l_comp=l_comp,
        inner=inner,
        u2=u2,
        v1=inner.v1,
        w=w,
        l1=l1,
        l2=l2,
        epsilon=epsilon,
        branch="over",
        seed=cfg.seed,
    )


def rgsvd_underdetermined(a, l, epsilon: float, cfg: SamplerConfig) -> ApproxGsvd:
    """Two-sided randomized GSVD for rows < cols.

    Stage one sketches a.T (basis Q over the solution space, l1 columns);
    stage two sketches a @ Q (basis P over the data space, l2 <= l1). The
    compressed pair {P.T A Q (l2 x l1, full row rank w.p. 1), L Q} goes
    through the exact GSVD, landing on its wide branch whenever l2 < l1,
    and U2 = P @ inner_U lifts the left factor. alpha then aligns with the
    trailing l2 rows of Z.
    """
    a = as_matrix(a, "pair member a")
    l = as_matrix(l, "pair member l")
    m, n = a.shape
    if m >= n:
        raise DimensionError(f"underdetermined factorization needs rows < cols, got {m}x{n}")
    if l.shape[1] != n:
        raise DimensionError(f"regularizer columns {l.shape[1]} != {n}")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    st1 = stage_config(cfg, epsilon=epsilon, seed=cfg.seed, ncols=m)
    basis_q = adaptive_range_finder(a.T, st1)
    l1 = basis_q.ncols
    if l1 == 0:
        return _degenerate(m, n, l.shape[0], np.empty((m, 0)), basis_q.q, epsilon, "under", cfg.seed)

    aq = a @ basis_q.q
    st2 = stage_config(
        cfg,
        epsilon=cfg.stage2_epsilon if cfg.stage2_epsilon is not None else epsilon,
        seed=derive_stage_seed(cfg.seed),
        ncols=l1,
    )
    basis_p = adaptive_range_finder(aq, st2)
    l2 = basis_p.ncols
    if l2 == 0:
        return _degenerate(m, n, l.shape[0], basis_p.q, basis_q.q, epsilon, "under", cfg.seed)

    a_comp = basis_p.q.T @ aq
    l_comp = l @ basis_q.q
    # tolerant core: a tight epsilon can legitimately capture directions the
    # regularizer dominates (tiny alpha); the sketched stack stays full rank,
    # so the solve is well-posed and the filters damp those directions
    inner, svecs, rtri = _gsvd_core(a_comp, l_comp, check_rank=False)
    u2 = basis_p.q @ inner.u
    w = svecs.T @ rtri

    return ApproxGsvd(
        p=basis_p.q,
        q=basis_q.q,
        a_comp=a_comp,
        l_comp=l_comp,
        inner=inner,
        u2=u2,
        v1=inner.v1,
        w=w,
        l1=l1,
        l2=l2,
        epsilon=epsilon,
        branch="under",
        seed=cfg.seed,
    )


def rgsvd(a, l, epsilon: float, cfg: SamplerConfig) -> ApproxGsvd:
    """Dispatch to the branch matching the shape of ``a``; the branch
    validates its inputs."""
    shape = np.shape(a)
    if len(shape) == 2 and shape[0] < shape[1]:
        return rgsvd_underdetermined(a, l, epsilon, cfg)
    return rgsvd_overdetermined(a, l, epsilon, cfg)


def sketched_identities(approx: ApproxGsvd, a, l) -> tuple[float, float]:
    """Frobenius deviations of the lifted reconstruction identities

        |P P.T A Q Q.T - U2 diag(alpha) Z_rows|_F
        |L Q Q.T       - V1 diag(beta)  Z_head|_F

    against the supplied ambient pair. Small-scale diagnostic.
    """
    a = as_matrix(a)
    l = as_matrix(l)
    p, q = approx.p, approx.q
    z = approx.z
    inner = approx.inner
    if inner is None:
        raise ValueError("degenerate factorization has no identities to check")
    sketched_a = p @ (p.T @ a @ q) @ q.T
    z_rows = z[inner.offset :]
    err_a = float(np.linalg.norm(sketched_a - approx.u2 @ (inner.alpha[:, None] * z_rows)))
    nb = inner.beta.shape[0]
    err_l = float(np.linalg.norm(l @ q @ q.T - approx.v1 @ (inner.beta[:, None] * z[:nb])))
    return err_a, err_l
