"""Two-sided randomized GSVD of a large matrix pair.

One routine serves both orientations. Stage one runs the adaptive
randomized range finder on the longer side of A: its column space when
rows >= cols (branch "over", basis P), its row space when rows < cols
(branch "under", basis Q). Stage two sketches the other side through the
first basis (A.T P, respectively A Q). The result keeps P, Q and the exact
GSVD of the small compressed pair {P.T A Q, L Q}, not the pair itself;
every solve, selection and bound works from those alone. The lifted
factors follow on demand: U2 = P @ inner.u and V1 = (L Q) @
inner.x[:, :nb] / inner.beta (nb = len(inner.beta)) have orthonormal
columns, and the full-row-rank Z = inner.x^-1 @ Q.T satisfies

    [P P.T A Q Q.T; L Q Q.T] = [U2 diag(alpha) Z_rows; V1 diag(beta) Z_head]

where Z_rows is Z aligned with alpha (all rows when the compressed pair is
tall, the trailing l2 rows when the "under" branch leaves it wide) and
Z_head is the leading rows aligned with beta. The sketched operator
P P.T A Q Q.T deviates from A by at most the adaptive tolerance per stage,
which is what makes solves and error bounds through this object honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gsvd import GsvdFactors, _gsvd_core
from .linalg import DimensionError, as_operator, matmul
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

    p, q        -- orthonormal sketch bases of the data space (rows of A)
                   and of the solution space (columns of A); p.T @ b is
                   the projected data. Branch "over" draws p in stage one
                   (l1 columns) and q in stage two (l2); branch "under"
                   draws q in stage one and p in stage two
    inner       -- exact GSVD factors of the compressed pair
                   {P.T A Q, L Q} (None when a stage collapsed to zero
                   columns)
    l1, l2      -- stage-one / stage-two sample counts
    branch      -- "over" (rows >= cols) or "under" (rows < cols)
    stage1      -- the range finder's result for stage one: tolerance,
                   seed, blocks examined, passes over the target and the
                   triggering diagonal; its q is the very array held as p
                   ("over") or q ("under")
    stage2      -- the same for stage two, whose q is the other basis;
                   None when stage one kept no column and stage two did
                   not run
    """

    p: np.ndarray
    q: np.ndarray
    inner: GsvdFactors | None
    l1: int
    l2: int
    branch: str
    stage1: RangeBasis
    stage2: RangeBasis | None

    @property
    def is_degenerate(self) -> bool:
        return self.inner is None


def rgsvd(a, l, epsilon: float, cfg: SamplerConfig) -> ApproxGsvd:
    """Two-sided randomized GSVD of the pair {a, l}.

    Stage one sketches t = a (rows >= cols) or t = a.T (rows < cols) to
    tolerance epsilon, which must equal cfg.epsilon (basis B1, l1
    columns); stage two sketches t.T @ B1 (basis B2, l2 <= l1 columns,
    fresh seed derived from cfg.seed, tolerance cfg.stage2_epsilon or
    epsilon). The compressed pair
    {P.T A Q, L Q} -- l1 x l2 and full column rank w.p. 1 on branch
    "over", l2 x l1 and full row rank w.p. 1 on branch "under", where it
    lands on the wide GSVD branch whenever l2 < l1 -- goes through the
    exact GSVD; no factor is lifted back to the ambient dimensions.

    l may be a scipy.sparse matrix: it is validated on its stored values
    and L Q is formed as a sparse product, never densified; a dense l is
    the fast path for dense regularizers. Only a's shape is checked here:
    a is not scanned for finiteness, since stage one's range finder rejects
    a NaN or inf entry, or a sketch that overflows, on its products with a.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"pair member a must be 2-D, got ndim={a.ndim}")
    l = as_operator(l, "pair member l")
    m, n = a.shape
    if l.shape[1] != n:
        raise DimensionError(f"regularizer columns {l.shape[1]} != {n}")
    if epsilon != cfg.epsilon:
        raise ValueError(f"epsilon {epsilon} differs from the sampler's {cfg.epsilon}")
    over = m >= n
    branch = "over" if over else "under"

    t = a if over else a.T
    st1 = stage_config(cfg, epsilon=epsilon, seed=cfg.seed, ncols=t.shape[1])
    stage1 = adaptive_range_finder(t, st1)
    stage2 = None
    basis1 = stage1.q
    basis2 = np.empty((t.shape[1], 0))
    l1 = basis1.shape[1]
    if l1:
        # stage two needs its target C-ordered to keep its own bits
        s = np.ascontiguousarray(matmul(t.T, basis1))
        st2 = stage_config(
            cfg,
            epsilon=cfg.stage2_epsilon if cfg.stage2_epsilon is not None else epsilon,
            seed=derive_stage_seed(cfg.seed),
            ncols=l1,
        )
        stage2 = adaptive_range_finder(s, st2)
        basis2 = stage2.q
    l2 = basis2.shape[1]
    p, q = (basis1, basis2) if over else (basis2, basis1)
    if l2:
        pair = [s.T @ basis2 if over else basis2.T @ s]
        del s  # A.T P or A Q, as large as A; the core needs only P.T A Q
        pair.append(l @ q)
        # tolerant core: a tight epsilon can legitimately capture directions
        # the regularizer dominates (tiny alpha); the sketched stack stays
        # full rank, so the solve is well-posed and the filters damp those
        # directions. The core empties pair, which holds the only
        # references to P.T A Q and L Q, so both go once they are stacked
        inner = _gsvd_core(pair)
    else:  # degenerate: no core to factor, and both counts read 0
        inner = None
        l1 = 0
    return ApproxGsvd(
        p=p,
        q=q,
        inner=inner,
        l1=l1,
        l2=l2,
        branch=branch,
        stage1=stage1,
        stage2=stage2,
    )
