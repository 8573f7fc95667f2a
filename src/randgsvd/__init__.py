"""Randomized generalized SVD toolkit for large discrete ill-posed
least-squares problems with general Tikhonov regularization.

Core pipeline: build a matrix pair (operator, regularizer), sketch both
sides with the adaptive uniform range finder, factor the small core
exactly, then solve/filter/select the regularization parameter through the
compressed factors. Dense exact routes are kept alongside as oracles and
baselines.
"""

from .linalg import DimensionError, RankDeficiencyError
from .sampling import (
    RangeBasis,
    SamplerConfig,
    SamplingError,
    adaptive_range_finder,
    uniform_test_matrix,
)
from .gsvd import (
    GmpPair,
    GmpViolationError,
    GsvdFactors,
    gsvd_full_rank,
)
from .rgsvd import ApproxGsvd, rgsvd
from .tikhonov import (
    RegularizedSolution,
    TikhonovProblem,
    solve_exact,
    solve_gsvd,
    solve_rgsvd,
    solve_tgsvd,
    tikhonov_filters,
)
from .selection import SelectionError, gcv_lambda, gcv_truncation, lcurve_lambda
from .bounds import ErrorBoundDiagnostics, error_bound_diagnostics
from .problems import (
    TestProblemSpec,
    add_noise,
    first_difference,
    generate,
    parallel_tomo,
    phantom,
)
from .bench import BenchConfig, BenchRecord, emit_report, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "ApproxGsvd",
    "BenchConfig",
    "BenchRecord",
    "DimensionError",
    "ErrorBoundDiagnostics",
    "GmpPair",
    "GmpViolationError",
    "GsvdFactors",
    "RangeBasis",
    "RankDeficiencyError",
    "RegularizedSolution",
    "SamplerConfig",
    "SamplingError",
    "SelectionError",
    "TestProblemSpec",
    "TikhonovProblem",
    "add_noise",
    "adaptive_range_finder",
    "emit_report",
    "error_bound_diagnostics",
    "first_difference",
    "gcv_lambda",
    "gcv_truncation",
    "generate",
    "gsvd_full_rank",
    "lcurve_lambda",
    "parallel_tomo",
    "phantom",
    "rgsvd",
    "run_benchmark",
    "solve_exact",
    "solve_gsvd",
    "solve_rgsvd",
    "solve_tgsvd",
    "tikhonov_filters",
    "uniform_test_matrix",
]
