"""Benchmark harness: run solver variants over seeded problem instances,
select the regularization parameter, and emit a deterministic CSV report
plus optional solution dumps for plotting.

Method tags:
  gsvd   dense factor-and-filter solve (tolerant of numerical rank loss)
  tgsvd  truncated expansion; k picked by discrete GCV or fixed
  rgsvd  two-sided sketched solve; the branch follows A's shape
  exact  stacked direct solve at a fixed lambda (no selection rule)

Failures for a single (problem, method, seed) combination are captured as
rows with NaN lambda/rel_error that carry the error; the run continues.
"""

from __future__ import annotations

import csv
import functools
import os
import time
from dataclasses import dataclass, replace

from .gsvd import GmpPair, GsvdFactors, gsvd_full_rank
from .linalg import as_finite, as_int
from .problems import QUADRATURE_PROBLEMS, TestProblemSpec, add_noise, generate
from .rgsvd import rgsvd
from .sampling import SamplerConfig
from .selection import gcv_lambda, gcv_truncation, lcurve_lambda
from .tikhonov import (
    RegularizedSolution,
    TikhonovProblem,
    solve_exact,
    solve_gsvd,
    solve_tgsvd,
)

METHODS = ("gsvd", "tgsvd", "rgsvd", "exact")
SELECTORS = ("gcv", "lcurve", "fixed")
CSV_HEADER = "problem,method,selector,lambda,rel_error,wall_time_s,l1,l2,seed"


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row. l1/l2 are the sketch sample counts (0 for the
    dense methods). rel_error is NaN when the problem has no x_true. A
    failed run carries NaN lambda and rel_error and, in ``error``, the
    exception as "<Type>: <message>"; the error is not a report column.

    wall_time_s covers factor, select and solve. A problem's dense factors
    are computed once and shared by its gsvd and tgsvd rows, and every
    such row is charged the factorization's time, so dense rows compare
    with sketched rows, which factor anew per seed."""

    problem: str
    method: str
    selector: str
    lam: float
    rel_error: float
    wall_time_s: float
    l1: int
    l2: int
    seed: int
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class BenchConfig:
    """Everything one benchmark run needs. n is the column dimension
    (grid side for 'tomo'); m < n triggers the row-truncated variant and
    m = None keeps the square shape. fixed_value carries the lambda (or
    the whole truncation index for tgsvd) when selector='fixed'.
    Construction runs each problem's TestProblemSpec checks and, for
    rgsvd, SamplerConfig's."""

    problems: tuple = QUADRATURE_PROBLEMS
    methods: tuple = ("rgsvd",)
    n: int = 2048
    m: int | None = None
    delta: float = 1e-3
    epsilon: float = 1e-2
    blocksize: int = 4
    seeds: tuple = (0,)
    selector: str = "gcv"
    fixed_value: float | None = None
    gcv_rows: str = "projected"
    output_path: str | None = None
    dump_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", tuple(as_int(s, "seeds", 0) for s in self.seeds))
        if not (self.problems and self.methods and self.seeds):
            raise ValueError("problems, methods and seeds lists must be nonempty")
        for name in self.problems:
            TestProblemSpec(name=name, n=self.n, m=self.m, delta=self.delta)
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        if "rgsvd" in self.methods:
            SamplerConfig(epsilon=self.epsilon, blocksize=self.blocksize)
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.selector == "fixed":
            value = as_finite(self.fixed_value, "fixed_value")
            if "tgsvd" in self.methods and not value.is_integer():
                raise ValueError(f"tgsvd's fixed_value is a depth and must be an integer, got {value}")
        if self.gcv_rows not in ("projected", "ambient"):
            raise ValueError(f"unknown gcv_rows {self.gcv_rows!r}")


def _run_cell(
    prob: TikhonovProblem, method: str, seed: int, cfg: BenchConfig, factored
) -> tuple[RegularizedSolution, float, int, int]:
    """Factor, select and solve one cell; return (solution, seconds, l1,
    l2). factored() gives the problem's dense factors and the seconds
    their one factorization took."""
    if method == "exact" and cfg.selector != "fixed":
        raise ValueError("method 'exact' supports only the fixed selector")
    if method == "tgsvd" and cfg.selector == "lcurve":
        raise ValueError("tgsvd supports selectors 'gcv' and 'fixed' only")
    factor_s = 0.0
    if method in ("gsvd", "tgsvd"):
        source, factor_s = factored()
    t0 = time.perf_counter()
    if method == "exact":
        return solve_exact(prob, float(cfg.fixed_value)), time.perf_counter() - t0, 0, 0
    if method == "rgsvd":
        sampler = SamplerConfig(epsilon=cfg.epsilon, blocksize=cfg.blocksize, seed=seed)
        source = rgsvd(prob.a, prob.l, cfg.epsilon, sampler)
    if cfg.selector == "fixed":
        param = float(cfg.fixed_value)
    elif method == "tgsvd":
        param, _ = gcv_truncation(source, prob.b, rows=cfg.gcv_rows)
    elif cfg.selector == "gcv":
        param, _ = gcv_lambda(source, prob.b, rows=cfg.gcv_rows)
    else:
        param, _ = lcurve_lambda(source, prob.b)
    solve = solve_tgsvd if method == "tgsvd" else solve_gsvd
    sol = solve(source, prob.b, param, x_true=prob.x_true)
    l1, l2 = (source.l1, source.l2) if method == "rgsvd" else (0, 0)
    return sol, factor_s + time.perf_counter() - t0, l1, l2


def run_benchmark(cfg: BenchConfig) -> list[BenchRecord]:
    """Execute the full (problem x method x seed) grid.

    Returns records sorted by (problem, method, seed). When cfg.output_path
    is set the CSV report is written; cfg.dump_dir additionally stores
    each seed's x_true and every computed solution vector for
    plotting/recomputation; prepare_outputs runs before the first row.
    """

    @functools.cache
    def clean(name: str) -> TikhonovProblem:
        return generate(TestProblemSpec(name=name, n=cfg.n, m=cfg.m))

    @functools.cache
    def instance(name: str, seed: int) -> TikhonovProblem:
        if name == "tomo":
            # the phantom, and so x_true and b, depends on the seed
            return generate(TestProblemSpec(name=name, n=cfg.n, m=cfg.m, delta=cfg.delta, seed=seed))
        base = clean(name)
        return replace(base, b=add_noise(base.b, cfg.delta, seed))

    @functools.cache
    def factored(name: str) -> tuple[GsvdFactors, float]:
        # A and L do not depend on the seed, tomography's included; the
        # core refuses a rank-deficient stack and frees the dense copy of
        # the sparse L once stacked
        prob = instance(name, cfg.seeds[0])
        pair = GmpPair(prob.a, prob.l)
        t0 = time.perf_counter()
        factors = gsvd_full_rank(pair, check_rank=False)
        return factors, time.perf_counter() - t0

    prepare_outputs(cfg)

    records: list[BenchRecord] = []
    for name in cfg.problems:
        for method in cfg.methods:
            for seed in cfg.seeds:
                t_all = time.perf_counter()
                error = None
                try:
                    prob = instance(name, seed)
                    sol, elapsed, l1, l2 = _run_cell(prob, method, seed, cfg, lambda: factored(name))
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    lam = rel_error = float("nan")
                    l1 = l2 = 0
                    elapsed = time.perf_counter() - t_all
                else:  # a write error is not the cell's: it stops the run
                    lam = float(sol.lam)
                    rel_error = float("nan") if sol.rel_error is None else sol.rel_error
                    if cfg.dump_dir is not None:
                        _dump_solution(cfg.dump_dir, prob, name, method, seed, sol)
                records.append(
                    BenchRecord(
                        problem=name,
                        method=method,
                        selector=cfg.selector,
                        lam=lam,
                        rel_error=rel_error,
                        wall_time_s=max(elapsed, 1e-9),
                        l1=l1,
                        l2=l2,
                        seed=seed,
                        error=error,
                    )
                )
    records.sort(key=lambda r: (r.problem, r.method, r.seed))
    if cfg.output_path is not None:
        emit_report(records, cfg.output_path)
    return records


def prepare_outputs(cfg: BenchConfig) -> None:
    """Create the report's and the dump directory before any row runs; raise
    OSError where one cannot be made or the report path is a directory."""
    if cfg.output_path is not None:
        if os.path.isdir(cfg.output_path):
            raise IsADirectoryError(f"report path {cfg.output_path} is a directory")
        os.makedirs(os.path.dirname(os.path.abspath(cfg.output_path)), exist_ok=True)
    if cfg.dump_dir is not None:
        os.makedirs(cfg.dump_dir, exist_ok=True)


def _write_vector(path, v) -> None:
    """One repr float per line, so the values parse back bit for bit."""
    with open(path, "w") as fh:
        fh.writelines(f"{float(x)!r}\n" for x in v)


def _dump_solution(dump_dir, prob: TikhonovProblem, name, method, seed, sol) -> None:
    """Write the solution and, beside it, the x_true of its seed."""
    pdir = os.path.join(dump_dir, name)
    os.makedirs(pdir, exist_ok=True)
    if prob.x_true is not None:
        _write_vector(os.path.join(pdir, f"x_true_seed{seed}.csv"), prob.x_true)
    _write_vector(os.path.join(pdir, f"{method}_seed{seed}.csv"), sol.x)


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_report(records, path) -> None:
    """Write the CSV report: pinned header, rows sorted by
    (problem, method, seed), floats serialized via repr for an exact
    parse round-trip."""
    rows = sorted(records, key=lambda r: (r.problem, r.method, r.seed))
    if not rows:
        raise ValueError("no records to report")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [
                    r.problem,
                    r.method,
                    r.selector,
                    _fmt(r.lam),
                    _fmt(r.rel_error),
                    _fmt(r.wall_time_s),
                    str(r.l1),
                    str(r.l2),
                    str(r.seed),
                ]
            )
