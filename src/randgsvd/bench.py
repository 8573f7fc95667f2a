"""Benchmark harness: run solver variants over seeded problem instances,
select the regularization parameter, and emit a deterministic CSV report
plus optional solution dumps for plotting.

Method tags:
  gsvd        dense factor-and-filter solve (tolerant of numerical rank loss)
  tgsvd       truncated expansion; k picked by discrete GCV or fixed
  rgsvd_alg3  two-sided sketched solve, overdetermined/square orientation
  rgsvd_alg4  two-sided sketched solve, underdetermined orientation
  exact       stacked direct solve at a fixed lambda (no selection rule)

Failures for a single (problem, method, seed) combination are captured as
rows with NaN lambda/rel_error that carry the error; the run continues.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, replace

from .gsvd import GmpPair, GsvdFactors, gsvd_full_rank
from .problems import QUADRATURE_PROBLEMS, TestProblemSpec, add_noise, generate
from .rgsvd import rgsvd
from .sampling import SamplerConfig
from .selection import gcv_lambda, gcv_truncation, lcurve_lambda
from .tikhonov import (
    RegularizedSolution,
    TikhonovProblem,
    solve_exact,
    solve_gsvd,
    solve_rgsvd,
    solve_tgsvd,
)
from . import matio

METHODS = ("gsvd", "tgsvd", "rgsvd_alg3", "rgsvd_alg4", "exact")
SELECTORS = ("gcv", "lcurve", "fixed")
CSV_HEADER = "problem,method,selector,lambda,rel_error,wall_time_s,l1,l2,seed"


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row. l1/l2 are the sketch sample counts (0 for the
    dense methods). rel_error is NaN when the problem has no x_true. A
    failed run carries NaN lambda and rel_error and, in ``error``, the
    exception as "<Type>: <message>"; the error is not a report column,
    so rows read back from a report have none."""

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
    truncation index for tgsvd) when selector='fixed'."""

    problems: tuple = QUADRATURE_PROBLEMS
    methods: tuple = ("rgsvd_alg3",)
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
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.problems:
            raise ValueError("problems list must be nonempty")
        if not self.seeds:
            raise ValueError("seeds list must be nonempty")
        if not self.methods:
            raise ValueError("methods list must be nonempty")
        for name in self.methods:
            if name not in METHODS:
                raise ValueError(f"unknown method {name!r}")
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.selector == "fixed" and self.fixed_value is None:
            raise ValueError("selector 'fixed' needs fixed_value")
        if self.gcv_rows not in ("projected", "ambient"):
            raise ValueError(f"unknown gcv_rows {self.gcv_rows!r}")


class _ProblemCache:
    """Memoizes the expensive clean parts across seeds: the operator,
    regularizer, and clean data only depend on (name, n, m) for the
    quadrature problems. Tomography phantoms are seed-dependent, so those
    instances are cached per seed."""

    def __init__(self):
        self._store: dict = {}

    def instance(self, cfg: BenchConfig, name: str, seed: int) -> TikhonovProblem:
        if name == "tomo":
            key = ("tomo", cfg.n, cfg.delta, seed)
            if key not in self._store:
                self._store[key] = generate(
                    TestProblemSpec(name="tomo", n=cfg.n, delta=cfg.delta, seed=seed)
                )
            return self._store[key]
        key = (name, cfg.n, cfg.m)
        if key not in self._store:
            self._store[key] = generate(TestProblemSpec(name=name, n=cfg.n, m=cfg.m))
        clean = self._store[key]
        return TikhonovProblem(
            a=clean.a,
            l=clean.l,
            b=add_noise(clean.b, cfg.delta, seed),
            x_true=clean.x_true,
            delta=cfg.delta,
            meta=dict(clean.meta or {}, seed=seed),
        )


class _FactorCache:
    """The dense factorization depends only on the instance operator, so
    gsvd/tgsvd rows across seeds of the same quadrature problem reuse it."""

    def __init__(self):
        self._store: dict = {}
        self._times: dict = {}

    def factors(self, name: str, cfg: BenchConfig, prob: TikhonovProblem):
        key = (name, cfg.n, cfg.m)
        if key not in self._store:
            t0 = time.perf_counter()
            factors = gsvd_full_rank(GmpPair(prob.a, prob.l), check_rank=False)
            self._times[key] = time.perf_counter() - t0
            self._store[key] = factors
        return self._store[key], self._times[key]


def _select_lambda(source, b, cfg: BenchConfig) -> float:
    if cfg.selector == "fixed":
        return float(cfg.fixed_value)
    if cfg.selector == "gcv":
        lam, _ = gcv_lambda(source, b, rows=cfg.gcv_rows)
        return lam
    lam, _ = lcurve_lambda(source, b)
    return lam


def _run_dense(
    prob: TikhonovProblem, method: str, cfg: BenchConfig, factors: GsvdFactors, factor_time: float
) -> tuple[RegularizedSolution, float]:
    t0 = time.perf_counter()
    if method == "tgsvd":
        if cfg.selector == "fixed":
            k = int(cfg.fixed_value)
        elif cfg.selector == "gcv":
            k, _ = gcv_truncation(factors, prob.b, rows=cfg.gcv_rows)
        else:
            raise ValueError("tgsvd supports selectors 'gcv' and 'fixed' only")
        sol = solve_tgsvd(factors, prob.b, k, x_true=prob.x_true)
    else:
        lam = _select_lambda(factors, prob.b, cfg)
        sol = solve_gsvd(factors, prob.b, lam, x_true=prob.x_true)
    return sol, factor_time + (time.perf_counter() - t0)


def _run_sketched(
    prob: TikhonovProblem, method: str, cfg: BenchConfig, seed: int
) -> tuple[RegularizedSolution, float, int, int]:
    m, _, n = prob.shape
    if method == "rgsvd_alg3" and m < n:
        raise ValueError("rgsvd_alg3 needs m >= n; use rgsvd_alg4")
    if method == "rgsvd_alg4" and m >= n:
        raise ValueError("rgsvd_alg4 needs m < n; use rgsvd_alg3")
    # Stage two resamples a matrix whose rank stage one already pinned at
    # l1, so its Frobenius-tail trigger fires a few columns early at the
    # stage-one tolerance. The benchmark drives stage two to saturation
    # instead, which reproduces the l2 == l1 behavior of the one-sided
    # baselines this harness is compared against.
    sampler = SamplerConfig(
        epsilon=cfg.epsilon,
        blocksize=cfg.blocksize,
        seed=seed,
        stage2_epsilon=cfg.epsilon * 1e-6,
    )
    t0 = time.perf_counter()
    approx = rgsvd(prob.a, prob.l, cfg.epsilon, sampler)
    lam = _select_lambda(approx, prob.b, cfg)
    sol = solve_rgsvd(approx, prob.b, lam, x_true=prob.x_true)
    return sol, time.perf_counter() - t0, approx.l1, approx.l2


def _run_exact(prob: TikhonovProblem, cfg: BenchConfig) -> tuple[RegularizedSolution, float]:
    if cfg.selector != "fixed":
        raise ValueError("method 'exact' supports only the fixed selector")
    t0 = time.perf_counter()
    sol = solve_exact(prob, float(cfg.fixed_value))
    return sol, time.perf_counter() - t0


def run_benchmark(cfg: BenchConfig) -> list[BenchRecord]:
    """Execute the full (problem x method x seed) grid.

    Returns records sorted by (problem, method, seed). When cfg.output_path
    is set the CSV report is written; cfg.dump_dir additionally stores
    x_true and every computed solution vector for plotting/recomputation.
    """
    problems = _ProblemCache()
    dense = _FactorCache()
    records: list[BenchRecord] = []
    for name in cfg.problems:
        for method in cfg.methods:
            for seed in cfg.seeds:
                t_all = time.perf_counter()
                try:
                    prob = problems.instance(cfg, name, seed)
                    l1 = l2 = 0
                    if method in ("gsvd", "tgsvd"):
                        factors, f_time = dense.factors(name, cfg, prob)
                        sol, elapsed = _run_dense(prob, method, cfg, factors, f_time)
                    elif method == "exact":
                        sol, elapsed = _run_exact(prob, cfg)
                    else:
                        sol, elapsed, l1, l2 = _run_sketched(prob, method, cfg, seed)
                    rec = BenchRecord(
                        problem=name,
                        method=method,
                        selector=cfg.selector,
                        lam=float(sol.lam),
                        rel_error=float("nan") if sol.rel_error is None else sol.rel_error,
                        wall_time_s=max(elapsed, 1e-9),
                        l1=l1,
                        l2=l2,
                        seed=seed,
                    )
                    if cfg.dump_dir is not None:
                        _dump_solution(cfg.dump_dir, prob, rec, sol)
                except Exception as exc:
                    rec = BenchRecord(
                        problem=name,
                        method=method,
                        selector=cfg.selector,
                        lam=float("nan"),
                        rel_error=float("nan"),
                        wall_time_s=max(time.perf_counter() - t_all, 1e-9),
                        l1=0,
                        l2=0,
                        seed=seed,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                records.append(rec)
    records.sort(key=lambda r: (r.problem, r.method, r.seed))
    if cfg.output_path is not None:
        emit_report(records, cfg.output_path)
    return records


def _dump_solution(dump_dir, prob: TikhonovProblem, rec: BenchRecord, sol) -> None:
    pdir = os.path.join(dump_dir, rec.problem)
    os.makedirs(pdir, exist_ok=True)
    truth = os.path.join(pdir, "x_true.csv")
    if prob.x_true is not None and not os.path.exists(truth):
        matio.write_vector_csv(truth, prob.x_true)
    matio.write_vector_csv(
        os.path.join(pdir, f"{rec.method}_seed{rec.seed}.csv"), sol.x
    )


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


def read_report(path) -> list[BenchRecord]:
    """Parse a CSV emitted by emit_report back into records (exact for
    repr-serialized floats)."""
    out: list[BenchRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER.split(","):
            raise ValueError(f"unexpected report header {header!r}")
        for row in reader:
            out.append(
                BenchRecord(
                    problem=row[0],
                    method=row[1],
                    selector=row[2],
                    lam=float(row[3]),
                    rel_error=float(row[4]),
                    wall_time_s=float(row[5]),
                    l1=int(row[6]),
                    l2=int(row[7]),
                    seed=int(row[8]),
                )
            )
    return out


def strip_timings(records) -> list[BenchRecord]:
    """Copy of the records with wall_time_s zeroed — the determinism
    comparisons exclude timing."""
    return [replace(r, wall_time_s=0.0) for r in records]


def records_equal(a, b) -> bool:
    """Equality of the report columns, treating NaN == NaN (for round-trip
    checks)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for fa, fb in (
            (ra.problem, rb.problem),
            (ra.method, rb.method),
            (ra.selector, rb.selector),
            (ra.l1, rb.l1),
            (ra.l2, rb.l2),
            (ra.seed, rb.seed),
        ):
            if fa != fb:
                return False
        for fa, fb in ((ra.lam, rb.lam), (ra.rel_error, rb.rel_error), (ra.wall_time_s, rb.wall_time_s)):
            same = (math.isnan(fa) and math.isnan(fb)) or fa == fb
            if not same:
                return False
    return True
