"""Print sha256 digests of randomized GSVD factors and the solves built on
them, one line per case and kind, so two source trees can be compared
bit for bit with diff:

    PYTHONPATH=src python tests/factor_digest.py kernels > kernels.txt
    PYTHONPATH=src python tests/factor_digest.py tomo > tomo.txt
    PYTHONPATH=src python tests/factor_digest.py dense > dense.txt
    PYTHONPATH=src python tests/factor_digest.py under > under.txt
    PYTHONPATH=src python tests/factor_digest.py problems > problems.txt
    PYTHONPATH=src python tests/factor_digest.py bench > bench.txt
    PYTHONPATH=src python tests/factor_digest.py bounds > bounds.txt

An optional second argument sets the BLAS thread count in place of the
mode's default given below, e.g. ``factor_digest.py kernels 2``.

"all OUTDIR" runs every mode at its default thread count, and kernels,
under and dense again at 2 threads, each in its own subprocess (the
thread count is pinned before numpy is imported), and writes each to
OUTDIR/<mode>-<threads>.txt. Run it in both trees and compare with one
diff, which prints nothing when every digest matches:

    PYTHONPATH=src python tests/factor_digest.py all digests-new
    diff -r digests-old digests-new

"kernels" runs the seven quadrature kernels at n in {512, 2048}, square and
row-truncated to m = n/2, sketch and noise seeds 0-2, stage2_epsilon in
{1e-8, None} and blocksize in {1, 3, 4}, at 1 BLAS thread (504 cases).
"under" runs the same grid on the seven kernels at n = 2052 row-truncated
to m = 1026, also at 1 thread (126 cases): stage one then sketches a
16.8 MB transposed view whose 2052 rows are not a multiple of 8, the other
side of the window rule from the row-truncated n = 2048 cases.
"tomo" runs the n = 50 tomography problem with blocksize 64 at 2 threads.
Each case of these two prints five lines, keyed by its name and a kind:

    factors    digests of p, q, inner.u, inner.x, alpha, beta
    sketch     l1, l2, branch
    lambdas    GCV lambda, L-curve lambda and GCV truncation depth (None
               where the selector raises SelectionError)
    solves     digest of x, lam and seminorm from solve_rgsvd and
               solve_gsvd at the GCV lambda and solve_tgsvd at the GCV
               depth, the last two on the inner factors with the
               projected data P.T b (each only where its parameter exists)
    residuals  the same solves' residual norms, as repr floats

"dense" takes the exact route instead: gsvd_full_rank(check_rank=False) of
the seven square kernels at n = 512, then of shaw at n = 2048, the pair
perfbench's dense workload factors, at 1 BLAS thread. At n = 2048 blocked
dgeqrf/dorgqr and dsyevd's divide and conquer run at full size, so run
this mode at 2 threads as well. Each pair prints one factors line
(digests of u, x, alpha and beta), and each of its noise seeds 0-2 prints
the lambdas, solves and residuals lines above, with solve_gsvd and
solve_tgsvd on the exact factors and the data b itself.

"problems" digests the test problems themselves, at 1 BLAS thread. For
each of the seven kernels at n in {512, 2048, 2052} it prints three
lines: A and x_true at delta = 0; b at delta = 1e-3, seed 0; and A and b
of the same instance row-truncated to m = n/2 by generate. Then indptr,
indices and data of parallel_tomo(50, 0:12:179, 200), the operator the
"tomo" mode densifies; and b of that mode's n = 50 instance.

"bench" runs the benchmark harness, at 1 BLAS thread, through
BenchConfig and run_benchmark alone, into a temporary directory: all four
methods at seeds 0 and 1 on square shaw, gravity, heat and tomo at n = 16
under each of the selectors gcv, lcurve and fixed:3, then on shaw and
phillips row-truncated to n = 32, m = 16 under GCV with ambient rows.
Each grid prints its report rows without the wall_time_s column, each
record's error, and the digest of every dump file.

"bounds" evaluates error_bound_diagnostics, at 1 BLAS thread, on the
grid of criterion 08 (30 random pairs, lambda in {1e-3, 1e-1, 1}) and on
the cases of test_bounds.py, and prints the repr of every field of each
result. The tolerance is the one the sketch holds, approx.stage1.epsilon;
a tree whose error_bound_diagnostics still takes it as an argument is
handed that value.

The row-truncated cases keep the first m rows of the clean square problem
and cut b from the full product A x_true, rather than building them with
generate(TestProblemSpec(..., m=m)), which forms A[:m] x_true. The two
agree bit for bit at n = 512 and 2048, but at n = 2052 they differ in the
last bits of one or two entries on 6 of the 7 kernels (at most 4.4e-15,
on shaw; 1 BLAS thread), and the digests of earlier trees were taken on
the cut b.

The compressed pair {P.T A Q, L Q} is not digested, and the factorization
does not keep it: inner is a function of the pair (its stacked QR,
eigendecomposition and triangular solve), and every solve and selector
reads inner alone, so a change in the pair's bits that reaches any result
shows in inner's digests.

Only names present in the package since the factorization kept its inner
GSVD are read, so an older tree can be digested with this file as well.
"""

import dataclasses
import hashlib
import inspect
import os
import sys
import tempfile
from pathlib import Path

THREADS = {
    "kernels": "1",
    "tomo": "2",
    "dense": "1",
    "under": "1",
    "problems": "1",
    "bench": "1",
    "bounds": "1",
}

# modes that "all" digests at 2 threads as well as at their default
AT_TWO_THREADS = ("kernels", "under", "dense")

if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "all":
        import subprocess

        os.makedirs(args[1], exist_ok=True)
        for mode, threads in [*THREADS.items(), *((mode, "2") for mode in AT_TWO_THREADS)]:
            with open(os.path.join(args[1], f"{mode}-{threads}.txt"), "w") as out:
                subprocess.run([sys.executable, __file__, mode, threads], stdout=out, check=True)
        sys.exit()
    if len(args) == 1 and args[0] in THREADS:
        args.append(THREADS[args[0]])
    if len(args) != 2 or args[0] not in THREADS or not args[1].isdigit() or int(args[1]) < 1:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(THREADS)}}} [threads] | all OUTDIR")
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = args[1]

import numpy as np  # noqa: E402  (after the thread pinning above)
from bench_records import report_rows  # noqa: E402

from randgsvd.bench import BenchConfig, run_benchmark  # noqa: E402
from randgsvd.bounds import error_bound_diagnostics  # noqa: E402
from randgsvd.gsvd import GmpPair, gsvd_full_rank  # noqa: E402
from randgsvd.problems import (  # noqa: E402
    QUADRATURE_PROBLEMS,
    TestProblemSpec,
    add_noise,
    first_difference,
    generate,
    parallel_tomo,
)
from randgsvd.rgsvd import rgsvd  # noqa: E402
from randgsvd.sampling import SamplerConfig  # noqa: E402
from randgsvd.selection import (  # noqa: E402
    SelectionError,
    gcv_lambda,
    gcv_truncation,
    lcurve_lambda,
)
from randgsvd.tikhonov import TikhonovProblem, solve_gsvd, solve_rgsvd, solve_tgsvd  # noqa: E402

EPSILON = 1e-2
DELTA = 1e-3


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=float)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _select(selector, source, b):
    """The selector's parameter, or None where it finds none."""
    try:
        return selector(source, b)[0]
    except SelectionError:
        return None


def _lambdas(key: str, source, b):
    """Print the lambdas line; return the GCV lambda and truncation depth."""
    lam, lam_lc, k = (_select(f, source, b) for f in (gcv_lambda, lcurve_lambda, gcv_truncation))
    print(key, "lambdas", *(v.hex() if isinstance(v, float) else v for v in (lam, lam_lc, k)))
    return lam, k


def _solves(key: str, sols) -> None:
    print(key, "solves", _digest(*(np.r_[s.x, s.lam, s.seminorm] for s in sols)))
    print(key, "residuals", *(repr(s.residual_norm) for s in sols))


def _report(key: str, prob, b, cfg: SamplerConfig) -> None:
    approx = rgsvd(prob.a, prob.l, EPSILON, cfg)
    print(key, "sketch", approx.l1, approx.l2, approx.branch)
    if approx.is_degenerate:
        print(key, "factors", _digest(approx.p, approx.q))
        return
    inner = approx.inner
    fields = (approx.p, approx.q, inner.u, inner.x, inner.alpha, inner.beta)
    print(key, "factors", *(_digest(f) for f in fields))
    lam, k = _lambdas(key, approx, b)
    c = approx.p.T @ b
    sols = []
    if lam is not None:
        sols += [solve_rgsvd(approx, b, lam), solve_gsvd(inner, c, lam)]
    if k is not None:
        sols.append(solve_tgsvd(inner, c, k))
    _solves(key, sols)


def _truncated(square, m: int):
    """The first m rows of a clean square problem, b cut from its A x_true."""
    return TikhonovProblem(a=square.a[:m].copy(), l=square.l, b=square.b[:m].copy(), x_true=square.x_true)


def _sketch_grid(name: str, n: int, prob) -> None:
    m = prob.a.shape[0]
    for seed in range(3):
        b = add_noise(prob.b, DELTA, seed)
        for stage2 in (1e-8, None):
            for blocksize in (1, 3, 4):
                cfg = SamplerConfig(epsilon=EPSILON, blocksize=blocksize, seed=seed, stage2_epsilon=stage2)
                _report(f"{name}/n{n}/m{m}/s{seed}/e2={stage2}/bs{blocksize}", prob, b, cfg)


def kernels() -> None:
    for name in QUADRATURE_PROBLEMS:
        for n in (512, 2048):
            square = generate(TestProblemSpec(name=name, n=n, delta=0.0))
            for prob in (square, _truncated(square, n // 2)):
                _sketch_grid(name, n, prob)


def under() -> None:
    for name in QUADRATURE_PROBLEMS:
        square = generate(TestProblemSpec(name=name, n=2052, delta=0.0))
        _sketch_grid(name, 2052, _truncated(square, 1026))


def tomo() -> None:
    prob = generate(TestProblemSpec(name="tomo", n=50, delta=DELTA, seed=0))
    cfg = SamplerConfig(epsilon=EPSILON, blocksize=64, seed=0, stage2_epsilon=EPSILON * 1e-6)
    _report("tomo/n50/s0/bs64", prob, prob.b, cfg)


def _exact(name: str, n: int) -> None:
    prob = generate(TestProblemSpec(name=name, n=n, delta=0.0))
    factors = gsvd_full_rank(GmpPair(prob.a, prob.l), check_rank=False)
    fields = (factors.u, factors.x, factors.alpha, factors.beta)
    print(f"{name}/n{n}", "factors", *(_digest(f) for f in fields))
    for seed in range(3):
        key = f"{name}/n{n}/s{seed}"
        b = add_noise(prob.b, DELTA, seed)
        lam, k = _lambdas(key, factors, b)
        sols = [] if lam is None else [solve_gsvd(factors, b, lam)]
        if k is not None:
            sols.append(solve_tgsvd(factors, b, k))
        _solves(key, sols)


def dense() -> None:
    for name in QUADRATURE_PROBLEMS:
        _exact(name, 512)
    _exact("shaw", 2048)  # the pair perfbench's dense cell factors


def problems() -> None:
    for name in QUADRATURE_PROBLEMS:
        for n in (512, 2048, 2052):
            prob = generate(TestProblemSpec(name=name, n=n, delta=0.0))
            print(f"{name}/n{n}", "problem", _digest(prob.a), _digest(prob.x_true))
            prob = generate(TestProblemSpec(name=name, n=n, delta=DELTA, seed=0))
            print(f"{name}/n{n}/s0", "data", _digest(prob.b))
            prob = generate(TestProblemSpec(name=name, n=n, m=n // 2, delta=DELTA, seed=0))
            print(f"{name}/n{n}/m{n // 2}/s0", "problem", _digest(prob.a), _digest(prob.b))
    op, x_true = parallel_tomo(50, np.arange(0.0, 180.0, 12.0), 200)
    print("tomo/n50", "operator", *(_digest(f) for f in (op.indptr, op.indices, op.data, x_true)))
    prob = generate(TestProblemSpec(name="tomo", n=50, delta=DELTA, seed=0))
    print("tomo/n50/s0", "data", _digest(prob.b))


def bench() -> None:
    square = dict(problems=("shaw", "gravity", "heat", "tomo"), n=16)
    grids = {
        "gcv": dict(square, selector="gcv"),
        "lcurve": dict(square, selector="lcurve"),
        "fixed3": dict(square, selector="fixed", fixed_value=3.0),
        "under-ambient": dict(problems=("shaw", "phillips"), n=32, m=16, gcv_rows="ambient"),
    }
    for tag, grid in grids.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            cfg = BenchConfig(
                methods=("gsvd", "tgsvd", "rgsvd", "exact"),
                seeds=(0, 1),
                output_path=str(out / "report.csv"),
                dump_dir=str(out / "dump"),
                **grid,
            )
            records = run_benchmark(cfg)
            for row in report_rows(out / "report.csv"):
                print(tag, "row", ",".join(row))
            for rec in records:
                print(tag, "error", rec.problem, rec.method, rec.seed, rec.error)
            for path in sorted((out / "dump").rglob("*.csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                print(tag, "dump", path.relative_to(out / "dump").as_posix(), digest)


def _print_bounds(key: str, prob, approx, lam: float) -> None:
    if "epsilon" in inspect.signature(error_bound_diagnostics).parameters:
        diag = error_bound_diagnostics(prob, approx, lam, approx.stage1.epsilon)
    else:
        diag = error_bound_diagnostics(prob, approx, lam)
    fields = (f"{f.name}={getattr(diag, f.name)!r}" for f in dataclasses.fields(diag))
    print(key, "bounds", *fields)


def _gmp(m: int, p: int, n: int, seed: int):
    """tests/conftest.py's make_gmp pair."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)), rng.standard_normal((p, n))


def bounds() -> None:
    rng = np.random.default_rng(808)  # criterion 08's grid
    for trial in range(30):
        if trial % 2 == 0:
            m = int(rng.integers(40, 120))
            n = int(rng.integers(20, min(m, 100)))
        else:
            n = int(rng.integers(30, 120))
            m = int(rng.integers(15, n))
        k = min(m, n)
        u, _ = np.linalg.qr(rng.standard_normal((m, k)))
        v, _ = np.linalg.qr(rng.standard_normal((n, k)))
        a = u @ np.diag(np.exp(-0.4 * np.arange(k))) @ v.T
        l = first_difference(n)
        b = a @ rng.standard_normal(n) + 1e-4 * rng.standard_normal(m)
        prob = TikhonovProblem(a=a, l=l, b=b, x_true=None)
        approx = rgsvd(a, l, 1e-2, SamplerConfig(epsilon=1e-2, blocksize=4, seed=trial))
        for lam in (1e-3, 1e-1, 1.0):
            _print_bounds(f"c08/t{trial}/lam{lam}", prob, approx, lam)
    # test_bounds.py's cases, each with the rng fixture of tests/conftest.py
    for tag, shape, seed, epsilon, sketch_seed in (
        ("over", (40, 29, 30), 21, 1e-4, 0),
        ("under", (20, 34, 35), 22, 1e-4, 1),
    ):
        a, l = _gmp(*shape, seed=seed)
        b = np.random.default_rng(20240817).standard_normal(shape[0])
        prob = TikhonovProblem(a=a, l=l, b=b)
        approx = rgsvd(a, l, epsilon, SamplerConfig(epsilon=epsilon, blocksize=4, seed=sketch_seed))
        for lam in (1e-2, 1e-1, 1.0):
            _print_bounds(f"test_bounds/{tag}/lam{lam}", prob, approx, lam)
    prob = generate(TestProblemSpec(name="gravity", n=96, delta=1e-3, seed=7))
    approx = rgsvd(prob.a, prob.l, 1e-2, SamplerConfig(epsilon=1e-2, blocksize=4, seed=7))
    as_dense = TikhonovProblem(a=prob.a, l=prob.l.toarray(), b=prob.b, x_true=prob.x_true)
    for tag, p in (("sparse-l", prob), ("dense-l", as_dense)):
        _print_bounds(f"test_bounds/gravity/{tag}", p, approx, 1e-1)


if __name__ == "__main__":
    modes = {
        "kernels": kernels,
        "tomo": tomo,
        "dense": dense,
        "under": under,
        "problems": problems,
        "bench": bench,
        "bounds": bounds,
    }
    modes[sys.argv[1]]()
