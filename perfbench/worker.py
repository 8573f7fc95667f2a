"""One benchmark run: set up, run whole passes of cells for a fixed time,
check every output, and print the result as the last line of stdout.

run.py starts this file in a fresh process whose environment already pins
the BLAS thread count, so numpy loads with it. Untraced runs report the
end-to-end metrics. Traced runs report the per-layer metrics: each cell
runs twice back to back, once untraced and once traced (alternating which
goes first), and the difference is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import randgsvd  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# name -> unit; the untraced run reports exactly these, on every
# workload. cell_per_probe is cell_s.best, the mean over one pass's cells
# of each cell's fastest wall time in the run, divided by the fastest
# time of the host probe (HostProbe) in the same run. The host's speed
# drifts by 20-35% over minutes, for every kind of work, and a run's cell
# times drift with it; the probe, timed between cells, drifts alike, so
# the ratio keeps the cells' cost and drops most of the host's phase
# (README.md). cell_s.best itself, the median and 90th percentile cell
# times, cells per second and the median rel_error go to the result file
# and the info line only.
E2E_METRICS = {
    "cell_per_probe": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# setup_s is the median of at least SETUP_MIN_REPS builds, repeated until
# SETUP_MIN_S have passed: one build takes 0.15 s (dense) to 2 s (tomo)
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 20


# The probe is fixed numpy work on fixed arrays, none of it the library's:
# skinny products over a 2048 x 2048 operator, memory-bound like the
# sketched cells, and QR factorizations of a 256 x 256 matrix, LAPACK
# work like the exact GSVD. At the pinned thread count it takes about
# 0.1 s. It runs before the first cell, after any cell that ends at least
# PROBE_EVERY_S after the last probe, and after the last cell.
PROBE_EVERY_S = 2.0
PROBE_PRODUCTS = 16
PROBE_QRS = 20


class HostProbe:
    """Times the fixed probe work; ``best`` is its fastest run so far."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((2048, 2048))
        self.v = rng.standard_normal((2048, 4))
        self.s = rng.standard_normal((256, 256))
        self.times: list = []
        self.last = -np.inf

    def run(self):
        t0 = perf_counter()
        for _ in range(PROBE_PRODUCTS):
            self.m @ self.v
        for _ in range(PROBE_QRS):
            np.linalg.qr(self.s)
        self.last = perf_counter()
        self.times.append(self.last - t0)

    def due(self):
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.run()

    @property
    def best(self) -> float:
        return min(self.times)


class Outcome(NamedTuple):
    label: str
    wall: float
    record: dict | None
    error: str | None


def _openblas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, None for another BLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the repository this file sits in, None outside a git checkout."""
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def machine_info(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
        "blas_threads": {
            "requested": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "reported": _openblas_threads(),
        },
    }


def attempt(wl, state, label: str, key) -> Outcome:
    t0 = perf_counter()
    try:
        record, error = wl.run_cell(state, key), None
    except Exception as exc:  # a failing cell is counted and the run goes on
        record, error = None, f"{type(exc).__name__}: {exc}"
    # the cell's factorization is out of scope here, so it is already freed
    return Outcome(label, perf_counter() - t0, record, error)


def set_up(wl, seed: int, size: int, min_reps: int = 1, min_s: float = 0.0):
    """Build the workload's state at least ``min_reps`` times, and more,
    up to SETUP_MAX_REPS, until ``min_s`` seconds have passed; returns the
    last state and every build's time."""
    state, times = None, []
    while len(times) < min_reps or (sum(times) < min_s and len(times) < SETUP_MAX_REPS):
        state = None  # release the previous instances before building more
        t0 = perf_counter()
        state = wl.setup(seed, size)
        times.append(perf_counter() - t0)
    return state, times


def run_rounds(seconds: float, run_pass):
    """Call run_pass until ``seconds`` have passed, at least once; each
    call returns one or more rounds (a round is one pass of outcomes)."""
    start = perf_counter()
    rounds: list = []
    while not rounds or perf_counter() - start < seconds:
        rounds.extend(run_pass())
    return rounds, perf_counter() - start


def find_failures(wl, rounds, seed: int, size: int):
    """Failures [(round, label, message)] for every raise, every missed
    check, and every record that differs from the same cell's record in
    round 0; and the notes check_pass gives on round 0, which every later
    round repeats."""
    failures, notes = [], []
    first = {o.label: o.record for o in rounds[0]}
    for r, outcomes in enumerate(rounds):
        records = {}
        for o in outcomes:
            if o.error is not None:
                failures.append((r, o.label, o.error))
            else:
                records[o.label] = o.record
        misses, remarks = workloads.check_pass(wl, records, seed, size)
        failures.extend((r, label, m) for label, found in misses.items() for m in found)
        if r == 0:
            notes.extend((r, label, m) for label, found in remarks.items() for m in found)
        for label, record in records.items():
            if r and first.get(label) is not None and record != first[label]:
                failures.append((r, label, "record differs from the first pass"))
    return failures, notes


def _value(v, unit):
    return {"value": None if v is None else float(v), "unit": unit}


def untraced(wl, seed, seconds, size):
    state, setup_times = set_up(wl, seed, size, SETUP_MIN_REPS, SETUP_MIN_S)
    cells = wl.cells(state)
    probe = HostProbe()
    probe.run()

    def run_pass():
        outcomes = []
        for label, key in cells:
            outcomes.append(attempt(wl, state, label, key))
            probe.due()
        return [outcomes]

    rounds, wall = run_rounds(seconds, run_pass)
    probe.run()
    walls = [o.wall for rnd in rounds for o in rnd]
    best: dict = {}
    for rnd in rounds:
        for o in rnd:
            best[o.label] = min(best.get(o.label, o.wall), o.wall)
    rels = [s[2] for o in rounds[0] if o.record for s in o.record["solves"]]
    cell_best = statistics.fmean(best.values())
    values = {
        "cell_per_probe": cell_best / probe.best,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: _value(values[name], unit) for name, unit in E2E_METRICS.items()}
    extra = {
        "setup_times": setup_times,
        "cell_walls": walls,
        "probe_times": probe.times,
        "cell_s.best": cell_best,
        "probe_s.best": probe.best,
        "cell_s.p50": statistics.median(walls),
        "cell_s.p90": float(np.percentile(walls, 90)),
        "cells_per_s": len(walls) / wall,
        "rel_error.p50": statistics.median(rels) if rels else None,
    }
    return rounds, metrics, extra, None


def traced(wl, seed, seconds, size):
    tracer = tracing.Tracer()
    with tracer.installed():
        state, setup_times = set_up(wl, seed, size)
    cells = wl.cells(state)
    pairs = []

    def run_pass():
        plain, spanned = [], []
        for i, (label, key) in enumerate(cells):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.cell = label
                    with tracer.installed():
                        spanned.append(attempt(wl, state, label, key))
                    tracer.cell = None
                else:
                    plain.append(attempt(wl, state, label, key))
            pairs.append((plain[-1].wall, spanned[-1].wall))
        return [plain, spanned]

    rounds, _ = run_rounds(seconds, run_pass)
    metrics = tracing.layer_metrics(tracer, cells=len(pairs))
    base = sum(p for p, _ in pairs) / len(pairs)
    over = sum(t - p for p, t in pairs) / len(pairs)
    metrics["trace.overhead_s"] = _value(over, "s")
    metrics["trace.overhead_frac"] = _value(over / base, "1")
    extra = {"setup_times": setup_times, "pairs": pairs, "missing": sorted(tracer.missing)}
    return rounds, metrics, extra, tracer


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None,
        out_dir: Path | None = OUT_DIR) -> dict:
    """One run; returns the full result, whose "summary" is the last line."""
    wl = workloads.WORKLOADS[workload]
    size = wl.size if size is None else size
    info = machine_info(wl.threads)
    rounds, metrics, extra, tracer = (traced if trace else untraced)(wl, seed, seconds, size)
    failures, notes = find_failures(wl, rounds, seed, size)
    failed = len({(r, label) for r, label, _ in failures})
    attempted = sum(len(rnd) for rnd in rounds)
    summary = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "machine": info,
        "failures": [list(f) for f in failures],
        "notes": [list(n) for n in notes],
        "records": {o.label: o.record for o in rounds[0]},
        **extra,
        "summary": summary,
    }
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        with open(out_dir / f"{stem}.json", "w") as fh:
            json.dump(result, fh, indent=1)
        if tracer is not None:
            tracer.dump(out_dir / f"{stem}-spans.json.gz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if Path(randgsvd.__file__).resolve().parent != ROOT / "src" / "randgsvd":
        print(f"randgsvd imported from {randgsvd.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    threads, reported = workloads.WORKLOADS[args.workload].threads, _openblas_threads()
    if reported is not None and reported != threads:
        print(f"BLAS runs {reported} threads, the workload pins {threads}; start it "
              "through run.py", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine: " + json.dumps(result["machine"]))
    info = ("cell_s.best", "probe_s.best", "cell_s.p50", "cell_s.p90", "cells_per_s",
            "rel_error.p50", "missing")
    print("info: " + json.dumps({k: result[k] for k in info if k in result}))
    for r, label, message in result["failures"]:
        print(f"FAILED round {r} cell {label}: {message}")
    for r, label, message in result["notes"]:
        print(f"note: round {r} cell {label}: {message}")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
