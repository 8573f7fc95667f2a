"""The four benchmark workloads: set-up, one cell, and the output checks.

A cell is the unit of work: factor, select lambda, solve. Each workload
builds its instances from the workload seed base ``s`` alone and runs the
same list of cells (one *pass*) back to back. The cells call the library
through its module namespaces at call time (``selection.gcv_lambda``, not a
name imported once), so the traced run's wrappers are seen.

Settings follow the repository's acceptance criteria and
``bench._run_sketched``: epsilon = 1e-2, stage two at epsilon * 1e-6,
blocksize 4 and noise level delta = 1e-3 unless a workload says otherwise.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EPSILON = 1e-2
STAGE2_EPSILON = EPSILON * 1e-6
BLOCKSIZE = 4
DELTA = 1e-3

# Relative tolerance for lambda and rel_error against the reference taken
# at the seed commit: both come out of a few dozen dense BLAS/LAPACK calls,
# so agreement to 1e-8 is working precision with room for reordered sums.
REF_RTOL = 1e-8
REFERENCE_PATH = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0

# Criterion 05's reference table (n = 2048, delta = 1e-3, epsilon = 1e-2,
# GCV): per-kernel relative error and sample count. The band is
# rel <= 2.5 * REFERENCE_E and l1, l2 <= 4 * REFERENCE_L.
REFERENCE_E = {
    "shaw": 4.43e-2,
    "gravity": 1.07e-2,
    "phillips": 6.90e-3,
    "heat": 4.59e-2,
    "baart": 1.17e-1,
}
REFERENCE_L = {
    "shaw": 8,
    "gravity": 11,
    "phillips": 30,
    "heat": 25,
    "baart": 4,
}
# deriv2 and foxgood, the criterion's other two kernels, are not run: the
# range finder stops at the first deflated sample column at or below
# epsilon, and their operators are small (sigma_1 = 0.10 and 0.81), so the
# very first column falls below 1e-2 on about 1 sketch seed in 380
# (deriv2) and 1 in 2400 (foxgood). rgsvd then returns an empty basis and
# gcv_lambda raises SelectionError, which failed about one kernels run in
# a hundred. Their regime, l1 of 3-4, is still run by baart.
KERNELS = ("shaw", "baart", "gravity", "heat", "phillips")
TOMO_REL_MAX = 0.30  # criterion 09
REUSE_SHAW_REL_MAX = 0.15  # criterion 07
REUSE_L_MAX = 40  # criterion 07

# Caps on each group's median GCV rel_error (per kernel, per reuse
# problem, over dense's 45 draws), checked at every seed. The criteria's
# bands above miss on many seed bases at the commit the reference was
# taken from; these caps held there on every base measured, with room to
# spare, and a lambda selection that no longer tracks the data exceeds
# them. Largest medians seen: kernels 0.42 (baart; bases 0-57 and
# 1000-1297), reuse 0.50 (shaw; bases 0-57), dense 0.044 (45-draw
# windows of draws 0-399).
KERNELS_CAP = 0.6
REUSE_CAP = 0.75
DENSE_CAP = 0.3


def mod(name: str):
    """A randgsvd submodule, looked up when called so wrappers are seen."""
    return importlib.import_module(f"randgsvd.{name}")


def sampler(seed: int, blocksize: int = BLOCKSIZE):
    return mod("sampling").SamplerConfig(
        epsilon=EPSILON, blocksize=blocksize, seed=seed, stage2_epsilon=STAGE2_EPSILON
    )


def _sketched(a, l, b, x_true, seed, blocksize=BLOCKSIZE) -> dict:
    """rgsvd -> gcv_lambda -> solve_rgsvd; returns the cell's record."""
    approx = mod("rgsvd").rgsvd(a, l, EPSILON, sampler(seed, blocksize))
    lam, _ = mod("selection").gcv_lambda(approx, b)
    sol = mod("tikhonov").solve_rgsvd(approx, b, lam, x_true=x_true)
    return {"l1": approx.l1, "l2": approx.l2, "solves": [["gcv", float(lam), sol.rel_error]]}


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its inputs, its cells, and its checks.

    setup(seed, size) returns the state the cells read; cells(state) lists
    one pass as (label, key) pairs; run_cell(state, key) returns a record
    {"l1", "l2", "solves": [[selector, lambda, rel_error], ...]}.
    limits(records) checks what the criteria bound for every single draw
    and returns {label: [miss, ...]}. groups(records, per_cell) returns
    {group: {label: [rel_error, ...]}}, the GCV errors whose median the
    criteria band; band(group) is that band, and cap bounds every group's
    median at every seed (see check_pass).
    """

    name: str
    threads: int
    size: int
    setup: Callable
    cells: Callable
    run_cell: Callable
    limits: Callable
    groups: Callable
    band: Callable
    cap: float


# -- kernels: five quadrature kernels, the paper's headline regime --


def _kernels_setup(seed: int, n: int) -> dict:
    problems = mod("problems")
    clean = {k: problems.generate(problems.TestProblemSpec(name=k, n=n)) for k in KERNELS}
    data = {
        (k, seed + i): problems.add_noise(clean[k].b, DELTA, seed + i)
        for k in KERNELS
        for i in range(3)
    }
    return {"clean": clean, "data": data}


def _kernels_cells(state: dict) -> list:
    return [(f"{k}/{s}", (k, s)) for (k, s) in state["data"]]


def _kernels_cell(state: dict, key) -> dict:
    name, seed = key
    prob = state["clean"][name]
    return _sketched(prob.a, prob.l, state["data"][key], prob.x_true, seed)


def _kernels_limits(records: dict) -> dict:
    out: dict = {}
    for lab, r in records.items():
        cap = 4 * REFERENCE_L[lab.split("/")[0]]
        if max(r["l1"], r["l2"]) > cap:
            out[lab] = [f"l1={r['l1']} l2={r['l2']} > {cap}"]
    return out


def _kernels_groups(records: dict, per_cell: bool) -> dict:
    # per cell, a group is one cell: the label itself, e.g. "shaw/1"
    out: dict = {}
    for lab, r in records.items():
        group = lab if per_cell else lab.split("/")[0]
        out.setdefault(group, {})[lab] = [r["solves"][0][2]]
    return out


def _kernels_band(group: str) -> float:
    return 2.5 * REFERENCE_E[group.split("/")[0]]


# -- tomo: parallel-beam tomography, where the sketch keeps nearly all of n --


def _tomo_setup(seed: int, n_grid: int) -> dict:
    problems = mod("problems")
    return {
        "probs": {
            seed + i: problems.generate(
                problems.TestProblemSpec(name="tomo", n=n_grid, delta=0.0, seed=seed + i)
            )
            for i in range(2)
        }
    }


def _tomo_cells(state: dict) -> list:
    return [(f"tomo/{s}", s) for s in state["probs"]]


def _tomo_cell(state: dict, seed) -> dict:
    prob = state["probs"][seed]
    return _sketched(prob.a, prob.l, prob.b, prob.x_true, seed, blocksize=64)


def _tomo_limits(records: dict) -> dict:
    # criterion 09 bounds a single draw, so it holds for every cell
    out: dict = {}
    for lab, r in records.items():
        rel = r["solves"][0][2]
        if rel > TOMO_REL_MAX:
            out[lab] = [f"rel {rel:.4g} > {TOMO_REL_MAX}"]
    return out


# -- reuse: factor once on the row-space branch, then select and solve for
# several right-hand sides. Two, not more: GCV and the L-curve are loops of
# small numpy calls, and with eight right-hand sides (75% of the cell) the
# median cell time of ten-run sets moved by 26-35% with the host's phases.

REUSE_PROBLEMS = ("shaw", "heat", "phillips")
REUSE_RHS = 2
REUSE_SKETCHES = 10


def _reuse_setup(seed: int, n: int) -> dict:
    problems = mod("problems")
    clean, data = {}, {}
    for k in REUSE_PROBLEMS:
        clean[k] = problems.generate(problems.TestProblemSpec(name=k, n=n, m=n // 2))
        data[k] = [problems.add_noise(clean[k].b, DELTA, seed + j) for j in range(REUSE_RHS)]
    return {"clean": clean, "data": data, "seed": seed}


def _reuse_cells(state: dict) -> list:
    s = state["seed"]
    return [
        (f"{k}/{s + i}", (k, s + i)) for k in REUSE_PROBLEMS for i in range(REUSE_SKETCHES)
    ]


def _reuse_cell(state: dict, key) -> dict:
    name, seed = key
    prob = state["clean"][name]
    selection, tikhonov = mod("selection"), mod("tikhonov")
    approx = mod("rgsvd").rgsvd(prob.a, prob.l, EPSILON, sampler(seed))
    solves = []
    for b in state["data"][name]:
        for tag, select in (("gcv", selection.gcv_lambda), ("lcurve", selection.lcurve_lambda)):
            lam, _ = select(approx, b)
            sol = tikhonov.solve_rgsvd(approx, b, lam, x_true=prob.x_true)
            solves.append([tag, float(lam), sol.rel_error])
    return {"l1": approx.l1, "l2": approx.l2, "solves": solves}


def _reuse_limits(records: dict) -> dict:
    out: dict = {}
    for lab, r in records.items():
        if lab.startswith("shaw/") and max(r["l1"], r["l2"]) > REUSE_L_MAX:
            out[lab] = [f"l1={r['l1']} l2={r['l2']} > {REUSE_L_MAX}"]
    return out


def _reuse_groups(records: dict, per_cell: bool) -> dict:
    out: dict = {}
    for lab, r in records.items():
        out.setdefault(lab.split("/")[0], {})[lab] = [s[2] for s in r["solves"] if s[0] == "gcv"]
    return out


def _reuse_band(group: str) -> float:
    # criterion 07 bands shaw only
    return REUSE_SHAW_REL_MAX if group == "shaw" else math.inf


# -- dense: the exact GSVD route, the reference the speedup is measured against.
# Each factorization serves several noise draws: exact-route GCV misses
# (rel_error above 0.3, up to 7e5) on 87 of draws 0-399, so a median over
# 15 draws missed the cap on about one seed base in 140; over 45 draws
# the binomial odds are about 1 in 70,000.
# The cell runs no gcv_truncation -> solve_tgsvd: on about one noise draw
# in 75 (4 of draws 0-299 at 2 BLAS threads), gcv_truncation picks a depth
# up to the count of finite generalized values (2047 here), which includes
# the directions with alpha = 0, while solve_tgsvd accepts at most the
# count of alpha > 0 (971) and raises ValueError. Until the library makes
# the two agree, a run of that pair on 45 draws fails on about two seed
# bases in five.

DENSE_CELLS = 3
DENSE_DRAWS = 15


def _dense_setup(seed: int, n: int) -> dict:
    problems = mod("problems")
    clean = problems.generate(problems.TestProblemSpec(name="shaw", n=n))
    draws = range(seed, seed + DENSE_CELLS * DENSE_DRAWS)
    return {
        "clean": clean,
        "seed": seed,
        "data": {s: problems.add_noise(clean.b, DELTA, s) for s in draws},
    }


def _dense_cells(state: dict) -> list:
    firsts = (state["seed"] + DENSE_DRAWS * i for i in range(DENSE_CELLS))
    return [(f"shaw/{s}", s) for s in firsts]


def _dense_cell(state: dict, first) -> dict:
    prob = state["clean"]
    gsvd, selection, tikhonov = mod("gsvd"), mod("selection"), mod("tikhonov")
    factors = gsvd.gsvd_full_rank(gsvd.GmpPair(prob.a, prob.l), check_rank=False)
    solves = []
    for seed in range(first, first + DENSE_DRAWS):
        b = state["data"][seed]
        lam, _ = selection.gcv_lambda(factors, b)
        sol = tikhonov.solve_gsvd(factors, b, lam, x_true=prob.x_true)
        solves.append(["gcv", float(lam), sol.rel_error])
    return {"l1": None, "l2": None, "solves": solves}


def _no_limits(records: dict) -> dict:
    return {}


def _no_groups(records: dict, per_cell: bool) -> dict:
    return {}


def _dense_groups(records: dict, per_cell: bool) -> dict:
    return {
        "shaw": {lab: [s[2] for s in r["solves"] if s[0] == "gcv"] for lab, r in records.items()}
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kernels",
            threads=1,
            size=2048,
            setup=_kernels_setup,
            cells=_kernels_cells,
            run_cell=_kernels_cell,
            limits=_kernels_limits,
            groups=_kernels_groups,
            band=_kernels_band,
            cap=KERNELS_CAP,
        ),
        Workload(
            name="tomo",
            threads=2,
            size=50,
            setup=_tomo_setup,
            cells=_tomo_cells,
            run_cell=_tomo_cell,
            limits=_tomo_limits,
            groups=_no_groups,
            band=lambda group: math.inf,
            cap=math.inf,
        ),
        Workload(
            name="reuse",
            threads=1,
            size=2048,
            setup=_reuse_setup,
            cells=_reuse_cells,
            run_cell=_reuse_cell,
            limits=_reuse_limits,
            groups=_reuse_groups,
            band=_reuse_band,
            cap=REUSE_CAP,
        ),
        Workload(
            name="dense",
            threads=2,
            size=2048,
            setup=_dense_setup,
            cells=_dense_cells,
            run_cell=_dense_cell,
            limits=_no_limits,
            groups=_dense_groups,
            band=lambda group: 2.5 * REFERENCE_E["shaw"],
            cap=DENSE_CAP,
        ),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(x, y) -> bool:
    return math.isclose(x, y, rel_tol=REF_RTOL, abs_tol=0.0)


def compare_to_reference(record: dict, ref: dict) -> list:
    """Misses of one record against its reference: l1, l2 and the selector
    sequence exactly, lambda and rel_error to REF_RTOL."""
    out = []
    if (record["l1"], record["l2"]) != (ref["l1"], ref["l2"]):
        out.append(f"l1/l2 {record['l1']}/{record['l2']} != reference {ref['l1']}/{ref['l2']}")
    if [s[0] for s in record["solves"]] != [s[0] for s in ref["solves"]]:
        return out + ["selector sequence differs from reference"]
    for (tag, lam, rel), (_, rlam, rrel) in zip(record["solves"], ref["solves"]):
        if not _close(lam, rlam):
            out.append(f"{tag} lambda {lam!r} != reference {rlam!r}")
        if not _close(rel, rrel):
            out.append(f"{tag} rel_error {rel!r} != reference {rrel!r}")
    return out


def _sanity(record: dict) -> list:
    out = []
    if record["l1"] is not None and min(record["l1"], record["l2"]) < 1:
        out.append(f"degenerate factorization l1={record['l1']} l2={record['l2']}")
    for tag, lam, rel in record["solves"]:
        if not (math.isfinite(lam) and lam > 0):
            out.append(f"{tag} lambda {lam!r} not positive and finite")
        if rel is None or not math.isfinite(rel):
            out.append(f"{tag} rel_error {rel!r} not finite")
    return out


def median_misses(groups: dict, band: Callable) -> dict:
    """{label: [miss]} for every label of a group whose median rel_error
    exceeds band(group)."""
    out: dict = {}
    for group, cells in groups.items():
        rels = [rel for found in cells.values() for rel in found]
        if not rels:
            continue
        med, limit = statistics.median(rels), band(group)
        if med > limit:
            for lab in cells:
                out.setdefault(lab, []).append(f"{group} median GCV rel {med:.4g} > {limit:.4g}")
    return out


def _merge(into: dict, more: dict) -> None:
    for lab, found in more.items():
        into.setdefault(lab, []).extend(found)


def check_pass(wl: Workload, records: dict, seed: int, size: int):
    """Check one pass's records; returns (misses, notes), each {label: [...]}.

    Misses fail their cell. At every seed: non-finite or non-positive
    outputs, a degenerate factorization, the per-draw limits, and the
    workload's cap on its median GCV errors. At the default seed, where
    the acceptance criteria were calibrated, also the criteria's error
    bands (the kernels' per cell) and equality with the reference. At
    other seeds the bands take the criteria's form, a median over the
    workload's seeds, and their misses are notes: such medians over three
    to twenty GCV draws miss the bands on many seeds even at the commit
    the reference was taken from (README.md), while the caps held on every
    seed base measured there. Sizes other than the default get the sanity
    checks alone.
    """
    misses: dict = {}
    for lab, r in records.items():
        found = _sanity(r)
        if found:
            misses[lab] = found
    if size != wl.size or misses:
        return misses, {}
    default = seed == DEFAULT_SEED
    misses = wl.limits(records)
    _merge(misses, median_misses(wl.groups(records, per_cell=False), lambda group: wl.cap))
    bands = median_misses(wl.groups(records, per_cell=default), wl.band)
    if not default:
        return misses, bands
    _merge(misses, bands)
    ref = load_reference()[wl.name]
    for lab, r in records.items():
        found = compare_to_reference(r, ref[lab]) if lab in ref else ["no reference"]
        if found:
            misses.setdefault(lab, []).extend(found)
    return misses, {}
