"""The public boundary: names, the checks at the entry points, and the
calls perfbench makes.

A refactor that renames or removes a wrapped binding turns its layer
metrics into "missing" in the benchmark, and one that drops a field or
changes a signature perfbench reads fails its cells; this catches both in
the unit suite. perfbench's tracing.py and workloads.py are loaded from
their files and only read.

Inputs are validated where they enter the package; the kernels behind the
entry points trust what they are handed. test_entry_point_rejects_bad_input
pins that every public entry point still makes its check.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import randgsvd
from randgsvd.gsvd import GmpPair, gsvd_full_rank
from randgsvd.linalg import DimensionError
from randgsvd.problems import TestProblemSpec, add_noise, generate
from randgsvd.rgsvd import rgsvd
from randgsvd.sampling import SamplerConfig
from randgsvd.selection import gcv_lambda, gcv_truncation, lcurve_lambda
from randgsvd.tikhonov import TikhonovProblem, solve_gsvd, solve_rgsvd, solve_tgsvd

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
README = ROOT / "README.md"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    for name in randgsvd.__all__:
        assert getattr(randgsvd, name, None) is not None, name


def test_readme_examples_run():
    # the quickstart, then the lifted factors on its result with l = prob.l;
    # each block's comments are its claims
    quickstart, lifted = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    env = {}
    exec(quickstart, env)
    env.update(np=np, l=env["prob"].l)
    exec(lifted, env)
    u2, v1, z = env["u2"], env["v1"], env["z"]
    for f in (u2, v1):
        assert np.abs(f.T @ f - np.eye(f.shape[1])).max() <= 1e-6
    assert np.linalg.matrix_rank(z) == z.shape[0] == env["approx"].l2


def _readme_section(title):
    """The README's text under the heading '## title', up to the next one."""
    return re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", README.read_text(), re.S | re.M).group(1)


def test_readme_contracts_cover_every_public_name():
    contracts = _readme_section("Contracts")
    assert [name for name in randgsvd.__all__ if not re.search(rf"`{name}[`(]", contracts)] == []


def test_readme_module_table_has_one_row_per_module():
    rows = re.findall(r"^\|\s*`(\w+)`\s*\|", _readme_section("Modules"), re.M)
    modules = [path.stem for path in (ROOT / "src" / "randgsvd").glob("*.py") if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_traced_bindings_resolve(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    bindings = tracing.BINDINGS + tracing.validation_bindings()
    assert {b.span for b in bindings} >= {"linalg.validate", "rgsvd.factor", "gsvd.qr"}
    for b in bindings:
        assert callable(getattr(importlib.import_module(b.module), b.attr, None)), b.where


def test_perfbench_cells_run_on_a_small_problem(monkeypatch):
    # the workloads' own cell functions, on shaw at n = 64 instead of 2048
    wl = _load(monkeypatch, "workloads")
    prob = generate(TestProblemSpec(name="shaw", n=64, delta=0.0))
    draws = {s: add_noise(prob.b, wl.DELTA, s) for s in range(wl.DENSE_DRAWS)}
    records = [
        wl._sketched(prob.a, prob.l, draws[0], prob.x_true, 0),
        wl._dense_cell({"clean": prob, "data": draws}, 0),
        wl._reuse_cell({"clean": {"shaw": prob}, "data": {"shaw": [draws[0], draws[1]]}}, ("shaw", 0)),
    ]
    for record in records:
        assert wl._sanity(record) == [], record
    assert records[0]["l1"] >= records[0]["l2"] >= 1
    assert len(records[1]["solves"]) == wl.DENSE_DRAWS
    assert [s[0] for s in records[2]["solves"]] == ["gcv", "lcurve"] * 2


@pytest.fixture(scope="module")
def entry_points():
    """{entry: (call(value), valid value)}: each call passes its value to
    one input of one public entry point, the others kept valid."""
    prob = generate(TestProblemSpec(name="shaw", n=32, delta=1e-3, seed=0))
    a, l, b, x = prob.a, prob.l.toarray(), prob.b, prob.x_true
    factors = gsvd_full_rank(GmpPair(a, l), check_rank=False)
    approx = rgsvd(a, l, 1e-2, SamplerConfig(epsilon=1e-2, seed=0))
    solves = {
        "solve_gsvd": lambda b_, x_: solve_gsvd(factors, b_, 1e-2, x_true=x_),
        "solve_tgsvd": lambda b_, x_: solve_tgsvd(factors, b_, 3, x_true=x_),
        "solve_rgsvd": lambda b_, x_: solve_rgsvd(approx, b_, 1e-2, x_true=x_),
    }
    calls = {
        "TikhonovProblem-a": (lambda v: TikhonovProblem(a=v, l=l, b=b), a),
        "TikhonovProblem-l": (lambda v: TikhonovProblem(a=a, l=v, b=b), l),
        "TikhonovProblem-b": (lambda v: TikhonovProblem(a=a, l=l, b=v), b),
        "TikhonovProblem-x_true": (lambda v: TikhonovProblem(a=a, l=l, b=b, x_true=v), x),
        "GmpPair-a": (lambda v: GmpPair(v, l), a),
        "GmpPair-l": (lambda v: GmpPair(a, v), l),
        "gcv_lambda-b": (lambda v: gcv_lambda(factors, v), b),
        "gcv_truncation-b": (lambda v: gcv_truncation(factors, v), b),
        "lcurve_lambda-b": (lambda v: lcurve_lambda(factors, v), b),
        "add_noise-b": (lambda v: add_noise(v, 1e-3, 0), b),
    }
    for name, solve in solves.items():
        calls[f"{name}-b"] = (lambda v, solve=solve: solve(v, None), b)
        calls[f"{name}-x_true"] = (lambda v, solve=solve: solve(b, v), x)
    return calls


def _bad(value, defect):
    if defect == "nan":
        value = value.copy()
        value.flat[value.size // 2] = np.nan
        return value
    if defect == "ndim":
        return value.ravel() if value.ndim == 2 else value[:, None]
    return value[:, :-1] if value.ndim == 2 else value[:-1]  # "length"


ENTRIES = (
    [f"TikhonovProblem-{v}" for v in ("a", "l", "b", "x_true")]
    + ["GmpPair-a", "GmpPair-l"]
    + [f"{s}-{v}" for s in ("solve_gsvd", "solve_tgsvd", "solve_rgsvd") for v in ("b", "x_true")]
    + [f"{s}-b" for s in ("gcv_lambda", "gcv_truncation", "lcurve_lambda")]
    + ["add_noise-b"]
)


@pytest.mark.parametrize(
    "entry, defect",
    [(e, d) for e in ENTRIES for d in ("nan", "ndim", "length") if (e, d) != ("add_noise-b", "length")],
)
def test_entry_point_rejects_bad_input(entry_points, entry, defect):
    # "length": one column too few for a matrix, one entry for a vector;
    # add_noise has no other input to measure b's length against
    call, value = entry_points[entry]
    call(value)  # the valid input passes
    if defect == "nan":
        with pytest.raises(ValueError, match="non-finite"):
            call(_bad(value, defect))
    else:
        with pytest.raises(DimensionError):
            call(_bad(value, defect))
