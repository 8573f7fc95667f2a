"""Self-tests of the benchmark: tiny runs of every workload, the output
checks, and the traced run's wrapping and missing-binding reporting.

    python3 -m pytest perfbench/tests -q
"""

import copy
import importlib
import json
from pathlib import Path

import pytest

import tracing
import worker
import workloads

TINY = {"kernels": 64, "tomo": 8, "reuse": 64, "dense": 64}
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _originals(tracer):
    return {b.where: getattr(importlib.import_module(b.module), b.attr) for b in tracer.bindings}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(name, trace):
    result = worker.run(name, seed=3, seconds=0, trace=trace, size=TINY[name], out_dir=None)
    summary = result["summary"]
    cells = len(result["records"])
    assert summary["correct"], result["failures"]
    assert summary["attempted"] == (2 * cells if trace else cells)
    # problems.* cover exactly one set-up in a traced run
    setups = len(result["setup_times"])
    assert (setups == 1) if trace else (setups >= worker.SETUP_MIN_REPS)
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert sorted(summary["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_records_pass_and_tampered_ones_fail(name):
    wl = workloads.WORKLOADS[name]
    ref = workloads.load_reference()
    records = copy.deepcopy(ref[name])
    misses, notes = workloads.check_pass(wl, records, workloads.DEFAULT_SEED, wl.size)
    assert misses == {} and notes == {}

    label = next(iter(records))
    records[label]["solves"][0][1] *= 1 + 1e-6
    misses, _ = workloads.check_pass(wl, records, workloads.DEFAULT_SEED, wl.size)
    assert list(misses) == [label] and "lambda" in misses[label][0]

    records[label]["solves"][0][2] = float("nan")
    misses, _ = workloads.check_pass(wl, records, 7, wl.size)
    assert "not finite" in misses[label][0]


def test_bands_are_misses_at_the_default_seed_and_notes_elsewhere():
    wl = workloads.WORKLOADS["kernels"]
    records = copy.deepcopy(workloads.load_reference()["kernels"])
    for label in ("gravity/0", "gravity/1"):
        records[label]["solves"][0][2] = 0.5
    misses, _ = workloads.check_pass(wl, records, workloads.DEFAULT_SEED, wl.size)
    assert {"gravity/0", "gravity/1"} <= set(misses)
    misses, notes = workloads.check_pass(wl, records, 5, wl.size)
    assert misses == {} and set(notes) == {"gravity/0", "gravity/1", "gravity/2"}


@pytest.mark.parametrize("name", ["kernels", "reuse", "dense"])
def test_median_cap_fails_at_every_seed(name):
    wl = workloads.WORKLOADS[name]
    records = copy.deepcopy(workloads.load_reference()[name])
    for r in records.values():
        for solve in r["solves"]:
            solve[2] = 1.0  # as from a lambda that no longer tracks the data
    misses, _ = workloads.check_pass(wl, records, 11, wl.size)
    assert set(misses) == set(records)
    assert all(any("median GCV rel" in m for m in found) for found in misses.values())


def test_sample_count_limit_fails_at_every_seed():
    wl = workloads.WORKLOADS["kernels"]
    records = copy.deepcopy(workloads.load_reference()["kernels"])
    records["shaw/2"]["l1"] = 4 * workloads.REFERENCE_L["shaw"] + 1
    misses, _ = workloads.check_pass(wl, records, 11, wl.size)
    assert list(misses) == ["shaw/2"]


def test_traced_run_restores_every_binding():
    tracer = tracing.Tracer()
    before = _originals(tracer)
    assert any(b.span == "linalg.validate" for b in tracer.bindings)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            wrapped = _originals(tracer)
            assert all(wrapped[k] is not before[k] for k in before)
            raise RuntimeError("cell failed")
    assert _originals(tracer) == before
    assert all(_originals(tracer)[k] is before[k] for k in before)

    worker.run("kernels", seed=0, seconds=0, trace=True, size=TINY["kernels"], out_dir=None)
    assert all(_originals(tracer)[k] is before[k] for k in before)


def test_missing_binding_is_reported_not_raised(monkeypatch):
    selection = importlib.import_module("randgsvd.selection")
    monkeypatch.delattr(selection, "lcurve_lambda")
    result = worker.run("kernels", seed=0, seconds=0, trace=True, size=TINY["kernels"],
                        out_dir=None)
    metrics = result["summary"]["metrics"]
    for name in ("selection.lcurve_s", "selection.calls"):
        assert metrics[name]["value"] is None
        assert metrics[name]["missing"] == "randgsvd.selection.lcurve_lambda"
    assert metrics["selection.gcv_s"]["value"] > 0
    assert result["missing"] == ["randgsvd.selection.lcurve_lambda"]
    assert result["summary"]["correct"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "rgsvd.factor", 0.0, 10.0, None, "c"),
        (1, "gsvd.qr", 1.0, 4.0, 0, "c"),
        (2, "linalg.validate", 3.0, 5.0, 0, "c"),
        (3, "linalg.validate", 1.5, 2.0, 1, "c"),
    ]
    assert tracing.self_time(spans, "rgsvd.factor") == pytest.approx(6.0)
    assert tracing.self_time(spans, "gsvd.qr") == pytest.approx(2.5)
