"""Span tracing of randgsvd's layers, from outside the package.

The package's modules import their helpers with ``from ... import``, so a
call such as ``adaptive_range_finder(a, cfg)`` inside ``randgsvd.rgsvd``
looks the name up in the ``randgsvd.rgsvd`` namespace. Each binding below
therefore names the module the *caller* lives in, and ``Tracer.installed``
swaps that attribute for a timing wrapper and puts the original back on
exit. The package re-exports the ``rgsvd`` function under the name of the
``randgsvd.rgsvd`` module, so modules are reached through ``importlib``.

A binding that a refactor has removed is recorded as missing, and every
metric that depends on it is reported as missing instead of failing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

MB = 2**20


@dataclass(frozen=True)
class Binding:
    """Wrap ``module.attr`` and record its calls as spans named ``span``;
    ``observe(tracer, args, kwargs, result, parent)`` adds counts."""

    module: str
    attr: str
    span: str
    observe: Callable | None = None

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attr}"


def _target_shape(args, kwargs):
    return np.shape(args[0] if args else kwargs["a"])


def _obs_generate(t, args, kwargs, prob, parent):
    t.count("instance_bytes", prob.a.nbytes + prob.l.nbytes + prob.b.nbytes)


def _obs_add_noise(t, args, kwargs, b, parent):
    if parent is None:  # generate's own call is already in its instance
        t.count("instance_bytes", b.nbytes)


def _obs_test_matrix(t, args, kwargs, omega, parent):
    t.count("columns_drawn", omega.shape[1])
    t.pending_widths.append(omega.shape[1])


def _obs_range_finder(t, args, kwargs, basis, parent):
    # Each test block of width w costs one product target @ omega: the
    # target's bytes are read once and 2 * rows * cols * w flops are done.
    rows, cols = _target_shape(args, kwargs)
    t.count("range_finder_calls")
    t.count("blocks", basis.blocks_consumed)
    t.count("columns_kept", basis.ncols)
    for w in t.pending_widths:
        t.count("product_bytes", rows * cols * 8)
        t.count("product_flops", 2 * rows * cols * w)
    t.pending_widths.clear()


def _obs_rgsvd(t, args, kwargs, approx, parent):
    t.count("l1_sum", approx.l1)
    t.count("l2_sum", approx.l2)


def _obs_qr(t, args, kwargs, qr, parent):
    # Householder R of an M x N stack is 2MN^2 - 2N^3/3 flops; forming the
    # thin Q costs the same again.
    m, n = _target_shape(args, kwargs)
    t.count("qr_flops", 4 * m * n * n - 4 * n**3 // 3)


def _obs_validate(t, args, kwargs, arr, parent):
    t.count("validate_calls")
    t.count("validate_bytes", arr.nbytes)


def _counter(key):
    return lambda t, args, kwargs, result, parent: t.count(key)


BINDINGS = (
    Binding("randgsvd.problems", "generate", "problems.generate", _obs_generate),
    Binding("randgsvd.problems", "add_noise", "problems.add_noise", _obs_add_noise),
    Binding("randgsvd.rgsvd", "adaptive_range_finder", "sampling.range_finder", _obs_range_finder),
    Binding("randgsvd.sampling", "uniform_test_matrix", "sampling.test_matrix", _obs_test_matrix),
    Binding("randgsvd.rgsvd", "rgsvd", "rgsvd.factor", _obs_rgsvd),
    Binding("randgsvd.gsvd", "qr_reduced", "gsvd.qr", _obs_qr),
    Binding("randgsvd.gsvd", "symmetric_eig", "gsvd.eigh"),
    Binding("randgsvd.gsvd", "solve_upper_triangular", "gsvd.trsm"),
    Binding("randgsvd.gsvd", "gsvd_full_rank", "gsvd.full_rank"),
    Binding("randgsvd.selection", "gcv_lambda", "selection.gcv", _counter("selection_calls")),
    Binding("randgsvd.selection", "lcurve_lambda", "selection.lcurve", _counter("selection_calls")),
    Binding("randgsvd.selection", "tikhonov_filters", "selection.filters", _counter("filter_evals")),
    Binding("randgsvd.tikhonov", "solve_rgsvd", "tikhonov.solve", _counter("solve_calls")),
    Binding("randgsvd.tikhonov", "solve_gsvd", "tikhonov.solve", _counter("solve_calls")),
)
VALIDATORS = ("as_matrix", "as_vector")


def validation_bindings() -> tuple:
    """One binding per module that holds linalg's as_matrix or as_vector.

    Validation runs inside every layer, so every module's binding is
    wrapped; a validator that linalg itself no longer defines is returned
    as a single binding that will be reported missing.
    """
    linalg = importlib.import_module("randgsvd.linalg")
    found = []
    for fname in VALIDATORS:
        fn = getattr(linalg, fname, None)
        if fn is None:
            found.append(Binding("randgsvd.linalg", fname, "linalg.validate", _obs_validate))
            continue
        for name in sorted(sys.modules):
            if name.startswith("randgsvd.") and getattr(sys.modules[name], fname, None) is fn:
                found.append(Binding(name, fname, "linalg.validate", _obs_validate))
    return tuple(found)


class Tracer:
    """Spans and counts of the wrapped calls, kept in memory.

    A span is (id, name, start, end, parent id, cell); cell is None during
    set-up. Counts are kept per phase, "setup" or "cell".
    """

    def __init__(self):
        self.bindings = BINDINGS + validation_bindings()
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: set = set()
        self.cell = None
        self.pending_widths: list = []
        self._stack: list = []
        self._saved: list = []

    def count(self, key: str, amount=1):
        self.counts[("setup" if self.cell is None else "cell", key)] += amount

    def _wrap(self, fn, binding: Binding):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, binding.span, start, end, parent, self.cell))
            if binding.observe is not None:
                binding.observe(self, args, kwargs, result, parent)
            return result

        return traced

    def install(self):
        for binding in self.bindings:
            try:
                module = importlib.import_module(binding.module)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, binding.attr, None)
            if original is None:
                self.missing.add(binding.where)
                continue
            self._saved.append((module, binding.attr, original))
            setattr(module, binding.attr, self._wrap(original, binding))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self.pending_widths.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path):
        """Write every span as [id, name, start, end, parent, cell], gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "cell"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class _Totals:
    """What the metric table reads: busy time and counts of the traced
    cells, spans, and the top-level set-up spans."""

    def __init__(self, tracer: Tracer, cells: int):
        self.cells = cells
        self.counts = tracer.counts
        self.cell_spans = [s for s in tracer.spans if s[5] is not None]
        self.busy: Counter = Counter()
        for _, name, start, end, _, _ in self.cell_spans:
            self.busy[name] += end - start
        self.setup_s = sum(
            end - start
            for _, name, start, end, parent, cell in tracer.spans
            if cell is None and parent is None and name.startswith("problems.")
        )

    def count(self, key: str):
        return self.counts[("cell", key)]


def _time(span):
    return ("s", "lower", (span,), lambda t: t.busy[span] / t.cells)


def _count(key, *needs, unit="count"):
    return (unit, "lower", needs, lambda t: t.count(key) / t.cells)


def _kept_ratio(t):
    drawn = t.count("columns_drawn")
    return t.count("columns_kept") / drawn if drawn else 0.0


_PROBLEMS = ("problems.generate", "problems.add_noise")
_RF, _TM = "sampling.range_finder", "sampling.test_matrix"
_SELECTORS = ("selection.gcv", "selection.lcurve")

# name -> (unit, better, spans the value needs, value from _Totals).
# Cell values are means per traced cell; problems.* cover one set-up.
LAYER_METRICS = {
    "problems.generate_s": ("s", "lower", _PROBLEMS, lambda t: t.setup_s),
    "problems.instance_mb": (
        "MB", "lower", _PROBLEMS, lambda t: t.counts[("setup", "instance_bytes")] / MB
    ),
    "sampling.range_finder_s": _time(_RF),
    "sampling.range_finder_calls": _count("range_finder_calls", _RF),
    "sampling.blocks": _count("blocks", _RF),
    "sampling.columns_drawn": _count("columns_drawn", _TM),
    "sampling.columns_kept": _count("columns_kept", _RF),
    "sampling.kept_ratio": ("1", "higher", (_RF, _TM), _kept_ratio),
    "sampling.test_matrix_s": _time(_TM),
    "sampling.product_bytes": _count("product_bytes", _RF, _TM, unit="B"),
    "sampling.product_flops": _count("product_flops", _RF, _TM, unit="flop"),
    "rgsvd.factor_s": _time("rgsvd.factor"),
    "rgsvd.self_s": (
        "s", "lower", ("rgsvd.factor",),
        lambda t: self_time(t.cell_spans, "rgsvd.factor") / t.cells,
    ),
    "rgsvd.l1_sum": _count("l1_sum", "rgsvd.factor"),
    "rgsvd.l2_sum": _count("l2_sum", "rgsvd.factor"),
    "gsvd.qr_s": _time("gsvd.qr"),
    "gsvd.eigh_s": _time("gsvd.eigh"),
    "gsvd.trsm_s": _time("gsvd.trsm"),
    "gsvd.full_rank_s": _time("gsvd.full_rank"),
    "gsvd.qr_flops": _count("qr_flops", "gsvd.qr", unit="flop"),
    "linalg.validate_s": _time("linalg.validate"),
    "linalg.validate_calls": _count("validate_calls", "linalg.validate"),
    "linalg.validate_bytes": _count("validate_bytes", "linalg.validate", unit="B"),
    "selection.gcv_s": _time("selection.gcv"),
    "selection.lcurve_s": _time("selection.lcurve"),
    "selection.calls": _count("selection_calls", *_SELECTORS),
    "selection.filter_evals": _count("filter_evals", "selection.filters"),
    "tikhonov.solve_s": _time("tikhonov.solve"),
    "tikhonov.solve_calls": _count("solve_calls", "tikhonov.solve"),
}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(spans, name: str) -> float:
    """Sum over spans called ``name`` of duration minus the time their
    direct child spans cover."""
    children: dict = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return sum(
        (end - start) - _covered(children.get(sid, ()))
        for sid, n, start, end, _, _ in spans
        if n == name
    )


def layer_metrics(tracer: Tracer, cells: int) -> dict:
    """Every metric of LAYER_METRICS as {"value", "unit"}, or with value
    None and "missing" naming the bindings it needs that were not found."""
    missing_spans: dict = {}
    for b in tracer.bindings:
        if b.where in tracer.missing:
            missing_spans.setdefault(b.span, b.where)
    totals = _Totals(tracer, cells)
    out = {}
    for name, (unit, _, needs, value) in LAYER_METRICS.items():
        gone = [missing_spans[s] for s in needs if s in missing_spans]
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": ", ".join(gone)}
        else:
            out[name] = {"value": float(value(totals)), "unit": unit}
    return out
