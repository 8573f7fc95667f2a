"""The public names and the bindings perfbench/tracing.py wraps resolve.

A refactor that renames or removes a wrapped binding turns its layer
metrics into "missing" in the benchmark; this catches it in the unit
suite. tracing.py is loaded from its file and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import randgsvd

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    for name in randgsvd.__all__:
        assert getattr(randgsvd, name, None) is not None, name


def test_traced_bindings_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    bindings = tracing.BINDINGS + tracing.validation_bindings()
    assert {b.span for b in bindings} >= {"linalg.validate", "rgsvd.factor", "gsvd.qr"}
    for b in bindings:
        assert callable(getattr(importlib.import_module(b.module), b.attr, None)), b.where
