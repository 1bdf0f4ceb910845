"""The benchmark's tracer wraps levelcanon functions at the names their
calling modules bind (perfbench/tracing.py).  A name that no longer resolves
drops its layer from a traced run, so every binding must exist."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    bindings = (*tracing.SPAN_BINDINGS, *tracing.COUNT_BINDINGS)
    missing = [f"{module}.{attr}" for module, attr, _ in bindings
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert bindings and missing == []
