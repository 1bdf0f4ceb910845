"""The benchmark's tracer wraps levelcanon functions at the names their
calling modules bind (perfbench/tracing.py).  A name that no longer resolves
drops its layer from a traced run, so every binding must exist."""

from __future__ import annotations

import importlib
import json
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


def test_normalize_reaches_leq_sub_through_its_module_binding(monkeypatch):
    # the tracer counts `sublevels.leq_sub.calls` at levelcanon.normalize.leq_sub,
    # and a traced decide run reads correct=false if that count stays 0
    import levelcanon.normalize as nz
    from levelcanon import Max, Succ, Var

    calls = []
    original = nz.leq_sub

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(nz, "leq_sub", counting)
    x = Var(0)
    nz.normalize(Max(x, Succ(x)))
    assert calls
    calls.clear()
    assert nz.leq_repr(nz.repr_var(0), nz.repr_var(0))
    assert calls


def test_normalize_makes_the_leq_sub_calls_the_benchmark_counts(monkeypatch):
    # `sublevels.leq_sub.calls` is an exact count in traced runs; the count on
    # a fixed stream shows a drift in the merge's comparisons without one
    import levelcanon.normalize as nz
    from levelcanon.harness import GenConfig, gen_level

    calls = 0
    original = nz.leq_sub

    def counting(u, v):
        nonlocal calls
        calls += 1
        return original(u, v)

    monkeypatch.setattr(nz, "leq_sub", counting)
    cfg = GenConfig(seed=707, max_size=50)
    for index in range(1_000):
        nz.normalize(gen_level(cfg, index))
    assert calls == 21_599


def test_fuzz_cases_reach_every_harness_binding_the_tracer_requires(monkeypatch):
    # a traced fuzz run reads correct=false when a call count in its
    # `reached` list stays 0; these are the ones counted at harness names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    predictions = json.loads((PERFBENCH / "predictions.json").read_text())
    reached = set(predictions["workloads"]["fuzz"]["reached"])
    from levelcanon import harness

    counts = {}

    def counting(attr, original):
        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, attr, span in tracing.SPAN_BINDINGS:
        if module == "levelcanon.harness" and f"{span}.calls" in reached:
            counts[attr] = 0
            monkeypatch.setattr(harness, attr, counting(attr, getattr(harness, attr)))
    assert {"eval_level", "find_counterexample_leq"} <= set(counts)
    cfg = harness.GenConfig(seed=707, max_size=50)  # the fuzz workload's stream
    for index in range(5):
        assert harness.differential_case(harness.gen_level(cfg, index)) is None
    assert all(counts.values()), counts


def test_cli_rewrite_calls_the_bindings_the_tracer_patches(monkeypatch, capsys):
    # a traced cli run counts `codec.encode.calls` and `reduce.*.calls` at
    # levelcanon.cli.encode_level and levelcanon.cli.reduce, and reads
    # correct=false if `rewrite` calls other bindings than those
    import levelcanon.cli as cli

    calls = []

    def counting(attr, original):
        def wrapper(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)
        return wrapper

    for attr in ("reduce", "encode_level"):
        monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    for strategy in ("innermost", "outermost", "random"):
        calls.clear()
        assert cli.run_cli(["rewrite", "imax(x,x)", "--strategy", strategy]) == 0
        assert sorted(calls) == ["encode_level", "reduce"], strategy
    assert "steps: " in capsys.readouterr().out
