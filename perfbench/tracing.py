"""Per-layer tracing from outside the program: spans and exact counts.

The tracer replaces levelcanon functions at the names their *calling*
modules bind them (``levelcanon.harness.soundness_report``,
``levelcanon.rewrite.codec.reduce``, ...).  Recursive calls inside a layer go
through the layer's own module and are not wrapped, so each layer call is
one span; a wrapped name that recurses through itself (``codec.encode_level``)
passes nested calls straight through.

Spans are ``[name, start, end, parent, op]`` and stay in memory until the
run ends.  A layer's self time is its spans' time minus the time their
direct children cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

from levelcanon.levels import level_size

STRATEGIES = ("innermost", "outermost", "random")

# (calling module, bound name, span name); "reduce" is split by strategy
SPAN_BINDINGS = (
    ("workloads", "parse_level", "parser"),
    ("workloads", "normalize", "normalize"),
    ("workloads", "leq_repr", "leq_repr"),
    ("workloads", "eq_repr", "eq_repr"),
    ("workloads", "subst_repr", "subst_repr"),
    ("workloads", "print_repr", "printer"),
    ("workloads", "differential_case", "harness.case"),
    ("levelcanon.harness", "normalize", "normalize"),
    ("levelcanon.harness", "eval_repr", "eval_repr"),
    ("levelcanon.harness", "eval_level", "levels.eval_level"),
    ("levelcanon.harness", "soundness_report", "harness.soundness_report"),
    ("levelcanon.harness", "find_counterexample_leq", "levels.grid"),
    ("levelcanon.harness", "leq_repr", "leq_repr"),
    ("levelcanon.harness", "print_level", "printer"),
    ("levelcanon.harness", "gen_level", "harness.gen_level"),
    ("levelcanon.rewrite.codec", "normalize", "normalize"),
    ("levelcanon.rewrite.codec", "encode_level", "codec.encode"),
    ("levelcanon.rewrite.codec", "encode_repr", "codec.encode"),
    ("levelcanon.rewrite.codec", "reduce", "reduce"),
    ("levelcanon.cli", "parse_level", "parser"),
    ("levelcanon.cli", "normalize", "normalize"),
    ("levelcanon.cli", "leq_repr", "leq_repr"),
    ("levelcanon.cli", "eq_repr", "eq_repr"),
    ("levelcanon.cli", "subst_repr", "subst_repr"),
    ("levelcanon.cli", "print_repr", "printer"),
    ("levelcanon.cli", "print_repr_json", "printer"),
    ("levelcanon.cli", "eval_level", "levels.eval_level"),
    ("levelcanon.cli", "encode_level", "codec.encode"),
    ("levelcanon.cli", "reduce", "reduce"),
)

# exact call counts without a timing wrapper, to keep hot-path overhead down
COUNT_BINDINGS = (
    ("levelcanon.normalize", "leq_sub", "sublevels.leq_sub.calls"),
)

# children of a harness.case span, by the differential phase they belong to
HARNESS_PHASES = {
    "eval_repr": "eval", "levels.eval_level": "eval",
    "harness.soundness_report": "rewrite",
    "levels.grid": "compare", "leq_repr": "compare",
}

# span name -> layer, for the dominant-layer check
LAYER_OF = {
    "parser": "parser", "printer": "printer",
    "normalize": "normalize", "leq_repr": "normalize", "eq_repr": "normalize",
    "subst_repr": "normalize", "eval_repr": "normalize",
    "levels.grid": "levels", "levels.eval_level": "levels",
    "codec.encode": "codec",
    "harness.case": "harness", "harness.gen_level": "harness",
    "harness.soundness_report": "harness",
    "op": "benchmark",
    **{f"reduce.{s}": f"reduce.{s}" for s in STRATEGIES},
}

# counts that must repeat exactly between two traced runs at one seed
EXACT_COUNTS = (
    "parser.nodes", "normalize.atoms_out", "sublevels.leq_sub.calls",
    *(f"reduce.{s}.{k}" for s in STRATEGIES for k in ("tree_steps", "max_steps")),
)


def _strategy(args, kwargs) -> str:
    return kwargs.get("strategy", args[2] if len(args) > 2 else "innermost")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[int] = []
        self._open_names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op])
        self._open.append(idx)
        self._open_names.append(name)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()
        self._open_names.pop()

    def _wrap(self, layer: str, fn):
        tally = getattr(self, "_tally_" + layer.replace(".", "_"), None)

        def traced(*args, **kwargs):
            name = f"reduce.{_strategy(args, kwargs)}" if layer == "reduce" else layer
            if self._open_names and self._open_names[-1] == name:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if tally is not None:
                tally(name, args, result)
            return result
        return traced

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def _tally_parser(self, name, args, result):
        self.counts["parser.nodes"] += level_size(result)

    def _tally_normalize(self, name, args, result):
        self.counts["normalize.nodes_in"] += level_size(args[0])
        self.counts["normalize.atoms_out"] += len(result.atoms)

    def _tally_reduce(self, name, args, report):
        self.counts[f"{name}.tree_steps"] += report.steps
        self.counts[f"{name}.exhausted"] += report.budget_exhausted
        key = f"{name}.max_steps"
        self.counts[key] = max(self.counts[key], report.steps)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.missing.clear()
        for bindings, wrap in ((SPAN_BINDINGS, self._wrap), (COUNT_BINDINGS, self._count)):
            for module_name, attr, name in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patches.append((module, attr, original))
                setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- reduction --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(busy time, self time, span count) per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for (name, start, end, _, _), cover in zip(self.spans, covered):
            busy[name] += end - start
            own[name] += end - start - cover
            calls[name] += 1
        return busy, own, calls

    def harness_phases(self) -> dict[str, float]:
        phases = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == "harness.case":
                phase = HARNESS_PHASES.get(name)
                if phase is not None:
                    phases[phase] += end - start
        return phases

    def layer_self_times(self) -> dict[str, float]:
        _, own, _ = self.self_times()
        out = defaultdict(float)
        for name, t in own.items():
            out[LAYER_OF.get(name, name)] += t
        return dict(out)

    def exact_counts(self) -> dict[str, int]:
        return {k: self.counts[k] for k in EXACT_COUNTS}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each as (value, unit); the caller adds the
        cli.* floors and trace.overhead_frac."""
        busy, own, calls = self.self_times()
        counts = self.counts
        phases = self.harness_phases()

        def per(value: float, count: int) -> float:
            return value / count * 1e6 if count else 0.0

        m: dict[str, tuple[float, str]] = {}
        m["parser.calls"] = (calls["parser"], "count")
        m["parser.busy_s"] = (busy["parser"], "s")
        m["parser.nodes"] = (counts["parser.nodes"], "count")
        m["parser.us_per_node"] = (per(busy["parser"], counts["parser.nodes"]), "us/node")
        m["normalize.calls"] = (calls["normalize"], "count")
        m["normalize.busy_s"] = (busy["normalize"], "s")
        m["normalize.atoms_out"] = (counts["normalize.atoms_out"], "count")
        m["normalize.us_per_node"] = (per(busy["normalize"], counts["normalize.nodes_in"]),
                                      "us/node")
        for name in ("leq_repr", "eq_repr", "subst_repr"):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.busy_s"] = (busy[name], "s")
        m["sublevels.leq_sub.calls"] = (counts["sublevels.leq_sub.calls"], "count")
        m["printer.calls"] = (calls["printer"], "count")
        m["printer.busy_s"] = (busy["printer"], "s")
        for name in ("levels.grid", "levels.eval_level", "codec.encode"):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.busy_s"] = (busy[name], "s")
        for s in STRATEGIES:
            name = f"reduce.{s}"
            steps = counts[f"{name}.tree_steps"]
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.busy_s"] = (busy[name], "s")
            m[f"{name}.tree_steps"] = (steps, "count")
            m[f"{name}.us_per_step"] = (per(busy[name], steps), "us/step")
            m[f"{name}.max_steps"] = (counts[f"{name}.max_steps"], "count")
            m[f"{name}.exhausted"] = (counts[f"{name}.exhausted"], "count")
        m["harness.case.calls"] = (calls["harness.case"], "count")
        m["harness.gen_level.busy_s"] = (busy["harness.gen_level"], "s")
        for phase in ("eval", "rewrite", "compare"):
            m[f"harness.phase.{phase}_s"] = (phases[phase], "s")
        m["harness.self_s"] = (own["harness.case"], "s")
        return m
