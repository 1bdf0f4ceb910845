"""The benchmark's workloads: seeded inputs, the timed operation, and an
independent check of every output.

Each workload turns ``(seed, index)`` into a ``Case`` (input plus reference,
built outside the timed region), runs one operation on it, and checks the
output.  The program only ever sees the generated inputs.  A run measures
``nominal_ops_per_s * seconds`` operations, cases 0, 1, 2, ... in order.

Every levelcanon function an operation calls is bound at module level here,
so the tracer can wrap it as this module binds it.  Reference computations
go through the ``_ref_*`` names and the ``levels`` module object, which the
tracer never wraps, so checking stays out of the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from string import Template

from levelcanon import levels as _levels
from levelcanon.harness import GenConfig, differential_case, gen_level, harness_names
from levelcanon.levels import IMax, Max, Succ, Var
from levelcanon.normalize import eq_repr, leq_repr, normalize, subst_repr
from levelcanon.normalize import normalize as _ref_normalize
from levelcanon.parser import NameTable, parse_level
from levelcanon.printer import print_level, print_repr
from levelcanon.rewrite.codec import confluence_runs
from levelcanon.rewrite.codec import encode_repr as _ref_encode_repr

# the budget of the confluence acceptance criterion and of `differential_case`
BUDGET = 1_000_000


@dataclass(frozen=True)
class Case:
    index: int
    payload: object   # what the operation receives
    expected: object  # the reference the check compares against
    text: str         # one-line description of the input, for failure reports


def child_env(src: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports levelcanon from `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


# --- decide ---------------------------------------------------------------

_NAMES4 = harness_names(4)

# (lhs, rhs) constructions whose verdict is true by law, from levels t, u, w
_LEQ_LAWS = (
    lambda t, u, w: (t, Max(t, u)),
    lambda t, u, w: (t, Max(u, t)),
    lambda t, u, w: (IMax(t, u), Max(t, u)),
    lambda t, u, w: (t, Succ(t)),
    lambda t, u, w: (Max(t, u), Max(u, Max(t, w))),
)
_EQ_LAWS = (
    lambda t, u, w: (Max(t, u), Max(u, t)),
    lambda t, u, w: (IMax(t, t), t),
    lambda t, u, w: (Max(t, t), t),
    lambda t, u, w: (Max(t, Max(u, w)), Max(Max(t, u), w)),
    lambda t, u, w: (IMax(t, IMax(u, w)), IMax(Max(t, u), w)),
    lambda t, u, w: (IMax(t, Succ(u)), Max(t, Succ(u))),
    lambda t, u, w: (Succ(Max(t, u)), Max(Succ(t), Succ(u))),
)
# The query mix, leq:eq:subst = 2:2:1, is a choice, not a measurement: no
# trace of a kernel's query traffic exists to set it.  It makes the
# read-only comparisons, the kernel's decision queries, most of the load
# and keeps Repr construction (subst) a fifth of it.  Because the mix sets
# how the two weigh in decide's end-to-end metrics, the traced run also
# reports the median latency of leq/eq and of subst queries separately.
_KINDS = ("leq", "eq", "subst", "leq", "eq")


@dataclass(frozen=True)
class Query:
    kind: str   # leq | eq | subst
    lhs: str
    rhs: str    # second level text, or the substituted variable's name
    value: int  # substituted value (subst only)


def _decide(q: Query):
    names = NameTable()
    lhs = normalize(parse_level(q.lhs, names))
    if q.kind == "subst":
        return print_repr(subst_repr(lhs, names.intern(q.rhs), q.value), names)
    rhs = normalize(parse_level(q.rhs, names))
    return leq_repr(lhs, rhs) if q.kind == "leq" else eq_repr(lhs, rhs)


_ATOM_RE = re.compile(r"A\{([\w,]*)\}\((\w+)\)\+(\d+)|B\{([\w,]*)\}\+(\d+)")


def _printed_value(text: str, sigma: dict[str, int]):
    """Value of a printed representation `max{atom, ...}` under `sigma`,
    or None when the text is not in that format."""
    if not (text.startswith("max{") and text.endswith("}")):
        return None
    best = 0
    for part in filter(None, text[4:-1].split(", ")):
        m = _ATOM_RE.fullmatch(part)
        if m is None:
            return None
        guard = m.group(1) if m.group(2) else m.group(4)
        if guard and any(sigma[v] == 0 for v in guard.split(",")):
            continue
        value = sigma[m.group(2)] + int(m.group(3)) if m.group(2) else int(m.group(5))
        best = max(best, value)
    return best


class Decide:
    """Kernel queries: parse, normalize, answer `leq`/`eq`/`subst`."""

    name = "decide"
    unit = "mixed"  # calibrate.py's reference unit
    modules = ("levelcanon.parser", "levelcanon.normalize", "levelcanon.printer",
               "levelcanon.harness")
    nominal_ops_per_s = 350
    cover_ops = len(_KINDS)  # operations that reach every query kind

    def __init__(self, src: Path):
        pass

    def case(self, seed: int, index: int) -> Case:
        cfg = GenConfig(seed=seed, max_size=50, num_vars=4)
        rng = random.Random(f"{seed}:{index}:decide")
        t, u, w = (gen_level(cfg, 3 * index + k) for k in range(3))
        kind = _KINDS[index % len(_KINDS)]
        if kind == "subst":
            vids = sorted(_levels.level_vars(t))
            var = rng.choice(vids) if vids else rng.randrange(4)
            q = Query(kind, print_level(t, _NAMES4), f"x{var}", rng.randrange(4))
            return Case(index, q, t, f"subst {q.lhs} {q.rhs}={q.value}")
        if rng.random() < 0.5:
            lhs, rhs = rng.choice(_LEQ_LAWS if kind == "leq" else _EQ_LAWS)(t, u, w)
            verdict = True
        else:
            lhs, rhs = t, u
            grid = _levels.default_grid_bound(lhs, rhs)
            verdict = (_levels.find_counterexample_leq(lhs, rhs, grid) is None
                       and (kind == "leq"
                            or _levels.find_counterexample_leq(rhs, lhs, grid) is None))
        q = Query(kind, print_level(lhs, _NAMES4), print_level(rhs, _NAMES4), 0)
        return Case(index, q, verdict, f"{kind} {q.lhs} | {q.rhs}")

    op = staticmethod(_decide)

    def check(self, case: Case, out) -> bool:
        q = case.payload
        if q.kind != "subst":
            return out is case.expected
        # the printed result must agree with the original level, with the
        # substituted variable fixed, on every sampled valuation
        if not isinstance(out, str):
            return False
        var = int(q.rhs[1:])
        rng = random.Random(f"{case.index}:subst-check")
        for k in range(16):
            values = [k] * 4 if k < 2 else [rng.randint(0, 5) for _ in range(4)]
            values[var] = q.value
            want = _levels.eval_level(case.expected, dict(enumerate(values)))
            got = _printed_value(out, {f"x{j}": v for j, v in enumerate(values)})
            if got != want:
                return False
        return True

    @staticmethod
    def render(out) -> str:
        return str(out)


# --- fuzz -----------------------------------------------------------------

def seeded_variant(t, seed: int, index: int):
    """`t` with its variables permuted and some `max` arguments swapped, both
    chosen by (seed, index): an equal-sized, equally shaped input that the
    program has to work through afresh.

    fuzz draws its levels from the fuzz criterion's fixed stream and varies
    them this way, instead of drawing levels per seed: case cost spans three
    decades, and the 1500 levels a run covers then differed so much between
    seeds that op_p50_ms moved by 50% across five seeds.
    """
    rng = random.Random(f"{seed}:{index}:variant")
    perm = list(range(1 + max(_levels.level_vars(t), default=0)))
    rng.shuffle(perm)

    def walk(u):
        if isinstance(u, Var):
            return Var(perm[u.vid])
        if isinstance(u, Succ):
            return Succ(walk(u.child))
        if isinstance(u, Max):
            a, b = walk(u.left), walk(u.right)
            return Max(b, a) if rng.random() < 0.5 else Max(a, b)
        if isinstance(u, IMax):
            return IMax(walk(u.left), walk(u.right))
        return u
    return walk(t)


class Fuzz:
    """One case of `levelcanon fuzz`: the differential harness."""

    name = "fuzz"
    unit = "mixed"  # calibrate.py's reference unit
    modules = ("levelcanon.harness",)
    nominal_ops_per_s = 60
    cover_ops = 1
    levels = GenConfig(seed=707, max_size=50)  # the fuzz criterion's stream

    def __init__(self, src: Path):
        pass

    def case(self, seed: int, index: int) -> Case:
        t = seeded_variant(gen_level(self.levels, index), seed, index)
        return Case(index, t, None, f"fuzz case {index} at seed {seed}: {t!r}")

    @staticmethod
    def op(t):
        return differential_case(t)

    def check(self, case: Case, out) -> bool:
        return out is None

    @staticmethod
    def render(out) -> str:
        return "ok" if out is None else json.dumps(out.to_json(), sort_keys=True)


# --- confluence -----------------------------------------------------------

class Confluence:
    """Five reduction strategies on one small level (the confluence criterion).

    The levels are the criterion's own stream at every seed, and the seed
    picks the three random strategies' seeds, which carry most of the work.
    With levels drawn per seed, or varied as fuzz varies them, the few
    hundred heavy-tailed levels a run covers moved ops_per_s and op_tail_ms
    by 20% to 40% between seeds.
    """

    name = "confluence"
    unit = "mixed"  # calibrate.py's reference unit
    modules = ("levelcanon.harness", "levelcanon.rewrite.codec")
    nominal_ops_per_s = 11
    cover_ops = 1
    levels = GenConfig(seed=808, max_size=12)  # the confluence criterion's stream

    def __init__(self, src: Path):
        pass

    def case(self, seed: int, index: int) -> Case:
        t = gen_level(self.levels, index)
        ref = _ref_encode_repr(_ref_normalize(t))
        # confluence_runs seeds its random runs with s, s+1, s+2
        strategy_seed = seed * 1_000_000_000 + 3 * index
        return Case(index, (t, strategy_seed), ref,
                    f"confluence level {index} at seed {seed}: {t!r}")

    @staticmethod
    def op(payload):
        t, strategy_seed = payload
        return confluence_runs(t, 5, strategy_seed, BUDGET)

    def check(self, case: Case, out) -> bool:
        return len(out) == 5 and all(not r.budget_exhausted and r.result == case.expected
                                     for r in out)

    @staticmethod
    def render(out) -> str:
        return " ".join(f"{r.steps}{'!' if r.budget_exhausted else ''}"
                        f"/{zlib.crc32(repr(r.result).encode()):08x}" for r in out)


# --- cli ------------------------------------------------------------------

# The README's CLI examples with hand-written expected stdout and exit code,
# plus `rewrite` under the two positional strategies, so that the traced run
# covers every reduction strategy; the step counts are this commit's, which
# a behaviour-preserving change keeps.  $x, $y and $z are replaced by seeded
# variable names.
_IMAX_XX_NF = "maxS (consSL (A (consN zeroN nilN) zeroN zeroN) nilSL)"
_CLI_EXAMPLES = (
    (("normalize", "max(imax($x,$y),imax($y,$x))"), "max{A{$x}($x)+0, A{$y}($y)+0}", 0),
    (("normalize", "s(0)", "--json"), '{"atoms":[{"kind":"B","set":[],"shift":1}]}', 0),
    (("eq", "imax($x,$x)", "$x"), "true", 0),
    (("leq", "s($x)", "$x"), "false", 1),
    (("subst", "max(imax($x,$y), $z)", "$x=0", "$z=2"), "max{A{$y}($y)+0, B{}+2}", 0),
    (("eval", "imax(s($y), s($x))", "--val", "$x=0,$y=1"), "2", 0),
    (("rewrite", "imax($x,$x)"), _IMAX_XX_NF + "\nsteps: 80", 0),
    (("rewrite", "imax($x,$x)", "--strategy", "outermost"), _IMAX_XX_NF + "\nsteps: 57", 0),
    (("rewrite", "imax($x,$x)", "--strategy", "random", "--seed", "1"),
     _IMAX_XX_NF + "\nsteps: 91", 0),
)
_CLI_NAMES = [f"{c}{k}" for c in "abcdefghuvw" for k in range(10)]
_CLI_MAIN = "from levelcanon.cli import main; main()"


class Cli:
    """One `levelcanon` process per operation, one at a time."""

    name = "cli"
    unit = "alu"  # calibrate.py's reference unit
    modules = ("levelcanon.cli",)
    nominal_ops_per_s = 6
    cover_ops = len(_CLI_EXAMPLES)  # cases 0..8 run every example once

    def __init__(self, src: Path):
        self.env = child_env(src)
        self.stderr_path = Path(".perfbench_out") / "cli-stderr.txt"
        self.peak_rss_kb = 0

    def case(self, seed: int, index: int) -> Case:
        order = list(range(len(_CLI_EXAMPLES)))
        random.Random(f"{seed}:{index // len(order)}:cli-order").shuffle(order)
        argv, stdout, code = _CLI_EXAMPLES[order[index % len(order)]]
        x, y, z = random.Random(f"{seed}:{index}:cli-names").sample(_CLI_NAMES, 3)
        fill = dict(x=x, y=y, z=z)
        argv = tuple(Template(a).substitute(fill) for a in argv)
        expected = (Template(stdout).substitute(fill) + "\n", code)
        return Case(index, argv, expected, "levelcanon " + " ".join(argv))

    def op(self, argv) -> tuple[str, int]:
        # stderr goes to a file so that only one pipe is read before the
        # child is reaped with wait4, which reports the child's own peak RSS
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", _CLI_MAIN, *argv],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env)
            try:
                with proc.stdout:
                    out = proc.stdout.read()
            finally:
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return out.decode(), proc.returncode

    @staticmethod
    def replay(argv) -> tuple[str, int]:
        """The same command run in this process, for the traced run's layer
        attribution; stdout is captured and stderr discarded."""
        from levelcanon.cli import run_cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(list(argv))
        return out.getvalue(), code

    def check(self, case: Case, out) -> bool:
        return tuple(out) == case.expected

    @staticmethod
    def render(out) -> str:
        return json.dumps(list(out))


WORKLOADS = {w.name: w for w in (Decide, Fuzz, Confluence, Cli)}
