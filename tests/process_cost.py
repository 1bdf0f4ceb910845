"""What a `levelcanon` process costs, for two source trees side by side.

    python3 tests/process_cost.py OLD_TREE NEW_TREE [--rounds N]

Each tree is a directory holding `src/levelcanon`, such as a `git archive`
export.  The commands are the README's CLI examples (the `levelcanon` lines
of the first code block that has any) and `rewrite "imax(x,x)"` under each
strategy, each run as a fresh `python -m levelcanon` process and timed from
outside; then each benchmark workload's set-up child, as
`perfbench/run.py` runs it for `setup_s`: a fresh interpreter that imports
the workload's `modules` (read from `perfbench/workloads.py`) and builds
`default_rules()`, timed inside; and the first fuzz case after that
set-up, timed alone and, in another child, together with the set-up.
Each tree's `src` is copied to a scratch directory, and every command runs
ROUNDS times per tree, the trees taking turns to run first, in two ways:

  * no bytecode: PYTHONDONTWRITEBYTECODE=1 on a copy without `__pycache__`,
    so every module is compiled in every process;
  * warm bytecode: the copy's `__pycache__` written by `compileall` first.

It prints, per way and command, each tree's median time with its
quartiles (`statistics.quantiles(n=4, method="inclusive")`), the new tree's
change of the median, and in how many rounds the new tree was faster.  A
command whose stdout, stderr or exit code differs between the trees is
flagged with what differs.
pytest does not collect this file; it takes a few minutes.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
STRATEGIES = ("innermost", "outermost", "random")
# perfbench/run.py's set-up child without its reference units: it prints the
# seconds from before the imports to after the rules are built
SETUP_CHILD = """\
import importlib, sys, time
start = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
from levelcanon.rewrite.rules import default_rules
default_rules()
print(time.perf_counter() - start)
"""
# the fuzz workload's set-up, then its first operation, timed from before the
# imports ("set-up") or alone ("case"): what a set-up leaves unloaded, the
# first case loads, so a load moved from one to the other leaves the sum flat
FIRST_CASE_CHILD = """\
import sys, time
start = time.perf_counter()
from levelcanon.harness import GenConfig, differential_case, gen_level
from levelcanon.rewrite.rules import default_rules
default_rules()
level = gen_level(GenConfig(seed=707, max_size=50), 0)
if sys.argv[1] == "case":
    start = time.perf_counter()
differential_case(level)
print(time.perf_counter() - start)
"""


class Command(NamedTuple):
    label: str
    argv: list[str]  # the interpreter's arguments
    timed_inside: bool  # the process prints its own seconds


def readme_commands() -> list[list[str]]:
    """The arguments of each `levelcanon` line of the first README code
    block that has any, comments dropped."""
    for block in README.read_text().split("```")[1::2]:
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [words[1:] for words in lines if words[:1] == ["levelcanon"]]
        if commands:
            return commands
    raise SystemExit("no levelcanon commands in the README")


def workload_modules() -> dict[str, tuple[str, ...]]:
    """The `modules` tuple of each workload class in perfbench/workloads.py,
    by the workload's class name: what the benchmark imports, before it
    builds the rules, to time set-up."""
    path = ROOT / "perfbench" / "workloads.py"
    return {node.name: ast.literal_eval(stmt.value)
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)
            for stmt in node.body if isinstance(stmt, ast.Assign)
            and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["modules"]}


def commands() -> list[Command]:
    cli = readme_commands() + [["rewrite", "imax(x,x)", "--strategy", s] for s in STRATEGIES]
    return ([Command(shlex.join(argv), ["-m", "levelcanon", *argv], False) for argv in cli]
            + [Command(f"set-up of {name}", ["-c", SETUP_CHILD, *modules], True)
               for name, modules in workload_modules().items()]
            + [Command("first fuzz case after set-up", ["-c", FIRST_CASE_CHILD, "case"], True),
               Command("fuzz set-up + first case", ["-c", FIRST_CASE_CHILD, "set-up"], True)])


def run(src: Path, command: Command, env: dict) -> tuple[float, tuple[str, str, int]]:
    """One process: (seconds, (stdout, stderr, exit code)), the seconds the
    wall time or, if it is timed inside, the ones it printed (and no stdout)."""
    env = {**env, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *command.argv], env=env,
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if command.timed_inside and proc.returncode == 0:
        return float(proc.stdout), ("", proc.stderr, proc.returncode)
    return seconds, (proc.stdout, proc.stderr, proc.returncode)


def measure(trees: dict[str, Path], commands: list[Command], rounds: int, env: dict) -> dict:
    """Per command, per tree: the times of every round, in round order,
    and the (stdout, stderr, exit code) of the first."""
    found = {i: {name: [] for name in trees} for i in range(len(commands))}
    outputs: dict = {}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for i, command in enumerate(commands):
            for name in order:
                seconds, output = run(trees[name], command, env)
                found[i][name].append(seconds)
                outputs.setdefault((i, name), output)
    return {"times": found, "outputs": outputs}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(way: str, commands: list[Command], measured: dict) -> None:
    print(f"\n## {way}")
    print(f"{'command':48} {'old ms (q1-q3)':>22} {'new ms (q1-q3)':>22} {'change':>8} {'wins':>6}")
    for i, command in enumerate(commands):
        times = measured["times"][i]
        a, b = quartiles(times["old"]), quartiles(times["new"])
        wins = sum(y < x for x, y in zip(times["old"], times["new"]))
        differs = [stream for stream, old, new in zip(
            ("stdout", "stderr", "exit code"), measured["outputs"][i, "old"],
            measured["outputs"][i, "new"]) if old != new]
        print(f"{command.label[:48]:48} {a[1] * 1e3:8.1f} ({a[0] * 1e3:5.1f}-{a[2] * 1e3:5.1f}) "
              f"{b[1] * 1e3:8.1f} ({b[0] * 1e3:5.1f}-{b[2] * 1e3:5.1f}) "
              f"{b[1] / a[1] - 1:+8.1%} {wins:>3}/{len(times['new'])}"
              + (f"  {', '.join(differs).upper()} DIFFERS" if differs else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    jobs = commands()
    base = {key: value for key, value in os.environ.items()
            if key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {}
        for name, tree in (("old", args.old), ("new", args.new)):
            copy = Path(scratch, name, "src")
            shutil.copytree(tree / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            trees[name] = copy
        cold = measure(trees, jobs, args.rounds, {**base, "PYTHONDONTWRITEBYTECODE": "1"})
        for copy in trees.values():
            compileall.compile_dir(copy, quiet=1)
        warm = measure(trees, jobs, args.rounds, base)
    print(f"# {args.rounds} rounds per tree; old {args.old}, new {args.new}; "
          f"python {sys.version.split()[0]}")
    report("no bytecode (PYTHONDONTWRITEBYTECODE=1)", jobs, cold)
    report("warm __pycache__", jobs, warm)
    return 0


if __name__ == "__main__":
    sys.exit(main())
