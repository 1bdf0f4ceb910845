"""What a `levelcanon` process costs, for two source trees side by side.

    python3 tests/process_cost.py OLD_TREE NEW_TREE [--rounds N]

Each tree is a directory holding `src/levelcanon`, such as a `git archive`
export.  The commands are the README's CLI examples (the `levelcanon` lines
of the first code block that has any) and `rewrite "imax(x,x)"` under each
strategy.  Each tree's `src` is copied to a scratch directory, and every
command runs as a fresh `python -m levelcanon` process, ROUNDS times per
tree, the trees taking turns to run first, in two ways:

  * no bytecode: PYTHONDONTWRITEBYTECODE=1 on a copy without `__pycache__`,
    so every module is compiled in every process;
  * warm bytecode: the copy's `__pycache__` written by `compileall` first.

It prints, per way and command, each tree's median wall time with its
quartiles (`statistics.quantiles(n=4, method="inclusive")`), the new tree's
change of the median, and in how many rounds the new tree was faster.  A
command whose stdout or exit code differs between the trees is flagged.
pytest does not collect this file; it takes a few minutes.
"""

from __future__ import annotations

import argparse
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

README = Path(__file__).resolve().parents[1] / "README.md"
STRATEGIES = ("innermost", "outermost", "random")


def readme_commands() -> list[list[str]]:
    """The arguments of each `levelcanon` line of the first README code
    block that has any, comments dropped."""
    for block in README.read_text().split("```")[1::2]:
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [words[1:] for words in lines if words[:1] == ["levelcanon"]]
        if commands:
            return commands
    raise SystemExit("no levelcanon commands in the README")


def run(src: Path, argv: list[str], env: dict) -> tuple[float, str, int]:
    """One process: (wall seconds, stdout, exit code)."""
    env = {**env, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "levelcanon", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc.stdout, proc.returncode


def measure(trees: dict[str, Path], commands: list[list[str]], rounds: int,
            env: dict) -> dict:
    """Per command, per tree: the wall times of every round, in round order,
    and the (stdout, exit code) of the first."""
    found = {i: {name: [] for name in trees} for i in range(len(commands))}
    outputs: dict = {}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for i, argv in enumerate(commands):
            for name in order:
                seconds, out, code = run(trees[name], argv, env)
                found[i][name].append(seconds)
                outputs.setdefault((i, name), (out, code))
    return {"times": found, "outputs": outputs}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(way: str, commands: list[list[str]], measured: dict) -> None:
    print(f"\n## {way}")
    print(f"{'command':48} {'old ms (q1-q3)':>22} {'new ms (q1-q3)':>22} {'change':>8} {'wins':>6}")
    for i, argv in enumerate(commands):
        times = measured["times"][i]
        a, b = quartiles(times["old"]), quartiles(times["new"])
        wins = sum(y < x for x, y in zip(times["old"], times["new"]))
        same = measured["outputs"][i, "old"] == measured["outputs"][i, "new"]
        text = " ".join(shlex.quote(word) for word in argv)
        print(f"{text[:48]:48} {a[1] * 1e3:8.1f} ({a[0] * 1e3:5.1f}-{a[2] * 1e3:5.1f}) "
              f"{b[1] * 1e3:8.1f} ({b[0] * 1e3:5.1f}-{b[2] * 1e3:5.1f}) "
              f"{b[1] / a[1] - 1:+8.1%} {wins:>3}/{len(times['new'])}"
              + ("" if same else "  OUTPUT DIFFERS"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    commands = readme_commands() + [["rewrite", "imax(x,x)", "--strategy", s] for s in STRATEGIES]
    base = {key: value for key, value in os.environ.items()
            if key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {}
        for name, tree in (("old", args.old), ("new", args.new)):
            copy = Path(scratch, name, "src")
            shutil.copytree(tree / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            trees[name] = copy
        cold = measure(trees, commands, args.rounds, {**base, "PYTHONDONTWRITEBYTECODE": "1"})
        for copy in trees.values():
            compileall.compile_dir(copy, quiet=1)
        warm = measure(trees, commands, args.rounds, base)
    print(f"# {args.rounds} rounds per tree; old {args.old}, new {args.new}; "
          f"python {sys.version.split()[0]}")
    report("no bytecode (PYTHONDONTWRITEBYTECODE=1)", commands, cold)
    report("warm __pycache__", commands, warm)
    return 0


if __name__ == "__main__":
    sys.exit(main())
