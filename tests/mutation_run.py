"""How much of `normalize.py` the fuzz checks: a mutation score.

    python3 tests/mutation_run.py

Run it from anywhere; it measures the `src/` beside this directory.  Every
first-order site of the module gets a mutant under each of three operators:
a relational swap (`<` and `<=`, `>` and `>=`, `==` and `!=`), an int
constant plus one, and `and` and `or` swapped.  Each mutant runs
`run_fuzz(GenConfig(seed=0, max_size=50), 1000)` in its own child
interpreter, JOBS at a time.  The child compiles the mutated module and
installs it under the module's name before `levelcanon` is imported, so the
mutant lives in memory only and nothing is written under `src/`.

A mutant is killed when its fuzz run reports a failure, raises, or runs past
TIMEOUT_S seconds.  The script prints each mutant and how it was killed or
why it survived: its site never runs under the fuzz (an unmutated run, line
by line), or it runs and no case tells the mutant apart.  It ends with the
score.  pytest does not collect this file; it takes a few minutes.
"""

from __future__ import annotations

import ast
import importlib.abc
import importlib.util
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TARGETS = ("levelcanon.normalize",)
SEED, MAX_SIZE, CASES = 0, 50, 1000
JOBS, TIMEOUT_S = 2, 60  # child interpreters at a time; the seconds one may run
CHILD_MEMORY = 1 << 30  # a child's address space, so a runaway mutant stops itself

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}


def module_path(name: str) -> Path:
    return SRC.joinpath(*name.split(".")).with_suffix(".py")


def sites(tree: ast.Module) -> list[tuple[ast.AST, object, str, str]]:
    """Each mutation site of `tree` in source order: (node, where in it, the
    enclosing function, the change in words)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, i, function,
                                  f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, None, function, f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.BoolOp):
            words = "and -> or" if isinstance(node.op, ast.And) else "or -> and"
            found.append((node, None, function, words))
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(tree, "<module>")
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, str(site[1])))


def mutate(site: tuple[ast.AST, object, str, str]) -> None:
    node, where = site[0], site[1]
    if isinstance(node, ast.Compare):
        node.ops[where] = SWAPS[type(node.ops[where])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()


def mutants() -> list[tuple[str, int, str]]:
    """Every mutant as (module, site index, label)."""
    listed = []
    for name in TARGETS:
        path = module_path(name)
        for index, (node, _, function, words) in enumerate(sites(ast.parse(path.read_text()))):
            listed.append((name, index, f"{path.name}:{node.lineno} {function}: {words}"))
    return listed


class MutantFinder(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """Imports module `name` from `code`, its mutated and compiled source."""

    def __init__(self, name: str, code):
        self.name, self.code = name, code

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.name:
            return None
        return importlib.util.spec_from_file_location(fullname, module_path(fullname), loader=self)

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        exec(self.code, module.__dict__)


def fuzz_outcome() -> dict:
    """The fuzz run under whatever module is installed: killed, and how."""
    try:
        from levelcanon.harness import GenConfig, run_fuzz
        report = run_fuzz(GenConfig(seed=SEED, max_size=MAX_SIZE), CASES)
    except Exception as err:
        return {"killed": True, "how": f"raised {type(err).__name__}"}
    if report.ok:
        return {"killed": False, "how": None}
    phases = sorted({failure.phase for failure in report.failures})
    return {"killed": True, "how": f"{len(report.failures)} failures ({', '.join(phases)})"}


def lines_run() -> dict:
    """The lines of each target module that the unmutated fuzz runs."""
    seen = {str(module_path(name)): set() for name in TARGETS}

    def trace(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local(frame, event, arg)
    sys.settrace(trace)
    outcome = fuzz_outcome()
    sys.settrace(None)
    assert not outcome["killed"], outcome
    return {path: sorted(lines) for path, lines in seen.items()}


def child(argv: list[str]) -> None:
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))
    sys.path.insert(0, str(SRC))
    if argv[0] == "--lines":
        print(json.dumps(lines_run()))
        return
    name, index = argv[0], int(argv[1])
    path = module_path(name)
    tree = ast.parse(path.read_text())
    mutate(sites(tree)[index])
    sys.meta_path.insert(0, MutantFinder(name, compile(ast.fix_missing_locations(tree),
                                                       str(path), "exec")))
    print(json.dumps(fuzz_outcome()))


def run_child(args: list[str], timeout: float) -> str:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, __file__, "--child", *args], capture_output=True,
                          text=True, timeout=timeout, env=env, check=True)
    return done.stdout.splitlines()[-1]


def outcome_of(mutant: tuple[str, int, str]) -> dict:
    try:
        return json.loads(run_child([mutant[0], str(mutant[1])], TIMEOUT_S))
    except subprocess.TimeoutExpired:
        return {"killed": True, "how": f"ran past {TIMEOUT_S} s"}
    except subprocess.CalledProcessError as err:
        return {"killed": True, "how": f"child exited {err.returncode}"}


def main() -> int:
    listed = mutants()
    lines = json.loads(run_child(["--lines"], 10 * TIMEOUT_S))
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        outcomes = list(pool.map(outcome_of, listed))
    survived = 0
    for (name, index, label), outcome in zip(listed, outcomes):
        if outcome["killed"]:
            print(f"killed    {label}  [{outcome['how']}]")
            continue
        survived += 1
        node = sites(ast.parse(module_path(name).read_text()))[index][0]
        runs = not set(range(node.lineno, node.end_lineno + 1)).isdisjoint(
            lines[str(module_path(name))])
        why = "runs, and no case tells it apart" if runs else "never runs under the fuzz"
        print(f"survived  {label}  [{why}]")
    print(f"\n{len(listed) - survived} of {len(listed)} mutants killed, {survived} survived "
          f"(run_fuzz(GenConfig(seed={SEED}, max_size={MAX_SIZE}), {CASES}))")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2:])
    else:
        sys.exit(main())
