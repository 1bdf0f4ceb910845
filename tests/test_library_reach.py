"""Every function and class of the library is one the program can reach.

Code that only tests call belongs in the tests (`tests/oracles.py`), not in
`src/`.  This check reads the source with `ast` and imports nothing.  It
starts from `main`, from every name that `perfbench/*.py` uses and from
every module-level statement of `src/levelcanon` other than an import, and
follows names: a `Name`, an `Attribute`'s attribute or an import alias
reaches each module-level function or class of that name, and a reached
one reaches every name in its body.  Dunder hooks such as `cli.__getattr__`
are run by the interpreter, so they count as reached.

Names are matched by spelling alone, so one use of a name reaches every
definition spelled that way, and the check misses some dead code.  The
interpretive matcher `match` and its `match_args` escaped it while they were
in `rewrite.terms`, only because `perfbench/run.py` has a local variable
named `match`; they are test oracles now, in `tests/oracles.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "levelcanon"
PROGRAM = sorted((ROOT / "perfbench").glob("*.py"))


def _names(node: ast.AST) -> set[str]:
    """The names used under `node`: `Name` ids, attribute names and the
    names that imports bring in."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
    return found


def unreached() -> list[str]:
    """The library's module-level functions and classes that nothing reaches,
    as `module.name`."""
    bodies: dict[str, list[tuple[str, ast.AST]]] = {}
    aliases: dict[str, set[str]] = {}
    todo = {"main"}
    for path in PROGRAM:
        todo |= _names(ast.parse(path.read_text()))
    for path in sorted(LIBRARY.rglob("*.py")):
        where = path.relative_to(LIBRARY.parent).with_suffix("").as_posix().replace("/", ".")
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, []).append((f"{where}.{stmt.name}", stmt))
                if stmt.name.startswith("__") and stmt.name.endswith("__"):
                    todo.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                # an import reaches nothing until its alias is used
                for alias in stmt.names:
                    aliases.setdefault(alias.asname or alias.name, set()).add(alias.name)
            else:
                todo |= _names(stmt)
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo |= aliases.get(name, set())
        for _, stmt in bodies.get(name, ()):
            todo |= _names(stmt)
    return sorted(qualified for name, defs in bodies.items() if name not in seen
                  for qualified, _ in defs)


def test_the_program_reaches_every_library_function_and_class():
    assert unreached() == []
