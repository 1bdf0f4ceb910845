"""The library's process-wide caches are the ones the tests empty.

`conftest.process_caches` finds every `lru_cache` wrapper bound at the top
level of an imported `levelcanon` module, and the autouse fixture empties
them around each test.  A cache made anywhere else (on a method, inside a
function, or held in a container) would escape that scan and carry entries
from one test into the next.  This check reads the source with `ast` and
names each place an `lru_cache` is applied: on a module-level function, or
as the value of a module-level name, it must be one the scan finds; anywhere
else it fails.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from conftest import process_caches

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "levelcanon"


def cache_sites() -> tuple[list[str], list[str]]:
    """The module-level names that `lru_cache` wrappers are bound to, as
    `module.name`, and every other use of `lru_cache`, as `path:line`.

    A module-level `name = lru_cache(...)` with no positional argument, such
    as `normalize._memo`, is a decorator, not yet a cache: applying it makes
    one, and is checked as `lru_cache` itself is."""
    named, elsewhere = [], []
    for path in sorted(LIBRARY.rglob("*.py")):
        module = path.relative_to(LIBRARY.parent).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text())
        makers = {"lru_cache"}
        is_maker = lambda node: (isinstance(node, ast.Name) and node.id in makers
                                 or isinstance(node, ast.Attribute) and node.attr == "lru_cache")
        placed = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in stmt.decorator_list:
                    maker = deco.func if isinstance(deco, ast.Call) else deco
                    if is_maker(maker):
                        named.append(f"{module}.{stmt.name}")
                        placed.add(maker)
            elif (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
                  and is_maker(stmt.value.func) and len(stmt.targets) == 1
                  and isinstance(stmt.targets[0], ast.Name)):
                placed.add(stmt.value.func)
                if stmt.value.args:
                    named.append(f"{module}.{stmt.targets[0].id}")
                else:
                    makers.add(stmt.targets[0].id)
        elsewhere += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if is_maker(node) and isinstance(node.ctx, ast.Load) and node not in placed]
    return named, elsewhere


def test_the_fixture_empties_every_cache_of_the_library():
    named, elsewhere = cache_sites()
    assert elsewhere == []
    caches = [getattr(importlib.import_module(module), name)
              for module, _, name in (qualified.rpartition(".") for qualified in named)]
    found = {id(cache) for cache in process_caches()}
    assert caches and [name for name, cache in zip(named, caches) if id(cache) not in found] == []
