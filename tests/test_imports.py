"""Import hygiene: every name a library module imports is used in that
module, and a CLI process loads only what its command runs.

Package ``__init__`` modules are skipped by the first check: they import
names to re-export them.

A package must not bind a submodule's name to anything but that submodule:
``import levelcanon.normalize as m`` and dotted ``monkeypatch`` paths look the
name up on the package.

The public names of the package and of `levelcanon.sublevels` are pinned
against literal lists, so that adding or removing one shows up as a diff.

Beside them, a recursion check: no function in the modules that walk or read
levels or rewrite terms calls itself by name.  Those walks go through
``levels.fold_level`` and ``rewrite.terms.fold_term``, which keep their own
stacks, and the parser keeps a stack of the open nodes, so a level or term of
any depth is safe to pass in; a recursive walk would raise RecursionError on
one a few thousand deep.  The one exception is ``rewrite.terms.infer_sort``:
it is top-down, since a variable's sort comes from its parent's declared
argument sort, and it walks only the sides of rules, which are shallow.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import levelcanon

SRC = Path(levelcanon.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_library_modules_use_every_import():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        found = _unused_imports(ast.parse(path.read_text(), str(path)))
        if found:
            unused[str(path.relative_to(SRC))] = found
    assert unused == {}


def test_submodules_are_the_package_attributes_of_their_names():
    shadowed = []
    for package in ("levelcanon", "levelcanon.rewrite"):
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"{package}.{info.name}")
            if getattr(pkg, info.name) is not module:
                shadowed.append(module.__name__)
    assert shadowed == []


# the modules that walk levels (each walk a `fold_level` call) or terms, and the parser
LEVEL_WALKERS = ("levels.py", "normalize.py", "parser.py", "printer.py", "rewrite/codec.py",
                 "rewrite/terms.py")


def _calls_itself(call: ast.AST, name: str) -> bool:
    """`call` is `name(...)` or, in a method, `self.name(...)`."""
    if not isinstance(call, ast.Call):
        return False
    f = call.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "self":
        return f.attr == name
    return isinstance(f, ast.Name) and f.id == name


def _self_calls(tree: ast.Module) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if _calls_itself(node, func.name):
                    found.append(f"{func.name} (line {node.lineno})")
    return found


def test_level_walkers_do_not_recurse():
    recursive = {}
    for name in LEVEL_WALKERS:
        path = SRC / name
        for call in _self_calls(ast.parse(path.read_text(), str(path))):
            recursive.setdefault(name, set()).add(call.split()[0])
    assert recursive == {"rewrite/terms.py": {"infer_sort"}}  # see the docstring


# what each command may not add to a bare interpreter's modules: only
# `normalize --json` prints JSON, only `rewrite` and `export` run the rewrite
# engine (which loads `dataclasses` and, through it, `inspect`), only `export`
# loads `levelcanon.export`, and only `fuzz` runs the differential harness
_ENGINE = ("levelcanon.rewrite", "levelcanon.export", "dataclasses", "inspect")
_COMMANDS = [
    (["normalize", "max(imax(x,y),imax(y,x))"], ("json", *_ENGINE)),
    (["normalize", "s(0)", "--json"], _ENGINE),
    (["leq", "s(x)", "x"], ("json", *_ENGINE)),
    (["eq", "imax(x,x)", "x"], ("json", *_ENGINE)),
    (["subst", "max(imax(x,y), z)", "x=0", "z=2"], ("json", *_ENGINE)),
    (["eval", "imax(s(y), s(x))", "--val", "x=0,y=1"], ("json", *_ENGINE)),
    (["rewrite", "imax(x,x)"], ("levelcanon.export",)),
]


def _loaded_modules(code: str, argv: list[str]) -> set[str]:
    """The modules loaded after `python -c code argv` runs `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import sys; {code}; print(*sys.modules)",
                           *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_leaves_the_harness_unloaded():
    # each command run as the benchmark runs it, against a bare interpreter,
    # so that what `site` preloads does not count
    bare = _loaded_modules("pass", [])
    for argv, unloaded in _COMMANDS:
        added = _loaded_modules("from levelcanon.cli import run_cli; run_cli(sys.argv[1:])",
                                argv) - bare
        assert "levelcanon.cli" in added
        assert [name for name in sorted(added) if name == "levelcanon.harness" or any(
            name == u or name.startswith(u + ".") for u in unloaded)] == [], argv


def test_public_names_are_pinned():
    # submodules are left out: which of them are package attributes depends
    # on what the process has imported so far
    names = sorted(name for name in dir(levelcanon) if not name.startswith("_")
                   and not isinstance(getattr(levelcanon, name), types.ModuleType))
    assert names == [
        "IMax", "Level", "Max", "NameTable", "ParseError", "Repr", "ReprInvariantError",
        "SubA", "SubB", "SubLevel", "Succ", "UnboundVariableError", "Valuation", "Var",
        "VarId", "VarSet", "ZERO", "Zero", "const_depth", "default_grid_bound", "eq_repr",
        "eval_level", "eval_repr", "eval_sub", "export_framework", "find_counterexample_leq",
        "fold_level", "imax_nat", "imax_repr", "imax_sub", "insert_sub", "leq_repr",
        "leq_sub", "level_size", "level_vars", "max_repr", "parse_level", "print_level",
        "print_repr", "print_repr_json", "repr_var", "repr_zero", "set_delete",
        "subst_repr", "succ_repr", "succ_sub",
    ]
    assert levelcanon.sublevels.__all__ == [
        "VarSet", "SubA", "SubB", "SubLevel",
        "set_delete", "eval_sub", "leq_sub", "succ_sub", "subst_sub", "imax_sub",
    ]
