"""Import hygiene: every name a library module imports is used in that
module, and a CLI process loads only what its command runs.

Package ``__init__`` modules are skipped by the first check: they import
names to re-export them.

A package must not bind a submodule's name to anything but that submodule:
``import levelcanon.normalize as m`` and dotted ``monkeypatch`` paths look the
name up on the package.

The public names of the package and of `levelcanon.rewrite` are pinned
against literal lists, so that adding or removing one shows up as a diff,
and the test oracles of `tests/oracles.py` are not library names.

Beside them, a recursion check: no function in the modules that walk or read
levels or rewrite terms calls itself by name.  Those walks go through
``levels.fold_level`` and ``rewrite.terms.fold_term``, which keep their own
stacks, and the parser keeps a stack of the open nodes, so a level or term of
any depth is safe to pass in; a recursive walk would raise RecursionError on
one a few thousand deep.
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

from process_cost import workload_modules

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


# the only recursions in the library, each bounded by something other than
# the depth of a level or term it is given
BOUNDED_RECURSIONS = {
    # on the generator's size budget: at most 47 deep at max_size 10**5, over
    # 300 levels at each of the seeds 0, 1 and 2
    "harness.py": {"_gen"},
    # on a rule's left side, at most 3 deep in both rule sets
    "rewrite/codegen.py": {"_compile_pattern"},
}


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
    for path in sorted(SRC.rglob("*.py")):
        for call in _self_calls(ast.parse(path.read_text(), str(path))):
            recursive.setdefault(path.relative_to(SRC).as_posix(), set()).add(call.split()[0])
    assert recursive == BOUNDED_RECURSIONS


# what each command may not add to a bare interpreter's modules: only
# `normalize --json` prints JSON; only `rewrite` and `export` load the
# rewrite package, and only a reduction (`rewrite`) its engine, which loads
# `dataclasses` and, through it, `inspect`; and only `fuzz` runs the
# differential harness
_ENGINE = ("levelcanon.rewrite", "dataclasses", "inspect")
_REDUCTION = ("levelcanon.rewrite.engine", "dataclasses", "inspect")
_COMMANDS = [
    (["normalize", "max(imax(x,y),imax(y,x))"], ("json", *_ENGINE)),
    (["normalize", "s(0)", "--json"], _ENGINE),
    (["leq", "s(x)", "x"], ("json", *_ENGINE)),
    (["eq", "imax(x,x)", "x"], ("json", *_ENGINE)),
    (["subst", "max(imax(x,y), z)", "x=0", "z=2"], ("json", *_ENGINE)),
    (["eval", "imax(s(y), s(x))", "--val", "x=0,y=1"], ("json", *_ENGINE)),
    (["rewrite", "imax(x,x)"], ()),
    (["export"], _REDUCTION),
    (["export", "imax(x,x)"], _REDUCTION),
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


def test_the_commands_that_encode_levels_load_the_codec():
    # `rewrite` and `export` encode their level, and a fuzz case reduces one
    for argv in (["rewrite", "imax(x,x)"], ["export"], ["fuzz", "--cases", "1"]):
        assert "levelcanon.rewrite.codec" in _loaded_modules(
            "from levelcanon.cli import run_cli; run_cli(sys.argv[1:])", argv), argv


def test_setup_builds_the_rules_without_the_engine():
    # every workload's set-up as perfbench/run.py's child runs it: building
    # the rule set loads neither the engine nor its compiler, and nothing
    # before a reduction loads `dataclasses`, `inspect` or `json`
    workloads = workload_modules()
    assert "Decide" in workloads and "Fuzz" in workloads and "Cli" in workloads
    unloaded = ("levelcanon.rewrite.engine", "levelcanon.rewrite.codegen", "dataclasses",
                "inspect", "json")
    for name, modules in workloads.items():
        loaded = _loaded_modules("import importlib; [importlib.import_module(m) for m in "
                                 "sys.argv[1:]]; from levelcanon.rewrite.rules import "
                                 "default_rules; default_rules()", list(modules))
        assert "levelcanon.rewrite.rules" in loaded
        assert [m for m in unloaded if m in loaded and m not in modules] == [], name


def test_the_harness_binds_the_codec_when_it_loads():
    # a case calls `soundness_report` by the harness's own global, the one a
    # tracer patches; importing the harness binds it, and loads no engine
    loaded = _loaded_modules(
        "import levelcanon.harness as h; names = vars(h); "
        "assert '__getattr__' not in names; "
        "assert names['soundness_report'] is "
        "sys.modules['levelcanon.rewrite.codec'].soundness_report", [])
    assert "levelcanon.harness" in loaded and "levelcanon.rewrite.engine" not in loaded


def test_only_the_engine_imports_dataclasses():
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == ["rewrite/engine.py"]


def test_public_names_are_pinned():
    # submodules are left out: which of them are package attributes depends
    # on what the process has imported so far
    def public(module):
        return sorted(name for name in dir(module) if not name.startswith("_")
                      and not isinstance(getattr(module, name), types.ModuleType))
    assert public(levelcanon) == [
        "IMax", "Level", "Max", "NameTable", "ParseError", "Repr", "ReprInvariantError",
        "SubA", "SubB", "SubLevel", "Succ", "UnboundVariableError", "Valuation", "Var",
        "VarId", "VarSet", "ZERO", "Zero", "const_depth", "default_grid_bound", "eq_repr",
        "eval_level", "eval_repr", "eval_sub", "find_counterexample_leq", "fold_level",
        "imax_nat", "imax_repr", "imax_sub", "leq_repr", "leq_sub", "level_size",
        "level_vars", "max_repr", "parse_level", "print_level", "print_repr",
        "print_repr_json", "repr_var", "set_delete", "subst_repr", "succ_repr", "succ_sub",
    ]
    assert public(importlib.import_module("levelcanon.rewrite")) == [
        "RTerm", "ReductionReport", "RewriteRule", "RuleSet", "SIGNATURE", "STRATEGIES",
        "SortError", "Strategy", "Symbol", "app", "builtin_ruleset", "check_rule_sorts",
        "confluence_runs", "default_rules", "encode_level", "encode_nat", "encode_repr",
        "encode_sub", "encode_varset", "fold_term", "infer_sort", "is_pvar", "pvar",
        "reduce", "rule_dump", "soundness_report", "term_to_str", "term_vars",
    ]


def test_the_test_oracles_are_not_library_names():
    # they live in tests/oracles.py: only tests ever called them
    oracles = ("enumerate_sublevels", "exhaustive_sublevel_suite", "valuations_on", "match_args",
               "match", "subst_template", "is_left_linear")
    for name in ("levelcanon", "levelcanon.harness", "levelcanon.levels", "levelcanon.rewrite",
                 "levelcanon.rewrite.terms"):
        module = importlib.import_module(name)
        assert [n for n in oracles if hasattr(module, n)] == [], name
    terms = importlib.import_module("levelcanon.rewrite.terms")
    assert [n for n in oracles if hasattr(terms.RewriteRule, n)] == []
