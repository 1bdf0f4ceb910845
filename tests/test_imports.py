"""Import hygiene: every name a library module imports is used in that
module, and the CLI imports only what all of its commands need.

Package ``__init__`` modules are skipped by the first check: they import
names to re-export them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_the_harness_unloaded():
    # only `levelcanon fuzz` runs the differential harness; every other
    # command's process should not pay for importing it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, levelcanon.cli; print('levelcanon.harness' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
