"""The size of `src/`, line by line: code, docstring, comment and blank.

    python3 tests/src_size.py

Run it from anywhere; it counts the `src/` beside this directory.  Every
line of each `.py` module falls in one class:

  * docstring: a line of a module, class or function docstring, the span
    `ast` gives its string;
  * comment: outside a docstring, a line whose first non-blank character
    is `#`;
  * blank: outside a docstring, a line of whitespace only;
  * code: every other line.

It prints one row per module and the total.  pytest does not collect this
file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The lines of the module at `path`, by kind."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, str(path)))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main() -> int:
    modules = sorted(SRC.rglob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    width = max(len(path.relative_to(SRC).as_posix()) for path in modules)
    print(f"{'module':<{width}} {'lines':>6} " + " ".join(f"{kind:>9}" for kind in KINDS))
    for path in modules:
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.relative_to(SRC).as_posix():<{width}} {sum(counts.values()):>6} "
              + " ".join(f"{counts[kind]:>9}" for kind in KINDS))
    label = f"total ({len(modules)} modules)"
    print(f"{label:<{width}} {sum(total.values()):>6} "
          + " ".join(f"{total[kind]:>9}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
