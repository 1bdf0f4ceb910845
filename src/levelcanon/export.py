"""Self-contained logical-framework-style dump of the rewrite system.

The export lists every symbol as ``name : sort -> ... -> sort``, then the
full rule set as ``lhs --> rhs`` lines in prefix application syntax, and
optionally ends with an encoded query term.  Output is deterministic.
"""

from __future__ import annotations

from typing import Optional

from .levels import Level
from .rewrite.codec import encode_level
from .rewrite.rules import SIGNATURE, builtin_ruleset, rule_dump
from .rewrite.terms import Symbol, term_to_str


def _decl(sym: Symbol) -> str:
    if not sym.args:
        return f"{sym.name} : {sym.result}"
    return f"{sym.name} : {' -> '.join(sym.args)} -> {sym.result}"


def export_framework(t: Optional[Level] = None, paper_literal: bool = False) -> str:
    lines = ["# level rewrite system", "", "# symbols"]
    lines.extend(_decl(sym) for sym in SIGNATURE.values())
    lines.append("")
    lines.append("# rules")
    lines.append(rule_dump(builtin_ruleset(paper_literal)))
    if t is not None:
        lines.append("")
        lines.append("# query")
        lines.append(term_to_str(encode_level(t)))
    return "\n".join(lines) + "\n"
