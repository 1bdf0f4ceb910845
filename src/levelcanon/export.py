"""Self-contained logical-framework-style dump of the rewrite system.

The export lists every symbol as ``name : sort -> ... -> sort``, then the
full rule set as ``lhs --> rhs`` lines in prefix application syntax, and
optionally ends with an encoded query term.  Output is deterministic, and
`rules.read_rules` reads it back into the signature and the rule set.
"""

from __future__ import annotations

from typing import Optional

from .levels import Level
from .rewrite.codec import encode_level
from .rewrite.rules import DECLARATIONS, builtin_ruleset, rule_dump
from .rewrite.terms import term_to_str


def export_framework(t: Optional[Level] = None, paper_literal: bool = False) -> str:
    lines = ["# level rewrite system", "", "# symbols", *DECLARATIONS, "", "# rules",
             rule_dump(builtin_ruleset(paper_literal))]
    if t is not None:
        lines.append("")
        lines.append("# query")
        lines.append(term_to_str(encode_level(t)))
    return "\n".join(lines) + "\n"
