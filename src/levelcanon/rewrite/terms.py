"""First-order terms, patterns, matching and sort checking.

Terms are nested tuples: ``(head, child, child, ...)`` for an application of
the symbol ``head`` and ``("$", name)`` for a pattern variable.  Ground terms
contain no pattern variables.  Sorts are tracked as metadata on symbols and
checked, not encoded in the terms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

Sort = str
BOOL, NAT, NATSET, SUBLEVEL, SLSET, LEVEL = (
    "bool", "nat", "natset", "sublevel", "sublevelset", "level",
)

RTerm = tuple
PVAR_HEAD = "$"


@dataclass(frozen=True)
class Symbol:
    name: str
    args: tuple[Sort, ...]
    result: Sort

    @property
    def arity(self) -> int:
        return len(self.args)


def pvar(name: str) -> RTerm:
    return (PVAR_HEAD, name)


def is_pvar(t: RTerm) -> bool:
    return t[0] == PVAR_HEAD


def app(head: str, *children: RTerm) -> RTerm:
    return (head, *children)


def term_vars(t: RTerm) -> frozenset[str]:
    if is_pvar(t):
        return frozenset((t[1],))
    out: set[str] = set()
    stack = list(t[1:])
    while stack:
        node = stack.pop()
        if is_pvar(node):
            out.add(node[1])
        else:
            stack.extend(node[1:])
    return frozenset(out)


def term_to_str(t: RTerm) -> str:
    """Prefix juxtaposition syntax; compound arguments are parenthesized.

    Printed with an explicit stack of terms and literal strings, so deep
    terms (long numerals) cannot exhaust the Python stack.
    """
    parts: list[str] = []
    todo: list = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            parts.append(node)
        elif is_pvar(node):
            parts.append(node[1])
        else:
            parts.append(node[0])
            for c in reversed(node[1:]):
                todo += (")", c, " (") if len(c) > 1 and not is_pvar(c) else (c, " ")
    return "".join(parts)


def match_args(pats: tuple, kids: tuple, env: dict[str, RTerm]) -> bool:
    """Extend `env` so that each pattern of `pats` instantiates to the term at
    the same position of `kids`; False if some pair does not match.

    A repeated pattern variable only matches syntactically equal arguments.
    """
    for pat, kid in zip(pats, kids):
        stack = [(pat, kid)]
        while stack:
            p, t = stack.pop()
            if p[0] == PVAR_HEAD:
                name = p[1]
                bound = env.get(name)
                if bound is None:
                    env[name] = t
                elif bound != t:
                    return False
            elif p[0] != t[0] or len(p) != len(t):
                return False
            else:
                stack.extend(zip(p[1:], t[1:]))
    return True


def match(pattern: RTerm, term: RTerm) -> Optional[dict[str, RTerm]]:
    """Bindings sigma with pattern[sigma] = term, or None."""
    env: dict[str, RTerm] = {}
    return env if match_args((pattern,), (term,), env) else None


def subst_template(template: RTerm, env: dict[str, RTerm]) -> RTerm:
    if template[0] == PVAR_HEAD:
        return env[template[1]]
    if len(template) == 1:
        return template
    return (template[0], *(subst_template(c, env) for c in template[1:]))


@dataclass(frozen=True)
class RewriteRule:
    lhs: RTerm
    rhs: RTerm

    def __post_init__(self):
        if is_pvar(self.lhs):
            raise ValueError("rule left-hand side must not be a bare pattern variable")
        extra = term_vars(self.rhs) - term_vars(self.lhs)
        if extra:
            raise ValueError(f"right-hand side introduces variables {sorted(extra)}")

    def is_left_linear(self) -> bool:
        seen: set[str] = set()
        stack = [self.lhs]
        while stack:
            node = stack.pop()
            if is_pvar(node):
                if node[1] in seen:
                    return False
                seen.add(node[1])
            else:
                stack.extend(node[1:])
        return True

    def __str__(self) -> str:
        return f"{term_to_str(self.lhs)} --> {term_to_str(self.rhs)}"


class RuleSet(tuple):
    """Rewrite rules in emission order, plus `by_head`: the rules of each
    left-hand-side head symbol (the defined symbols), in the same order."""

    by_head: dict[str, list[RewriteRule]]

    def __new__(cls, rules):
        self = super().__new__(cls, rules)
        self.by_head = {}
        for rule in self:
            self.by_head.setdefault(rule.lhs[0], []).append(rule)
        return self


class SortError(ValueError):
    """A term or rule violates the signature's arities or sorts."""


def infer_sort(
    t: RTerm,
    signature: dict[str, Symbol],
    var_sorts: Optional[dict[str, Sort]] = None,
    expected: Optional[Sort] = None,
) -> Sort:
    """Result sort of `t`, checking arities and argument sorts throughout.

    Pattern variable sorts are recorded in `var_sorts` on first sight and
    must agree on later occurrences; an unseen variable without an expected
    sort is an error.
    """
    if is_pvar(t):
        if var_sorts is None:
            raise SortError(f"pattern variable {t[1]} in a ground-only context")
        known = var_sorts.get(t[1])
        if known is None:
            if expected is None:
                raise SortError(f"cannot infer a sort for variable {t[1]}")
            var_sorts[t[1]] = expected
            return expected
        if expected is not None and known != expected:
            raise SortError(f"variable {t[1]} used at both {known} and {expected}")
        return known
    sym = signature.get(t[0])
    if sym is None:
        raise SortError(f"unknown symbol {t[0]!r}")
    if len(t) - 1 != sym.arity:
        raise SortError(f"{sym.name} expects {sym.arity} arguments, got {len(t) - 1}")
    for child, arg_sort in zip(t[1:], sym.args):
        infer_sort(child, signature, var_sorts, arg_sort)
    if expected is not None and sym.result != expected:
        raise SortError(f"{sym.name} has sort {sym.result}, expected {expected}")
    return sym.result


def check_rule_sorts(rule: RewriteRule, signature: dict[str, Symbol]) -> None:
    """Static well-sortedness: both sides elaborate, with matching sorts."""
    var_sorts: dict[str, Sort] = {}
    lhs_sort = infer_sort(rule.lhs, signature, var_sorts)
    infer_sort(rule.rhs, signature, var_sorts, lhs_sort)
