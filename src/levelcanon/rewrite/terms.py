"""First-order terms, patterns, matching and sort checking.

Terms are nested tuples: ``(head, child, child, ...)`` for an application of
the symbol ``head`` and ``("$", name)`` for a pattern variable.  Ground terms
contain no pattern variables.  Sorts are tracked as metadata on symbols and
checked, not encoded in the terms themselves.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, TypeVar

from ..printer import join_rope

T = TypeVar("T")
Sort = str

RTerm = tuple
PVAR_HEAD = "$"


class Symbol(NamedTuple):
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


def fold_term(t: RTerm, var: Callable[[str], T], node: Callable[[str, list[T]], T]) -> T:
    """The value of `t` computed bottom-up: `var(name)` for a pattern variable
    and `node(head, [argument values])` for an application.

    It keeps its own stack, so a term of any depth folds without recursion,
    and it calls back in post-order, left to right.
    """
    # preorder with the last argument first; reversed, that is the post-order
    order = []
    todo = [t]
    while todo:
        term = todo.pop()
        order.append(term)
        if term[0] != PVAR_HEAD:
            todo.extend(term[1:])
    values = []
    for term in reversed(order):
        if term[0] == PVAR_HEAD:
            values.append(var(term[1]))
        else:
            split = len(values) + 1 - len(term)
            kids = values[split:]
            del values[split:]
            values.append(node(term[0], kids))
    return values[0]


def term_vars(t: RTerm) -> frozenset[str]:
    found: set[str] = set()
    fold_term(t, found.add, lambda head, kids: None)
    return frozenset(found)


def _print_node(head: str, kids: list) -> object:
    # a rope: a string for a variable or a constant, a tuple for an application
    if not kids:
        return head
    rope = [head]
    for kid in kids:
        rope += (" (", kid, ")") if type(kid) is tuple else (" ", kid)
    return tuple(rope)


def term_to_str(t: RTerm) -> str:
    """Prefix juxtaposition syntax; compound arguments are parenthesized."""
    return join_rope(fold_term(t, str, _print_node))


# a NamedTuple cannot define __new__, so the checked constructor is a subclass's
class _RewriteRule(NamedTuple):
    lhs: RTerm
    rhs: RTerm


class RewriteRule(_RewriteRule):
    __slots__ = ()

    def __new__(cls, lhs: RTerm, rhs: RTerm):
        if is_pvar(lhs):
            raise ValueError("rule left-hand side must not be a bare pattern variable")
        extra = term_vars(rhs) - term_vars(lhs)
        if extra:
            raise ValueError(f"right-hand side introduces variables {sorted(extra)}")
        return super().__new__(cls, lhs, rhs)

    def __str__(self) -> str:
        return f"{term_to_str(self.lhs)} --> {term_to_str(self.rhs)}"


class RuleSet(tuple):
    """Rewrite rules in emission order, plus `by_head`: the rules of each
    left-hand-side head symbol (the defined symbols), in the same order, and
    `arity`: the number of arguments each defined symbol takes.
    The rules compile two ways, each on first use and once per rule set:
    `matchers()` for the positional strategies, `evaluator()` for innermost
    reduction.  `table` is the store that the rule set's innermost
    reductions share (see `evaluator`).

    Building a rule set checks it: the rules of a head must all take one
    number of arguments, and every right side must apply the head to that
    many; the compiled code relies on both.  ValueError otherwise."""

    by_head: dict[str, list[RewriteRule]]
    arity: dict[str, int]
    table: dict

    def __new__(cls, rules):
        self = super().__new__(cls, rules)
        self.by_head, self.arity = {}, {}
        for rule in self:
            head, n = rule.lhs[0], len(rule.lhs) - 1
            self.by_head.setdefault(head, []).append(rule)
            if self.arity.setdefault(head, n) != n:
                raise ValueError(f"the rules of {head!r} take different numbers of arguments")

        def check(head: str, kids: list) -> None:
            n = self.arity.get(head, len(kids))
            if n != len(kids):
                raise ValueError(f"the rules of {head!r} take different numbers of "
                                 f"arguments: {n} on their left sides, {len(kids)} in {rule}")

        for rule in self:
            fold_term(rule.rhs, lambda name: None, check)
        self.table = {}
        self._matchers = self._evaluator = None
        return self

    def matchers(self) -> dict[str, Callable]:
        """Each defined head's compiled matcher, built on first use and kept
        on this rule set.

        ``matchers()[head](kids)`` takes the argument tuple of a `head` node
        (as many arguments as the head's rules take) and tests the rules'
        left sides in order, so the first rule that matches wins; a repeated
        pattern variable matches only equal terms.  It returns None, or
        ``(build, bindings, rule)`` for that rule: `bindings` are the terms
        bound to the rule's pattern variables in the order of their first
        occurrence in the left side, and ``build(mk, *bindings)``
        instantiates the right side bottom-up, calling ``mk(head, kids)``
        for every node it constructs.
        """
        if self._matchers is None:
            from .codegen import compile_matchers
            self._matchers = compile_matchers(self.by_head)
        return self._matchers

    def evaluator(self) -> Callable:
        """The compiled innermost evaluator, built on first use and kept on
        this rule set.

        ``evaluator()(order, budget, table)`` runs one reduction and returns
        ``(normal form, steps)``, or ``(None, steps)`` with ``steps ==
        budget`` when the budget ran out.  `order` is the input's nodes in
        preorder with the last argument first; the evaluator applies them
        in reverse, each to the normal forms of its arguments.  A defined
        head's generated function tests its rules' left sides in order (the
        first rule that matches wins, and a repeated pattern variable matches
        only equal terms) and builds that rule's right side as nested calls
        of the generated functions of its nodes, so what it builds is
        normal; every other node is hash-consed.  A rule application is one
        step.

        Nodes and the calls of memoized heads (all but selectors and
        caller-keyed heads, `codegen.unmemoized_heads`) are memoized in
        `table`, a call's entry as ``(normal form, steps it took)`` and a
        node's as ``(node, 0)``.  A repeated call replays its steps, and one
        that would cross the budget stops at `budget`, where re-running it
        would have.  The table may outlive the reduction and serve the next;
        `reduce` passes this rule set's.  Its keys and the invariants that
        make that sound are stated in `codegen`'s comment above
        `_EVALUATION`.  The generated functions are made once; a reduction's
        state lives in their module, so one reduction runs at a time:
        `reduce` runs each under the engine's lock, which every innermost
        reduction shares.
        """
        if self._evaluator is None:
            from .codegen import compile_evaluator
            self._evaluator = compile_evaluator(self.by_head)
        return self._evaluator


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
    sort is an error.  One `fold_term`, whose value is a subterm's head
    symbol or variable name, so the node that holds a variable fixes its sort.
    """
    def node(head: str, kids: list) -> Symbol:
        sym = signature.get(head)
        if sym is None:
            raise SortError(f"unknown symbol {head!r}")
        if len(kids) != sym.arity:
            raise SortError(f"{sym.name} expects {sym.arity} arguments, got {len(kids)}")
        for kid, arg_sort in zip(kids, sym.args):
            _sort_at(kid, arg_sort, var_sorts)
        return sym

    return _sort_at(fold_term(t, str, node), expected, var_sorts)


def _sort_at(value, expected: Optional[Sort], var_sorts: Optional[dict[str, Sort]]) -> Sort:
    """The sort of a subterm, given as its head symbol or its variable name,
    at a position of sort `expected` (None at a root without one)."""
    if isinstance(value, Symbol):
        if expected is not None and value.result != expected:
            raise SortError(f"{value.name} has sort {value.result}, expected {expected}")
        return value.result
    if var_sorts is None:
        raise SortError(f"pattern variable {value} in a ground-only context")
    known = var_sorts.get(value)
    if known is None:
        if expected is None:
            raise SortError(f"cannot infer a sort for variable {value}")
        var_sorts[value] = expected
        return expected
    if expected is not None and known != expected:
        raise SortError(f"variable {value} used at both {known} and {expected}")
    return known


def check_rule_sorts(rule: RewriteRule, signature: dict[str, Symbol]) -> None:
    """Static well-sortedness: both sides elaborate, with matching sorts."""
    var_sorts: dict[str, Sort] = {}
    lhs_sort = infer_sort(rule.lhs, signature, var_sorts)
    infer_sort(rule.rhs, signature, var_sorts, lhs_sort)
