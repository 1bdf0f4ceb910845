"""Reduction engine: strategies, budgets and step accounting.

Three redex-selection strategies are supported:

  * ``innermost``  — leftmost-innermost (call-by-value), the default;
  * ``outermost``  — leftmost-outermost;
  * ``random``     — a seeded uniform choice among all redex positions.

The rule set is constructor-based and orthogonal, so all strategies reach the
same normal form.  Untraced innermost is one call of the rule set's
compiled evaluator (`RuleSet.evaluator`), generated once per rule set: one
function per defined symbol, called with the normal forms of its arguments,
and compiled on the first call that reaches that symbol (compiling every
symbol up front cost time and the compiler's memory for symbols that a
reduction never calls).
It tests the symbol's rules' left sides in order and builds the matched
right side as nested calls of the generated functions, so each fresh node
is reduced as it is made, and constructor nodes are hash-consed (one
generated function per number of arguments).  The call takes the input's
nodes in the order that checking the input visited them and returns the
normal form, or None when the budget ran out, with the step count.
Innermost reductions take turns, under one lock.  The positional loop
(outermost, random, and innermost with a trace) dispatches through the
compiled matchers (`RuleSet.matchers`) instead: one generated function per
defined head, compiled with its rules' builders on its first call, returns
the first matching rule with its bindings, and the rule's generated builder
instantiates the right side.  The loop builds
every node of its term, the input's included, as an annotated tuple that
carries the node's match and the number of redexes in its subterm, set once,
when the node is built, so the annotations live with the term; the result is
turned back into plain tuples.  Outermost
takes the first redex in preorder, random a seeded uniform draw among them
in preorder, and traced innermost the first in postorder; each choice walks
one path down by the counts, and the step applies the recorded match.  Step
counts are exact rule applications under tree semantics (no sharing).

The innermost evaluator is memoized: the normal form of ``f(args)``
depends only on ``f`` and the normal forms of ``args``, so each distinct
call of a memoized head is computed once and a repeat replays the recorded
result and step cost.  Counts stay tree semantics, and a replay that would
cross the budget stops exactly where re-running the call would have.
Selectors (right sides variables or nullary constructors) and caller-keyed
heads (whose key fixes a memoized caller's) keep no entry; see
`codegen.unmemoized_heads`.  A normal form that no rule matches is made as
a hash-consed node.  Every node and memoized call is in the rule set's
table, which every innermost reduction with that rule set shares, whatever
its input; after a reduction leaves the table above a fixed size, the rule
set binds a new table of the old one's first half.  The table's keys, and
the invariants that make sharing it and halving it sound, are stated once,
in `codegen`'s comment above `_EVALUATION`.
Outermost and random (and innermost with a trace) share nothing, so
confluence sampling still follows genuinely different reduction orders.
"""

from __future__ import annotations

import _thread
import random
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence

from ..printer import join_rope
from .terms import PVAR_HEAD, RTerm, RewriteRule, RuleSet, fold_term, pvar

Strategy = str
STRATEGIES = ("innermost", "outermost", "random")


# a dataclass, though loading `dataclasses` costs a `rewrite` process about
# 10 ms: callers copy a report with one field changed through
# `dataclasses.replace` (perfbench's self-test does)
@dataclass(frozen=True)
class ReductionReport:
    """Equality, hash, repr and pickling read the result through its
    post-order records (`_term_records`), one fold of any depth: CPython
    compares, prints and pickles a nested tuple by recursion, and hashes it
    by C recursion with no depth check."""

    result: RTerm
    steps: int
    budget_exhausted: bool

    def _key(self) -> tuple:
        return _term_records(self.result), self.steps, self.budget_exhausted

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        def node(head: str, kids: list) -> tuple:  # a rope of the tuple's repr
            rope = ["(", repr(head)]
            for kid in kids:
                rope += (", ", kid)
            return (*rope, ")" if kids else ",)")

        result = join_rope(fold_term(self.result, lambda name: repr(pvar(name)), node))
        return (f"{type(self).__qualname__}(result={result}, steps={self.steps!r}, "
                f"budget_exhausted={self.budget_exhausted!r})")

    def __reduce__(self) -> tuple:
        return _unfold_report, self._key()


def _term_records(t: RTerm) -> tuple[tuple, ...]:
    # (head, number of arguments) per application, and a pattern variable as
    # itself, in post-order: equal records are equal terms
    records: list[tuple] = []
    fold_term(t, lambda name: records.append(pvar(name)),
              lambda head, kids: records.append((head, len(kids))))
    return tuple(records)


def _unfold_report(records: tuple[tuple, ...], steps: int, exhausted: bool) -> ReductionReport:
    """The report whose result `_term_records` recorded: each application's
    arguments are the last terms built."""
    built: list[RTerm] = []
    for head, n in records:
        if head == PVAR_HEAD:
            built.append((head, n))
        else:
            split = len(built) - n
            term = (head, *built[split:])
            del built[split:]
            built.append(term)
    return ReductionReport(built[0], steps, exhausted)


def reduce(
    term: RTerm,
    rules: RuleSet,
    strategy: Strategy = "innermost",
    budget: int = 1_000_000,
    seed: int = 0,
    trace: Optional[Callable[[int, tuple[int, ...], RewriteRule], None]] = None,
) -> ReductionReport:
    """Reduce a ground term to normal form within a step budget.

    Every defined-symbol node of `term` must carry as many arguments as its
    rules' left-hand sides.  Budget exhaustion is reported, not raised; the
    result field is only meaningful when ``budget_exhausted`` is false, and
    is then a normal form.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    order = _check_input(term, rules.arity)
    if strategy == "innermost" and trace is None:
        return _reduce_innermost(term, rules, rules.evaluator(), order, budget)
    return _reduce_positional(term, rules.matchers(), strategy, budget, seed, trace)


def _check_input(term: RTerm, arity: dict[str, int]) -> list[RTerm]:
    """Reject pattern variables, and defined-symbol nodes whose arity differs
    from their rules' (a rule would drop or miss arguments).  Returns the
    nodes in the order visited: preorder with the last argument first, so
    reversed, the post-order, left to right."""
    # not `fold_term`: it runs per reduction, and its visit order is the evaluator's input
    order = []
    stack = [term]
    while stack:
        node = stack.pop()
        order.append(node)
        head = node[0]
        if head == PVAR_HEAD:
            raise ValueError("reduce requires a ground term")
        n = arity.get(head)
        if n is not None and n != len(node) - 1:
            raise ValueError(f"{head} takes {n} arguments, got {len(node) - 1}")
        stack.extend(node[1:])
    return order


# Bounded memory: a rule set whose table holds more entries than this after a
# reduction gets a new table of the old one's first half, in insertion order
# (a full table is about 3.7 MB, at about 152 B an entry)
_TABLE_LIMIT = 3 << 13


# Every untraced innermost reduction runs under this one lock: its state is
# its evaluator module's globals, and it raises the interpreter's recursion
# limit to at least 100,000 while it runs (a rewrite chain nests a frame per
# step), then restores it.  Another thread sees the raised limit meanwhile,
# and a limit that it sets then is undone when the reduction ends.
_INNERMOST = _thread.allocate_lock()


def _reduce_innermost(term: RTerm, rules: RuleSet, evaluate, order: list[RTerm],
                      budget: int) -> ReductionReport:
    with _INNERMOST:
        table = rules.table
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 100_000))
        try:
            result, steps = evaluate(order, budget, table)
        finally:
            sys.setrecursionlimit(limit)
        # its entries are in topological order, so its first half is a table
        if len(table) > _TABLE_LIMIT:
            rules.table = dict(islice(table.items(), _TABLE_LIMIT // 2))
    return ReductionReport(term if result is None else result, steps, result is None)


class _Node(tuple):
    """A node the positional loop built, annotated once, when built:
    `found`, the first rule match at the node (``(build, bindings, rule)``)
    or None, and `redexes`, the number of redexes in its subterm."""

    found: Optional[tuple]
    redexes: int


def _node_maker(matchers) -> Callable[[str, Sequence[_Node]], _Node]:
    """`mk(head, kids)`, the positional loop's constructor: the input's
    conversion, the rule builders and the spine rebuild make every node of
    the term with it."""
    def mk(head: str, kids: Sequence[_Node]) -> _Node:
        node = _Node((head, *kids))
        matcher = matchers.get(head)
        node.found = found = matcher(kids) if matcher is not None else None
        node.redexes = (found is not None) + sum(kid.redexes for kid in kids)
        return node
    return mk


def _nth(term: _Node, k: int, postorder: bool) -> tuple[list, _Node]:
    """The k-th redex (from 0) of `term` in preorder or postorder, and the
    spine ``[(node, child index), ...]`` down to it; this walks one path,
    descending by the children's counts."""
    spine = []
    while True:
        if not postorder and term.found is not None:
            if k == 0:
                return spine, term
            k -= 1
        for i, kid in enumerate(term[1:]):
            if k < kid.redexes:
                spine.append((term, i))
                term = kid
                break
            k -= kid.redexes
        else:
            return spine, term  # postorder: the kids hold k redexes


def _rebuild(spine: list, new: _Node, mk) -> _Node:
    """`spine` rebuilt through `mk` with `new` at its foot."""
    for node, i in reversed(spine):
        new = mk(node[0], node[1:i + 1] + (new,) + node[i + 2:])
    return new


def _reduce_positional(
    term: RTerm,
    matchers,
    strategy: Strategy,
    budget: int,
    seed: int,
    trace,
) -> ReductionReport:
    mk = _node_maker(matchers)
    rng = random.Random(seed)
    steps = 0
    current = fold_term(term, None, mk)
    while current.redexes and steps < budget:
        # outermost takes the first redex in preorder, traced innermost the
        # first in postorder, random a uniform draw among them in preorder
        k = rng.choice(range(current.redexes)) if strategy == "random" else 0
        spine, redex = _nth(current, k, postorder=strategy == "innermost")
        build, bindings, rule = redex.found
        if trace is not None:
            trace(steps, tuple(i for _, i in spine), rule)
        current = _rebuild(spine, build(mk, *bindings), mk)
        steps += 1
    result = fold_term(current, None, lambda head, kids: (head, *kids))  # plain tuples
    return ReductionReport(result, steps, current.redexes > 0)
