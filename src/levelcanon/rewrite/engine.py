"""Reduction engine: strategies, budgets and step accounting.

Three redex-selection strategies are supported:

  * ``innermost``  — leftmost-innermost (call-by-value), the default;
  * ``outermost``  — leftmost-outermost;
  * ``random``     — a seeded uniform choice among all redex positions.

The rule set is constructor-based and orthogonal, so all strategies reach the
same normal form.  Every strategy dispatches through the rule set's compiled
matchers (`RuleSet.matchers`): one generated function per defined head tests
its rules' left sides in order, and the matched rule's generated builder
instantiates the right side.  Innermost builds through its memoized
evaluator, which reduces each fresh node as it is made.  The positional loop
(outermost, random, and innermost with a trace) keeps one redex index over
the current term: each node's match and the number of redexes in its
subterm, recorded once, when the node is built.  Outermost takes the first
redex in preorder, random a seeded uniform draw among them in preorder, and
traced innermost the first in postorder; each choice walks one path down by
the counts, and the step applies the recorded match.  Step counts are exact
rule applications under tree semantics (no sharing).

The innermost evaluator is memoized within each call: the normal form of
``f(args)`` depends only on ``f`` and the normal forms of ``args``, so each
distinct call is computed once and a repeat replays the recorded result and
step cost.  Counts stay tree semantics, and a replay that would cross the
budget stops exactly where re-running the call would have.  Outermost and
random (and innermost with a trace) share nothing, so confluence sampling
still follows genuinely different reduction orders.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .terms import PVAR_HEAD, RTerm, RewriteRule, RuleSet

Strategy = str
STRATEGIES = ("innermost", "outermost", "random")


@dataclass(frozen=True)
class ReductionReport:
    result: RTerm
    steps: int
    budget_exhausted: bool


class _BudgetExceeded(Exception):
    pass


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
    matchers = rules.matchers()  # rejects a head whose rules differ in arity
    _check_input(term, rules.by_head)
    if strategy == "innermost" and trace is None:
        return _reduce_innermost(term, matchers, budget)
    return _reduce_positional(term, matchers, strategy, budget, seed, trace)


def _check_input(term: RTerm, by_head) -> None:
    """Reject pattern variables, and defined-symbol nodes whose arity differs
    from their rules' (a rule would drop or miss arguments); the rules of a
    head all take one number of arguments."""
    stack = [term]
    while stack:
        node = stack.pop()
        head = node[0]
        if head == PVAR_HEAD:
            raise ValueError("reduce requires a ground term")
        rules = by_head.get(head)
        if rules is not None and len(rules[0].lhs) != len(node):
            raise ValueError(f"{head} takes {len(rules[0].lhs) - 1} arguments, "
                             f"got {len(node) - 1}")
        stack.extend(node[1:])


def _reduce_innermost(term: RTerm, matchers, budget: int) -> ReductionReport:
    get_matcher = matchers.get
    steps = 0
    # (head, *ids of normal kids) -> (normal form, tree steps it took).  Every
    # kid is a value held here (or inside one), so its id stays valid, and
    # equal normal forms are one object.
    memo: dict[tuple, tuple[RTerm, int]] = {}
    # rewrite chains nest one Python frame per step at a given position;
    # only ever raise the limit so parallel reductions cannot interfere
    if sys.getrecursionlimit() < 100_000:
        sys.setrecursionlimit(100_000)

    def rewrite_head(head: str, kids: tuple) -> RTerm:
        nonlocal steps
        key = (head, *map(id, kids))
        hit = memo.get(key)
        if hit is not None:
            result, cost = hit
            if steps + cost > budget:
                steps = budget  # where re-running the call would have stopped
                raise _BudgetExceeded
            steps += cost
            return result
        start = steps
        matcher = get_matcher(head)
        found = matcher(kids) if matcher is not None else None
        if found is None:
            result = (head, *kids)
        else:
            if steps >= budget:
                raise _BudgetExceeded
            steps += 1
            # bound subterms are already normal; the builder hands every
            # fresh node to rewrite_head, which reduces it on the spot
            build, bindings, _ = found
            result = build(rewrite_head, *bindings)
        memo[key] = (result, steps - start)
        return result

    def nf(t: RTerm) -> RTerm:
        if len(t) == 1:
            return rewrite_head(t[0], ())
        return rewrite_head(t[0], tuple(nf(c) for c in t[1:]))

    try:
        result = nf(term)
        return ReductionReport(result, steps, False)
    except _BudgetExceeded:
        return ReductionReport(term, steps, True)
    finally:
        # the closures above form a reference cycle; without this the memo
        # would live on until a full garbage collection
        memo.clear()


class _RedexIndex:
    """Where the redexes of the current term are, for the positional loop.

    An entry per node, keyed by ``id(node)``: ``(match or None, redexes in
    the node's subterm, node)``, the node being the keepalive for its id.
    The input term is entered once, by `sweep`; after that each node is
    entered, and matched, as it is built: `mk` is the rule builders'
    constructor, and `replace` rebuilds the spine above a rewritten redex.
    Entries of nodes that left the term stay until the entries outnumber
    twice those kept at the last sweep, which then keeps only the nodes
    reachable from the term, so memory follows the term, not the steps.
    """

    def __init__(self, matchers, term: RTerm):
        self.matchers = matchers
        self.entries: dict[int, tuple[Optional[tuple], int, RTerm]] = {}
        self.sweep(term)

    def enter(self, node: RTerm, kids: tuple) -> RTerm:
        """Match `node`, whose arguments `kids` are entered, and record it."""
        entries = self.entries
        matcher = self.matchers.get(node[0])
        found = matcher(kids) if matcher is not None else None
        below = sum(entries[id(kid)][1] for kid in kids)
        entries[id(node)] = (found, (found is not None) + below, node)
        return node

    def mk(self, head: str, kids: tuple) -> RTerm:
        return self.enter((head, *kids), kids)

    def sweep(self, term: RTerm) -> None:
        """Keep the entries of the nodes reachable from `term`, entering any
        that has none, and drop the rest."""
        old, entries = self.entries, {}
        self.entries = entries
        stack = [term]
        while stack:
            node = stack[-1]
            pending = [kid for kid in node[1:] if id(kid) not in entries]
            if pending:
                stack += pending
                continue
            stack.pop()
            if id(node) not in entries:
                entry = old.get(id(node))
                if entry is None:
                    self.enter(node, node[1:])
                else:
                    entries[id(node)] = entry
        self.limit = 2 * len(entries) + 1024

    def nth(self, term: RTerm, k: int, postorder: bool) -> tuple[list, RTerm]:
        """The k-th redex (from 0) of `term` in preorder or postorder, and
        the spine ``[(node, child index), ...]`` down to it; this walks one
        path, descending by the children's counts."""
        entries = self.entries
        spine = []
        while True:
            if not postorder and entries[id(term)][0] is not None:
                if k == 0:
                    return spine, term
                k -= 1
            for i, kid in enumerate(term[1:]):
                n = entries[id(kid)][1]
                if k < n:
                    spine.append((term, i))
                    term = kid
                    break
                k -= n
            else:
                return spine, term  # postorder: the kids hold k redexes

    def replace(self, spine: list, new: RTerm) -> RTerm:
        """Rebuild `spine` with `new` at its foot, entering each rebuilt node."""
        for node, i in reversed(spine):
            new = self.mk(node[0], node[1:i + 1] + (new,) + node[i + 2:])
        return new


def _reduce_positional(
    term: RTerm,
    matchers,
    strategy: Strategy,
    budget: int,
    seed: int,
    trace,
) -> ReductionReport:
    index = _RedexIndex(matchers, term)
    rng = random.Random(seed)
    steps = 0
    current = term
    while True:
        n = index.entries[id(current)][1]
        if n == 0:
            return ReductionReport(current, steps, False)
        # outermost takes the first redex in preorder, traced innermost the
        # first in postorder, random a uniform draw among them in preorder
        k = rng.choice(range(n)) if strategy == "random" else 0
        if steps >= budget:
            return ReductionReport(current, steps, True)
        spine, redex = index.nth(current, k, postorder=strategy == "innermost")
        build, bindings, rule = index.entries[id(redex)][0]
        if trace is not None:
            trace(steps, tuple(i for _, i in spine), rule)
        current = index.replace(spine, build(index.mk, *bindings))
        steps += 1
        if len(index.entries) > index.limit:
            index.sweep(current)
