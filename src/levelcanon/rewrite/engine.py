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
evaluator, which reduces each fresh node as it is made; the positional
strategies build plain tuples and splice them in at the redex position.
Step counts are exact rule applications under tree semantics (no sharing).

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
    _check_input(term, rules.by_head)
    if strategy == "innermost" and trace is None:
        return _reduce_innermost(term, rules, budget)
    return _reduce_positional(term, rules, strategy, budget, seed, trace)


def _check_input(term: RTerm, by_head) -> None:
    """Reject pattern variables, and defined-symbol nodes whose arity differs
    from their rules' (a rule would drop or miss arguments)."""
    stack = [term]
    while stack:
        node = stack.pop()
        head = node[0]
        if head == PVAR_HEAD:
            raise ValueError("reduce requires a ground term")
        for rule in by_head.get(head, ()):
            if len(rule.lhs) != len(node):
                raise ValueError(f"{head} takes {len(rule.lhs) - 1} arguments, "
                                 f"got {len(node) - 1}")
        stack.extend(node[1:])


def _reduce_innermost(term: RTerm, rules: RuleSet, budget: int) -> ReductionReport:
    get_matcher = rules.matchers().get
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


def _match_at(matchers, node: RTerm) -> Optional[tuple[Callable, tuple, RewriteRule]]:
    matcher = matchers.get(node[0])
    return matcher(node[1:]) if matcher is not None else None


def _construct(head: str, kids: tuple) -> RTerm:
    return (head, *kids)


class _RedexScanner:
    """Position scans with a redex-free cache.

    Rewriting happens in a context, so a subterm that contains no redex can
    never acquire one; such subterms are remembered by object identity (the
    cache doubles as a keepalive so ids are never recycled while cached) and
    skipped by later scans.  The scans keep explicit stacks, so a term may be
    as deep as a numeral's successor tower.
    """

    def __init__(self, matchers):
        self.matchers = matchers
        self.clean: dict[int, RTerm] = {}
        # id -> (whether the node is a redex, redexes in its subterm, the
        # node itself as the keepalive for its id)
        self.counts: dict[int, tuple[bool, int, RTerm]] = {}

    def first_redex(self, term: RTerm, outermost: bool) -> Optional[tuple[int, ...]]:
        """Leftmost redex position, testing each node before its children
        (outermost) or after them (innermost)."""
        matchers, clean = self.matchers, self.clean
        if id(term) in clean:
            return None
        if outermost and _match_at(matchers, term) is not None:
            return ()
        stack = [(term, enumerate(term[1:]))]
        path: list[int] = []  # child indices down to stack[-1]
        while stack:
            node, kids = stack[-1]
            for i, child in kids:
                if id(child) in clean:
                    continue
                if outermost and _match_at(matchers, child) is not None:
                    return (*path, i)
                stack.append((child, enumerate(child[1:])))
                path.append(i)
                break
            else:
                stack.pop()
                if not outermost and _match_at(matchers, node) is not None:
                    return tuple(path)
                clean[id(node)] = node
                if path:
                    path.pop()
        return None

    def redex_count(self, term: RTerm) -> int:
        """Number of redexes in `term`, memoized per subterm identity."""
        counts = self.counts
        stack = [term]
        while stack:
            node = stack[-1]
            if id(node) in counts:
                stack.pop()
                continue
            pending = [c for c in node[1:] if id(c) not in counts]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            here = _match_at(self.matchers, node) is not None
            counts[id(node)] = (here, here + sum(counts[id(c)][1] for c in node[1:]), node)
        return counts[id(term)][1]

    def nth_redex(self, term: RTerm, k: int) -> tuple[int, ...]:
        """Position of the k-th redex (from 0) in preorder; after
        `redex_count(term)`, this walks one path down."""
        path = []
        while True:
            if self.counts[id(term)][0]:
                if k == 0:
                    return tuple(path)
                k -= 1
            for i, child in enumerate(term[1:]):
                n = self.counts[id(child)][1]
                if k < n:
                    path.append(i)
                    term = child
                    break
                k -= n


def _subterm(term: RTerm, path: tuple[int, ...]) -> RTerm:
    for i in path:
        term = term[i + 1]
    return term


def _replace(term: RTerm, path: tuple[int, ...], new: RTerm) -> RTerm:
    spine = []
    for i in path:
        spine.append((term, i))
        term = term[i + 1]
    for node, i in reversed(spine):
        new = node[: i + 1] + (new,) + node[i + 2:]
    return new


def _reduce_positional(
    term: RTerm,
    rules: RuleSet,
    strategy: Strategy,
    budget: int,
    seed: int,
    trace,
) -> ReductionReport:
    matchers = rules.matchers()
    scanner = _RedexScanner(matchers)
    rng = random.Random(seed)
    steps = 0
    current = term
    while True:
        if strategy == "random":
            # uniform over the redex positions in preorder, without listing them
            n = scanner.redex_count(current)
            pos = scanner.nth_redex(current, rng.choice(range(n))) if n else None
        else:
            pos = scanner.first_redex(current, outermost=strategy == "outermost")
        if pos is None:
            return ReductionReport(current, steps, False)
        if steps >= budget:
            return ReductionReport(current, steps, True)
        build, bindings, rule = _match_at(matchers, _subterm(current, pos))
        if trace is not None:
            trace(steps, pos, rule)
        current = _replace(current, pos, build(_construct, *bindings))
        steps += 1
