"""A model check of the rewrite rules one rule at a time.

Each symbol of `RULE_TEXT` means a Python value or function, and a rule
holds when both sides mean the same on every instance of its variables
whose left side meets the preconditions.  A rule set is sound for the
algebra when all of its rules hold (Baader & Nipkow, *Term Rewriting and All
That*, ch. 3); this checks that on every instance of a small domain, as
SmallCheck does.  The meanings share no code with `normalize` or
`sublevels`: a level is its vector of values at the valuations of `GRID`.

Domain: naturals 0..2; natsets the subsets of {0, 1} plus {2} and {0, 1, 2};
the 12 atoms over variables 0 and 1 with shift at most 1; the 52 antichains
of at most two of them, and their levels.  Instances build atoms beyond
those (variable 2, shift up to 3), so the grid takes three variables, each
valued 0..5.  That refutes every `leqSL` instance that the comparison
theorem refutes: with the other variables at 1, an A-atom whose variable is
at k + 2 <= 4 exceeds a B-atom, or an A-atom of another variable, of shift
k <= 2 (values 0..3 would not).
"""

from __future__ import annotations

import functools
import itertools
import operator

import pytest

from levelcanon.rewrite import SIGNATURE, builtin_ruleset, default_rules, infer_sort
from levelcanon.rewrite.rules import RULE_TEXT
from levelcanon.rewrite.terms import fold_term

RULES = default_rules()
LITERAL = builtin_ruleset(paper_literal=True)

GRID = list(itertools.product(range(6), repeat=3))
_INDEX = {rho: i for i, rho in enumerate(GRID)}


def _value(atom: tuple, rho: tuple) -> int:
    if not all(rho[v] for v in atom[1]):  # the guard set
        return 0
    return rho[atom[2]] + atom[3] if atom[0] == "A" else atom[2]


@functools.cache
def vector(atoms: tuple) -> tuple:
    """The level max(atoms), 0 when empty, as its values at `GRID`."""
    return tuple(max((_value(u, rho) for u in atoms), default=0) for rho in GRID)


@functools.cache
def _leq(u: tuple, v: tuple) -> bool:
    return all(map(operator.le, vector((u,)), vector((v,))))


def _max(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


@functools.cache
def _imax(a: tuple, b: tuple) -> tuple:
    """imax pointwise: 0 where b is 0, else the max."""
    return tuple(map(operator.mul, map(max, a, b), map(bool, b)))


@functools.cache
def _moved(y: int, n: int):
    return operator.itemgetter(*(_INDEX[rho[:y] + (n,) + rho[y + 1:]] for rho in GRID))


def _subst(a: tuple, y: int, n: int) -> tuple:
    """The level `a` with the constant n for variable y."""
    return _moved(y, n)(a)


def _set(items) -> tuple:
    return tuple(sorted(set(items)))


def _insert(e: tuple, v: tuple) -> tuple:
    """The antichain `e` with atom `v` inserted: v is dropped if an atom of e
    dominates it, and otherwise drops every atom it dominates."""
    if any(_leq(v, u) for u in e):
        return e
    return _set([u for u in e if not _leq(u, v)] + [v])


def _ite(c, u, v):
    return u if c else v


# each symbol's meaning, under the comment that heads its declaration
MEANINGS = {
    "# booleans": {
        "true": lambda: True, "false": lambda: False,
        "and": lambda a, b: a and b, "or": lambda a, b: a or b, "not": operator.not_,
    },
    "# if-then-else, one symbol per result sort that the rules need": {
        "iteL": _ite, "iteNS": _ite, "iteSLS": _ite,
    },
    "# unary naturals": {
        "zeroN": lambda: 0, "succN": lambda n: n + 1, "plus": operator.add, "maxN": max,
        "leqN": operator.le, "eqN": operator.eq, "ltN": operator.lt,
    },
    # a natset is its increasing tuple; ordSetN is the lexicographic order
    "# sorted sets of naturals (cons appears only in patterns and normal forms)": {
        "nilN": lambda: (), "consN": lambda x, q: (x, *q),
        "addN": lambda e, x: _set(e + (x,)), "unionN": lambda e, f: _set(e + f),
        "memN": lambda x, e: x in e,
        "subsetN": lambda e, f: set(e) <= set(f),
        "eqSetN": operator.eq, "ordSetN": operator.le, "ltSetN": operator.lt,
        "delN": lambda e, y: tuple(x for x in e if x != y),
    },
    # an atom is its syntax, whose tuple order (A before B, then the fields)
    # is the storage order; leqSL compares the atoms' values
    "# sublevels and their orders": {
        "A": lambda e, x, s: ("A", e, x, s), "B": lambda e, s: ("B", e, s),
        "ordSL": operator.le, "ltSL": operator.lt, "eqSL": operator.eq, "leqSL": _leq,
    },
    # a set of atoms is its sorted tuple
    "# sorted sets of sublevels": {
        "nilSL": lambda: (), "consSL": lambda u, q: (u, *q),
        "addSL": lambda q, u: _set(q + (u,)),
        "succSL": lambda q: _set(u[:-1] + (u[-1] + 1,) for u in q),
        "maxHelper": _insert,
        "maxHelperGo": lambda b1, b2, u, e, v: _insert((u, *e), v),
    },
    # ruleL is imax; ruleHelper and ruleSL are imax of an atom's level;
    # evalS and evalL put the constant n for the variable y
    "# levels and the representation embedder": {
        "zeroL": lambda: vector(()), "succL": lambda a: tuple(map((1).__add__, a)),
        "maxL": _max, "ruleL": _imax, "varL": lambda x: tuple(rho[x] for rho in GRID),
        "maxS": vector, "ruleHelper": lambda u, t: _imax(vector((u,)), t),
        "ruleSL": lambda u, v: _imax(vector((u,)), vector((v,))),
        "evalS": lambda u, y, n: _subst(vector((u,)), y, n), "evalL": _subst,
    },
}
MEANING = {symbol: f for group in MEANINGS.values() for symbol, f in group.items()}


def _antichain(atoms: tuple) -> bool:
    return all(u < v and not _leq(u, v) and not _leq(v, u)
               for u, v in itertools.combinations(atoms, 2))


# what a node of a left side must meet, as (its head, the comment of
# `RULE_TEXT` whose claim it formalizes, a test of its arguments' meanings)
PRECONDITIONS = {
    "sorted natset": ("consN",
                      "# sorted sets of naturals (cons appears only in patterns and normal forms)",
                      lambda x, q: not q or x < q[0]),
    # the restricted atoms that the comparison theorem assumes
    "A-atom variable in its set": ("A", "# sublevel comparison, one rule per theorem case",
                                   lambda e, x, s: x in e),
    "B-atom shift at least 1": ("B", "# sublevel comparison, one rule per theorem case",
                                lambda e, s: s >= 1),
    "sorted antichain": ("consSL", "# sorted sets of sublevels",
                         lambda u, q: _antichain((u, *q))),
    # `maxHelperGo b1 b2 u e v` stands for `maxHelper (consSL u e) v`
    "maxHelperGo comparisons": ("maxHelperGo",
                                "# dispatch on both comparisons so the single recursive call sits in",
                                lambda b1, b2, u, e, v: b1 == _leq(v, u) and b2 == _leq(u, v)),
    "maxHelperGo antichain": ("maxHelperGo",
                              "# dispatch on both comparisons so the single recursive call sits in",
                              lambda b1, b2, u, e, v: _antichain((u, *e))),
}
_ALL = tuple(PRECONDITIONS.values())

_SMALL = [(), (0,), (1,), (0, 1)]
ATOMS = [("A", e, x, s) for e in _SMALL for x in e for s in (0, 1)] + [("B", e, 1) for e in _SMALL]
ANTICHAINS = [(), *((u,) for u in ATOMS),
              *(pair for pair in itertools.combinations(sorted(ATOMS), 2) if _antichain(pair))]
DOMAINS = {
    "bool": [False, True],
    "nat": [0, 1, 2],
    "natset": [*_SMALL, (2,), (0, 1, 2)],
    "sublevel": ATOMS,
    "sublevelset": ANTICHAINS,
    "level": [vector(e) for e in ANTICHAINS],
}


class _Unmet(Exception):
    pass


def _meaning(term: tuple, env: dict, preconditions=()):
    tests: dict[str, list] = {}
    for symbol, _, test in preconditions:
        tests.setdefault(symbol, []).append(test)

    def node(head: str, kids: list):
        if not all(test(*kids) for test in tests.get(head, ())):
            raise _Unmet
        return MEANING[head](*kids)
    return fold_term(term, env.__getitem__, node)


def check(rule, preconditions=_ALL) -> tuple[int, dict | None]:
    """The number of instances of `rule` whose left side meets
    `preconditions`, up to the first on which the sides differ, and that
    instance (None if there is none)."""
    sorts: dict[str, str] = {}
    infer_sort(rule.lhs, SIGNATURE, sorts)
    met = 0
    for values in itertools.product(*(DOMAINS[sort] for sort in sorts.values())):
        env = dict(zip(sorts, values))
        try:
            lhs = _meaning(rule.lhs, env, preconditions)
        except _Unmet:
            continue
        met += 1
        if lhs != _meaning(rule.rhs, env):
            return met, env
    return met, None


_checked = functools.cache(check)


def _declared_under() -> dict[str, str]:
    """Each symbol of `RULE_TEXT` with the last comment above its declaration."""
    under, comment = {}, None
    for line in RULE_TEXT.splitlines():
        if line.startswith("#"):
            comment = line
        elif " : " in line:
            under[line.split(" : ")[0]] = comment
    return under


def test_the_meanings_and_preconditions_are_tied_to_the_rule_text():
    assert len(ATOMS) == 12 and len(ANTICHAINS) == 52
    assert {symbol: comment for comment, group in MEANINGS.items() for symbol in group} \
        == _declared_under()
    assert MEANING.keys() == SIGNATURE.keys()
    lines = RULE_TEXT.splitlines()
    assert all(comment in lines for _, comment, _ in PRECONDITIONS.values())


def test_every_default_rule_holds_on_every_instance():
    failures = {str(rule): env for rule in RULES if (env := _checked(rule)[1]) is not None}
    assert failures == {}


def test_no_rule_holds_vacuously():
    counts = {rule: _checked(rule)[0] for rule in {*RULES, *LITERAL}}
    assert [str(rule) for rule, met in counts.items() if met == 0] == []
    assert sum(counts[rule] for rule in RULES) == 33_467


_PINNED = {
    "varL": {"x": 1},
    "succL": {"u": ("A", (0,), 0, 0), "q": ()},
    "maxHelper": {"e": (("B", (0,), 1),), "u": ("A", (0, 1), 0, 0), "v": ("A", (0,), 0, 0)},
    "evalS": {"e": (0, 1), "x": 0, "y": 0, "s": 0, "n": 1},
}


def test_the_published_forms_fail_on_exactly_their_four_heads():
    failing = [rule for rule in LITERAL if _checked(rule)[1] is not None]
    assert sorted(rule.lhs[0] for rule in failing) == sorted(_PINNED)
    for rule in failing:
        env = _PINNED[rule.lhs[0]]
        assert _meaning(rule.lhs, env, _ALL) != _meaning(rule.rhs, env), rule


_A0, _A1 = ("A", (0,), 0, 0), ("A", (0,), 0, 1)


@pytest.mark.parametrize("name, head, index, env", [
    ("sorted natset", "addN", 1, {"y": 0, "q": (0,), "x": 0}),  # (0, 0) is no set
    ("A-atom variable in its set", "leqSL", 2, {"s": 0, "e": (), "f": (), "y": 0, "k": 0}),
    ("B-atom shift at least 1", "leqSL", 1, {"e": (), "s": 0, "f": (0,), "k": 0}),
    ("sorted antichain", "addSL", 1, {"v": _A0, "q": (_A0,), "u": _A0}),
    ("maxHelperGo comparisons", "maxHelperGo", 0, {"b": False, "u": _A0, "e": (), "v": _A1}),
    ("maxHelperGo antichain", "maxHelperGo", 0,
     {"b": False, "u": _A0, "e": (_A0,), "v": ("A", (0, 1), 0, 0)}),
])
def test_each_precondition_is_needed(name, head, index, env):
    # the instance meets every other precondition and the sides differ on it
    rule = RULES.by_head[head][index]
    others = tuple(pre for key, pre in PRECONDITIONS.items() if key != name)
    assert _meaning(rule.lhs, env, others) != _meaning(rule.rhs, env)
    with pytest.raises(_Unmet):
        _meaning(rule.lhs, env, _ALL)
