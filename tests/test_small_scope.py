"""Bounded-exhaustive check that level equivalence is equality of
representations, in the small-scope style of Runciman, Naylor & Lindblad
("SmallCheck and Lazy SmallCheck", Haskell Symposium 2008): every level of
at most 7 nodes on the leaves 0, x and y, not a sample of them.

A level's value vector lists its values at the points of the grid {0..9}^2.
No level in scope stacks more than 6 successors, so by `default_grid_bound`
(constant depth + 3) the grid decides <= between any two of them: equal
vectors mean equivalent levels, and pointwise <= means <=.
"""

from __future__ import annotations

from itertools import product
from operator import le

from levelcanon import (
    IMax, Max, Succ, Var, ZERO, const_depth, eval_level, eval_repr, leq_repr, level_size,
    subst_repr,
)
from levelcanon.normalize import normalize
from levelcanon.rewrite import soundness_report

SIZE = 7
BOUND = 9
GRID = list(product(range(BOUND + 1), repeat=2))  # (x, y), in row-major order
COLUMNS = {vid: [point[vid] for point in GRID] for vid in (0, 1)}


def levels_up_to(size: int) -> list:
    """Every level of at most `size` nodes on the leaves 0, x and y."""
    by_size = {1: [ZERO, Var(0), Var(1)]}
    for n in range(2, size + 1):
        by_size[n] = [Succ(t) for t in by_size[n - 1]]
        for left in range(1, n - 1):
            for a, b in product(by_size[left], by_size[n - 1 - left]):
                by_size[n] += (Max(a, b), IMax(a, b))
    return [t for n in sorted(by_size) for t in by_size[n]]


def _with(point: tuple, vid: int, n: int) -> int:
    """The grid index of `point` with variable `vid` set to `n`."""
    x, y = (n, point[1]) if vid == 0 else (point[0], n)
    return x * (BOUND + 1) + y


def test_equivalence_is_equality_on_every_small_level():
    levels = levels_up_to(SIZE)
    assert len(levels) == 8427
    assert max(map(level_size, levels)) == SIZE
    assert max(map(const_depth, levels)) + 3 == BOUND

    # classes: the levels of one value vector share one representation, and
    # levels of different vectors have different ones
    found = {}
    for t in levels:
        found.setdefault(tuple(eval_level(t, COLUMNS, len(GRID))), set()).add(normalize(t))
    assert len(found) == 212
    assert [sorted(rs) for rs in found.values() if len(rs) > 1] == []
    classes = {vec: rs.pop() for vec, rs in found.items()}
    assert len(set(classes.values())) == 212

    # order: leq_repr is pointwise <= on every ordered pair of classes
    wrong = [(classes[v], classes[w]) for v, w in product(classes, repeat=2)
             if leq_repr(classes[v], classes[w]) != all(map(le, v, w))]
    assert wrong == []

    # substitution: subst_repr(r, vid, n) has r's values with vid set to n
    wrong = [(r, vid, n) for (vec, r), vid, n in product(classes.items(), (0, 1), range(3))
             if eval_repr(subst_repr(r, vid, n), COLUMNS, len(GRID))
             != [vec[_with(point, vid, n)] for point in GRID]]
    assert wrong == []

    # rewrite path: every level reduces to the encoding of its representation
    assert [t for t in levels if not soundness_report(t)[0]] == []
