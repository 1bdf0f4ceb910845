"""Bounded-exhaustive check that level equivalence is equality of
representations, in the small-scope style of Runciman, Naylor & Lindblad
("SmallCheck and Lazy SmallCheck", Haskell Symposium 2008): every level of
at most 7 nodes on the leaves 0, x and y, and every level of at most 6 nodes
on the leaves 0, x, y and z, not a sample of them.

A level's value vector lists its values at the points of a grid {0..b}^k.
By `default_grid_bound` (constant depth + 3) the grid decides <= between any
two levels of a scope when b is its deepest successor stack plus 3: equal
vectors mean equivalent levels, and pointwise <= means <=.
"""

from __future__ import annotations

from itertools import product
from operator import le

import pytest
from oracles import (
    antichains, column_level, column_repr, enumerate_sublevels, grid, wrong_merges,
)

from levelcanon import (
    IMax, Max, Repr, Succ, Var, ZERO, const_depth, leq_repr, level_size, subst_repr,
)
from levelcanon.normalize import normalize
from levelcanon.rewrite import soundness_report


def levels_up_to(size: int, num_vars: int) -> list:
    """Every level of at most `size` nodes on the leaves 0 and Var(0..num_vars-1)."""
    by_size = {1: [ZERO, *map(Var, range(num_vars))]}
    for n in range(2, size + 1):
        by_size[n] = [Succ(t) for t in by_size[n - 1]]
        for left in range(1, n - 1):
            for a, b in product(by_size[left], by_size[n - 1 - left]):
                by_size[n] += (Max(a, b), IMax(a, b))
    return [t for n in sorted(by_size) for t in by_size[n]]


def classes_of(levels: list, columns: dict, width: int) -> dict:
    """The levels' value vectors, each with its one representation; fails
    if the levels of one vector have more than one representation."""
    found = {}
    for t in levels:
        found.setdefault(tuple(column_level(t, columns, width)), set()).add(normalize(t))
    assert [sorted(rs) for rs in found.values() if len(rs) > 1] == []
    return {vec: rs.pop() for vec, rs in found.items()}


def wrong_order(classes: dict) -> list:
    """The ordered pairs of classes where leq_repr is not pointwise <=."""
    return [(classes[v], classes[w]) for v, w in product(classes, repeat=2)
            if leq_repr(classes[v], classes[w]) != all(map(le, v, w))]


def wrong_subst(classes: dict, points: list, columns: dict) -> list:
    """The (r, vid, n), n <= 2, where subst_repr(r, vid, n) lacks r's values with vid set to n."""
    index = {tuple(point.values()): i for i, point in enumerate(points)}
    # moved[vid, n][i]: the index of point i with vid set to n
    moved = {(vid, n): [index[tuple({**point, vid: n}.values())] for point in points]
             for vid, n in product(columns, range(3))}
    return [(r, vid, n) for (vec, r), (vid, n) in product(classes.items(), moved)
            if column_repr(subst_repr(r, vid, n), columns, len(points))
            != [vec[i] for i in moved[vid, n]]]


def test_equivalence_is_equality_on_every_small_level():
    levels = levels_up_to(7, 2)
    points, columns = grid((0, 1), 9)
    assert len(levels) == 8427
    assert max(map(level_size, levels)) == 7
    assert max(map(const_depth, levels)) + 3 == 9

    # classes: the levels of one value vector share one representation, and
    # levels of different vectors have different ones
    classes = classes_of(levels, columns, len(points))
    assert len(classes) == len(set(classes.values())) == 212

    # order: leq_repr is pointwise <= on every ordered pair of classes
    assert wrong_order(classes) == []

    # substitution: subst_repr(r, vid, n) has r's values with vid set to n
    assert wrong_subst(classes, points, columns) == []

    # rewrite path: every level reduces to the encoding of its representation
    assert [t for t in levels if not soundness_report(t)[0]] == []


def test_equivalence_is_equality_on_every_small_level_in_three_variables():
    levels = levels_up_to(6, 3)
    points, columns = grid((0, 1, 2), 8)
    assert len(levels) == 3736
    assert max(map(level_size, levels)) == 6
    assert max(map(const_depth, levels)) + 3 == 8

    classes = classes_of(levels, columns, len(points))
    assert len(classes) == len(set(classes.values())) == 320

    # all 320^2 = 102,400 ordered pairs
    assert wrong_order(classes) == []

    assert wrong_subst(classes, points, columns) == []

    assert [t for t in levels if not soundness_report(t)[0]] == []


@pytest.mark.parametrize("num_vars, max_shift, most, count", [
    (2, 2, 20, 865),  # 20 is every atom of the scope
    (3, 1, 4, 9234),
], ids=["2-vars-shift-2", "3-vars-shift-1-four-atoms"])
def test_no_two_small_representations_mean_the_same_function(num_vars, max_shift, most, count):
    # every antichain of atoms is a representation; two of them with one
    # value vector on {0..max_shift+2}^num_vars would be one function twice
    chains = antichains(enumerate_sublevels(num_vars, max_shift), most)
    points, columns = grid(tuple(range(num_vars)), max_shift + 2)
    seen, collisions = {}, []
    for chain in chains:
        r = Repr(tuple(sorted(chain)))
        vec = tuple(column_repr(r, columns, len(points)))
        if vec in seen:
            collisions.append((seen[vec], r))
        seen.setdefault(vec, r)
    assert collisions == []
    assert len(chains) == count


@pytest.mark.parametrize("num_vars, max_shift, most, count", [
    (2, 1, 12, 118),  # 12 is every atom of the scope
    (3, 0, 3, 152),
], ids=["2-vars-shift-1", "3-vars-shift-0-three-atoms"])
def test_the_operations_equal_one_merge_on_every_small_pair(num_vars, max_shift, most, count):
    # max_repr, imax_repr and succ_repr skip comparisons that cannot change
    # their result; on every (pair of) small antichain(s) they must still
    # equal the maximal atoms of everything their naive statements name
    reprs = [Repr(tuple(sorted(chain)))
             for chain in antichains(enumerate_sublevels(num_vars, max_shift), most)]
    assert len(reprs) == count
    assert list(wrong_merges(reprs)) == []
