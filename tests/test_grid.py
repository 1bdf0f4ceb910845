"""The grid two searches share (`levels.Grid`).

A fuzz case asks one grid about both directions of its pair.  A grid must
give each direction the witness a fresh int-bound search gives, whichever
direction is asked first, and fold each level once per block that some
query reaches.  It answers only for its own two levels.
"""

from __future__ import annotations

import pytest

from levelcanon import Max, Succ, Var, ZERO, levels
from levelcanon.harness import GenConfig, gen_level
from levelcanon.levels import Grid, default_grid_bound, find_counterexample_leq, level_facts


def grid_of(t1, t2, bound):
    """The grid `find_counterexample_leq(t1, t2, bound)` builds itself."""
    found, _, depth = level_facts(Max(t1, t2))
    return Grid(t1, t2, bound, tuple(sorted(found)), depth)


def test_a_shared_grid_gives_the_fresh_searches_witnesses_in_either_order():
    multi_block = late = 0
    for index in range(600):
        t1 = gen_level(GenConfig(seed=41, max_size=50, num_vars=6), index)
        t2 = gen_level(GenConfig(seed=42, max_size=50, num_vars=6), index)
        bound = default_grid_bound(t1, t2)
        fresh = find_counterexample_leq(t1, t2, bound), find_counterexample_leq(t2, t1, bound)
        forward = grid_of(t1, t2, bound)
        assert (find_counterexample_leq(t1, t2, forward),
                find_counterexample_leq(t2, t1, forward)) == fresh, (t1, t2)
        reverse = grid_of(t1, t2, bound)
        assert (find_counterexample_leq(t2, t1, reverse),
                find_counterexample_leq(t1, t2, reverse)) == fresh[::-1], (t1, t2)
        multi_block += forward.lanes.count < forward.side ** len(forward.vids)
        late += len(forward._blocks) > 1
    # grids of more than GRID_LANES points (five or six variables on a side
    # of 5 or more), and those where some query reached a block after the first
    assert (multi_block, late) == (185, 68)


def pair_apart_in_a_late_block():
    """max(3, x1, ..., x5) and x0 over six variables, bound 4: 5 blocks of
    5**5 points, one for each value of x0.  The first level is above the
    second at once, in block 0, and the second above the first only at
    x0 = 4, in the last block."""
    low = Succ(Succ(Succ(ZERO)))
    for vid in range(1, 6):
        low = Max(low, Var(vid))
    return low, Var(0)


def test_a_reverse_query_folds_only_the_blocks_the_forward_one_never_reached(monkeypatch):
    low, x0 = pair_apart_in_a_late_block()
    grid = grid_of(low, x0, 4)
    assert (grid.lanes.count, grid.side ** len(grid.vids)) == (5 ** 5, 5 ** 6)
    folds = []
    evaluate = levels.eval_level
    monkeypatch.setattr(levels, "eval_level",
                        lambda t, *args: folds.append(t) or evaluate(t, *args))
    assert find_counterexample_leq(low, x0, grid) == dict.fromkeys(range(6), 0)
    assert folds == [low, x0]
    assert find_counterexample_leq(x0, low, grid) == {0: 4, **dict.fromkeys(range(1, 6), 0)}
    assert folds == [low, x0] * 5
    # both answers again, from the values the grid holds
    assert find_counterexample_leq(low, x0, grid) == dict.fromkeys(range(6), 0)
    assert find_counterexample_leq(x0, low, grid) == {0: 4, **dict.fromkeys(range(1, 6), 0)}
    assert len(folds) == 10
    monkeypatch.undo()
    assert find_counterexample_leq(x0, low, 4) == {0: 4, **dict.fromkeys(range(1, 6), 0)}


def test_a_grid_without_a_witness_folds_each_level_once_per_block(monkeypatch):
    low, x0 = pair_apart_in_a_late_block()
    high = Max(low, x0)
    grid = grid_of(low, high, 4)
    folds = []
    evaluate = levels.eval_level
    monkeypatch.setattr(levels, "eval_level",
                        lambda t, *args: folds.append(t) or evaluate(t, *args))
    assert find_counterexample_leq(low, high, grid) is None
    assert folds == [low, high] * 5
    assert find_counterexample_leq(high, low, grid) == {0: 4, **dict.fromkeys(range(1, 6), 0)}
    assert len(folds) == 10


def test_a_grid_refuses_a_negative_bound_and_a_level_not_its_own():
    x, y = Var(0), Var(1)
    with pytest.raises(ValueError, match="grid bound -1 is negative"):
        Grid(x, y, -1, (0, 1), 0)
    grid = Grid(x, y, 2, (0, 1), 0)
    # an equal level is not the grid's own: the grid checks with `is`
    for t1, t2 in ((Var(0), y), (x, Var(1)), (x, x), (y, y), (Succ(x), y)):
        with pytest.raises(ValueError, match="own two levels"):
            find_counterexample_leq(t1, t2, grid)
    assert find_counterexample_leq(y, x, grid) == {0: 0, 1: 1}
