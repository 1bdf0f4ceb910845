from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import level_strategy
from levelcanon import (
    IMax, Max, Succ, UnboundVariableError, Var, ZERO, Zero,
    const_depth, default_grid_bound, eval_level, eval_repr, find_counterexample_leq,
    imax_nat, level_vars,
)
from levelcanon import harness
from levelcanon.levels import GRID_BLOCK, valuations_on
from levelcanon.normalize import normalize

x, y, z = Var(0), Var(1), Var(2)


def test_imax_nat():
    assert imax_nat(5, 0) == 0
    assert imax_nat(0, 3) == 3
    assert imax_nat(2, 1) == 2


def test_eval_paper_counterexample_pair():
    sigma = {0: 0, 1: 1}  # x = 0, y = 1
    assert eval_level(Succ(IMax(y, x)), sigma) == 1
    assert eval_level(IMax(Succ(y), Succ(x)), sigma) == 2


def test_eval_zero_and_connectives():
    assert eval_level(ZERO, {}) == 0
    assert eval_level(Max(Succ(ZERO), ZERO), {}) == 1
    assert eval_level(IMax(Succ(ZERO), ZERO), {}) == 0


def test_eval_unbound_variable_names_the_id():
    with pytest.raises(UnboundVariableError) as err:
        eval_level(Max(x, y), {0: 1})
    assert err.value.vid == 1
    assert "1" in str(err.value)
    with pytest.raises(UnboundVariableError):
        eval_level(Max(x, y), {0: [1, 2]}, 2)
    for sigma, width in (({0: 1}, None), ({0: [1, 2]}, 2)):
        with pytest.raises(UnboundVariableError) as err:
            eval_repr(normalize(Max(x, y)), sigma, width)
        assert err.value.vid == 1


@given(level_strategy(max_leaves=6))
@settings(max_examples=150)
def test_eval_on_columns_is_eval_at_each_point(t):
    # of a level by one fold, of its representation by one pass over the atoms
    vids = tuple(sorted(level_vars(t)))
    points = list(valuations_on(vids, 2))
    columns = {v: [sigma[v] for sigma in points] for v in vids}
    assert list(eval_level(t, columns, len(points))) == [eval_level(t, s) for s in points]
    r = normalize(t)
    assert eval_repr(r, columns, len(points)) == [eval_repr(r, s) for s in points]


def test_level_vars():
    assert level_vars(ZERO) == frozenset()
    assert level_vars(Max(x, IMax(y, x))) == frozenset({0, 1})
    assert level_vars(Succ(z)) == frozenset({2})


def test_levels_are_immutable_and_match_their_fields():
    t = Max(x, Succ(ZERO))
    for field in ("left", "right", "vid"):
        with pytest.raises(AttributeError):
            setattr(t, field, y)
    with pytest.raises(AttributeError):
        del t.left
    match t:
        case Max(Var(vid), Succ(Zero())):
            assert vid == 0
        case _:
            pytest.fail("no match")
    assert t == Max(Var(0), Succ(Zero())) and hash(t) == hash(Max(Var(0), Succ(Zero())))
    assert t != IMax(x, Succ(ZERO)) and t != Max(y, Succ(ZERO)) and t != "x"


def _chain(base, depth: int):
    t = base
    for i in range(depth):
        t = (Succ(t), Max(t, y), IMax(z, t))[i % 3]
    return t


def test_hash_eq_and_repr_take_chains_ten_thousand_deep():
    a, b = _chain(x, 10_000), _chain(x, 10_000)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _chain(y, 10_000) and a != _chain(x, 9_999)
    assert {a: 1}[b] == 1
    t = x
    for _ in range(10_000):
        t = Succ(t)
    assert repr(t) == "Succ(child=" * 10_000 + "Var(vid=0)" + ")" * 10_000


def test_find_counterexample_paper_pair():
    t1, t2 = Succ(IMax(y, x)), IMax(Succ(y), Succ(x))
    # t1 is below t2 everywhere, so the witness runs the other way
    assert find_counterexample_leq(t1, t2, 3) is None
    witness = find_counterexample_leq(t2, t1, 1)
    assert witness == {0: 0, 1: 1}
    assert eval_level(t2, witness) > eval_level(t1, witness)


def test_find_counterexample_none_cases():
    assert find_counterexample_leq(x, Max(x, y), 3) is None
    lhs, rhs = Max(IMax(x, y), x), Max(x, y)
    assert find_counterexample_leq(lhs, rhs, 3) is None
    assert find_counterexample_leq(rhs, lhs, 3) is None


def _first_witness(t1, t2, bound):
    """The oracle's contract, one valuation at a time: the first point of the
    grid, in `valuations_on` order, where t1's value exceeds t2's."""
    vids = tuple(sorted(level_vars(t1) | level_vars(t2)))
    for sigma in valuations_on(vids, bound):
        if eval_level(t1, sigma) > eval_level(t2, sigma):
            return sigma
    return None


def _assert_same_witness(t1, t2, bound):
    # equal dicts, not merely both found or both missing
    assert find_counterexample_leq(t1, t2, bound) == _first_witness(t1, t2, bound), (t1, t2)


def test_oracle_returns_the_first_witness_on_the_fuzz_stream():
    cfg = harness.GenConfig(seed=707, max_size=50)
    found = 0
    for index in range(300):
        t = harness.gen_level(cfg, index)
        t2 = harness._pair_for(t, harness._digest(t))
        bound = default_grid_bound(t, t2)
        for lhs, rhs in ((t, t2), (t2, t)):
            _assert_same_witness(lhs, rhs, bound)
            found += find_counterexample_leq(lhs, rhs, bound) is not None
    assert 0 < found < 600


def test_oracle_on_grids_of_one_block_and_more():
    # no variables: a one-point grid
    assert find_counterexample_leq(Succ(ZERO), ZERO, 5) == {}
    assert find_counterexample_leq(ZERO, IMax(Succ(ZERO), ZERO), 5) is None
    # three variables at bound 3: exactly one block
    assert len(list(valuations_on((0, 1, 2), 3))) == GRID_BLOCK
    for lhs, rhs in ((Max(x, y), Max(y, z)), (IMax(x, z), Succ(y)), (Succ(Max(x, y)), z)):
        _assert_same_witness(lhs, rhs, 3)
        _assert_same_witness(rhs, lhs, 3)
    # the only witnesses lie in the second block: point 100 of 125
    three = Succ(Succ(Succ(ZERO)))
    assert find_counterexample_leq(x, Max(three, IMax(y, z)), 4) == {0: 4, 1: 0, 2: 0}
    # five variables: 243 points, four blocks
    u, v = Var(3), Var(4)
    pairs = ((Max(v, IMax(x, u)), Max(Succ(y), z)), (IMax(u, v), Max(x, Max(y, z))),
             (Max(x, Max(y, Max(z, Max(u, v)))), Succ(Max(Max(x, y), Max(z, Max(u, v))))))
    for lhs, rhs in pairs:
        _assert_same_witness(lhs, rhs, 2)
        _assert_same_witness(rhs, lhs, 2)
    # the first witness is point 162, in the third block
    rhs = Max(Succ(ZERO), IMax(y, Max(z, Max(u, v))))
    assert find_counterexample_leq(x, rhs, 2) == {0: 2, 1: 0, 2: 0, 3: 0, 4: 0}
    _assert_same_witness(x, rhs, 2)


@given(level_strategy())
@settings(max_examples=150)
def test_find_counterexample_reflexive(t):
    assert find_counterexample_leq(t, t, 2) is None


def test_const_depth_and_grid_bound():
    assert const_depth(ZERO) == 0
    assert const_depth(Succ(Succ(x))) == 2
    assert const_depth(Succ(Max(x, Succ(y)))) == 2
    assert default_grid_bound(Succ(Succ(x)), y) == 5


def _check_law(lhs, rhs, rng):
    vids = tuple(sorted(level_vars(lhs) | level_vars(rhs)))
    for _ in range(25):
        sigma = {v: rng.randint(0, 4) for v in vids}
        assert eval_level(lhs, sigma) == eval_level(rhs, sigma), (lhs, rhs, sigma)


@given(level_strategy(max_leaves=5), level_strategy(max_leaves=5), level_strategy(max_leaves=5))
@settings(max_examples=120, deadline=None)
def test_imax_distribution_laws(u, v, w):
    """The five semantic laws used to push imax toward the leaves."""
    rng = random.Random(17)
    _check_law(IMax(u, Max(v, w)), Max(IMax(u, v), IMax(u, w)), rng)
    _check_law(IMax(Max(u, v), w), Max(IMax(u, w), IMax(v, w)), rng)
    _check_law(IMax(u, IMax(v, w)), Max(IMax(u, w), IMax(v, w)), rng)
    _check_law(IMax(u, ZERO), ZERO, rng)
    _check_law(IMax(u, Succ(v)), Max(u, Succ(v)), rng)
    _check_law(Succ(IMax(v, w)), Max(Succ(w), IMax(Succ(v), w)), rng)


@given(level_strategy(max_leaves=6))
@settings(max_examples=150)
def test_eval_total_and_deterministic(t):
    vids = tuple(sorted(level_vars(t)))
    for sigma in valuations_on(vids, 1):
        assert eval_level(t, sigma) == eval_level(t, sigma)
