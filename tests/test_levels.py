from __future__ import annotations

import copy
import pickle
import random
import time

import pytest
from hypothesis import given, settings

from conftest import deep_level_strategy, level_strategy
from oracles import enumerate_sublevels, first_witness, grid, up, valuations_on
from levelcanon import (
    IMax, Max, Succ, UnboundVariableError, Var, ZERO, Zero,
    const_depth, default_grid_bound, eval_level, eval_repr, find_counterexample_leq,
    imax_nat, level_size, level_vars,
)
from levelcanon import SubB, eval_sub, harness
from levelcanon.levels import GRID_LANES, _Lanes
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
    with pytest.raises(UnboundVariableError) as err:
        eval_repr(normalize(Max(x, y)), {0: 1})
    assert err.value.vid == 1
    assert unbound_check() is None


def unbound_check():
    """Each evaluator on a level, representation or atom whose variable 3 is
    unbound, under {x0: 0}, where x0 guards each atom before x3 does: the
    first call that does not raise UnboundVariableError naming 3, and what
    it gave instead."""
    calls = {
        "eval_level(imax(x3, x0))": lambda: eval_level(IMax(Var(3), x), {0: 0}),
        "eval_repr(normalize(imax(x3, x0)))": lambda: eval_repr(normalize(IMax(Var(3), x)),
                                                                {0: 0}),
        "eval_sub(B{x0,x3}+1)": lambda: eval_sub(SubB((0, 3), 1), {0: 0}),
    }
    for name, call in calls.items():
        try:
            return name, call()
        except UnboundVariableError as err:
            if err.vid != 3:
                return name, f"unbound {err.vid}"
    return None


def _unpacked(packed: int, lanes: _Lanes) -> list[int]:
    return [packed >> lanes.width * p & (1 << lanes.width) - 1 for p in range(lanes.count)]


_LEVELS = [harness.gen_level(harness.GenConfig(seed=36, max_size=16), i) for i in range(80)]
# each evaluator, what it evaluates, and one of those over x, y and the unbound Var(3)
_EVALUATED = {
    "eval_level": (eval_level, _LEVELS, Max(x, Var(3))),
    "eval_repr": (eval_repr, [normalize(t) for t in _LEVELS], normalize(Max(x, Var(3)))),
    "eval_sub": (eval_sub, enumerate_sublevels(3, 3), SubB((0, 3), 1)),
}


@pytest.mark.parametrize("name", _EVALUATED)
def test_eval_on_lanes_is_eval_at_each_point(name):
    # of a level by one fold, of its representation by one pass over the atoms
    evaluate, items, unbound = _EVALUATED[name]
    points, columns = grid((0, 1, 2), 3)
    top = 3 + max(map(const_depth, _LEVELS))
    lanes = _Lanes(len(points), top)
    sigma = {v: lanes.pack(column) for v, column in columns.items()}
    for item in items:
        assert _unpacked(evaluate(item, sigma, lanes), lanes) == [
            evaluate(item, point) for point in points], item
    with pytest.raises(UnboundVariableError) as err:
        evaluate(unbound, sigma, lanes)
    assert err.value.vid == 3


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


@pytest.mark.parametrize("kind", [Zero, Succ, Max, IMax, Var])
def test_a_node_stores_only_its_fields(kind):
    slots = [name for cls in kind.__mro__ for name in cls.__dict__.get("__slots__", ())]
    assert sorted(slots) == sorted(kind.__match_args__)


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


def _copies(value):
    pickled = [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return pickled + [copy.copy(value), copy.deepcopy(value)]


def _assert_copies_equal(t):
    for c in _copies(t):
        assert type(c) is type(t) and c == t and hash(c) == hash(t)


def test_levels_pickle_and_copy_at_any_depth():
    numeral = ZERO  # the deepest numeral the parser reads
    for _ in range(10_000):
        numeral = Succ(numeral)
    for t in (ZERO, x, Succ(Succ(ZERO)), Max(ZERO, IMax(Succ(x), ZERO)),
              IMax(Max(x, y), Succ(Max(ZERO, z))), numeral, Max(numeral, ZERO),
              _chain(x, 10_000)):
        _assert_copies_equal(t)


@given(deep_level_strategy())
@settings(max_examples=5, deadline=None)
def test_deep_mixed_chains_pickle_and_copy(t):
    _assert_copies_equal(t)


def test_unbound_variable_error_pickles_and_copies():
    e = UnboundVariableError(3)
    for c in _copies(e):
        assert type(c) is UnboundVariableError and c.vid == 3 and c.args == e.args


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


def _assert_same_witness(t1, t2, bound):
    # equal dicts, not merely both found or both missing
    assert find_counterexample_leq(t1, t2, bound) == first_witness(t1, t2, bound), (t1, t2)


def test_oracle_returns_the_first_witness_on_the_fuzz_stream():
    cfg = harness.GenConfig(seed=707, max_size=50)
    found = 0
    for index in range(300):
        t = harness.gen_level(cfg, index)
        t2 = harness._pair_for(level_size(t), harness._digest(t), 3)  # every variable is below 3
        bound = default_grid_bound(t, t2)
        for lhs, rhs in ((t, t2), (t2, t)):
            _assert_same_witness(lhs, rhs, bound)
            found += find_counterexample_leq(lhs, rhs, bound) is not None
    assert 0 < found < 600


def test_oracle_on_grids_of_one_block_and_more():
    # no variables: a one-point grid
    assert find_counterexample_leq(Succ(ZERO), ZERO, 5) == {}
    assert find_counterexample_leq(ZERO, IMax(Succ(ZERO), ZERO), 5) is None
    # six variables at bound 3: exactly one block
    assert len(list(valuations_on(tuple(range(6)), 3))) == GRID_LANES
    for lhs, rhs in ((Max(x, y), Max(y, z)), (IMax(x, z), Succ(y)), (Succ(Max(x, y)), z)):
        _assert_same_witness(lhs, rhs, 3)
        _assert_same_witness(rhs, lhs, 3)
    # the only witnesses lie near the end of the grid: point 100 of 125
    three = Succ(Succ(Succ(ZERO)))
    assert find_counterexample_leq(x, Max(three, IMax(y, z)), 4) == {0: 4, 1: 0, 2: 0}
    # five variables: 243 points
    u, v = Var(3), Var(4)
    pairs = ((Max(v, IMax(x, u)), Max(Succ(y), z)), (IMax(u, v), Max(x, Max(y, z))),
             (Max(x, Max(y, Max(z, Max(u, v)))), Succ(Max(Max(x, y), Max(z, Max(u, v))))))
    for lhs, rhs in pairs:
        _assert_same_witness(lhs, rhs, 2)
        _assert_same_witness(rhs, lhs, 2)
    # the first witness is point 162
    rhs = Max(Succ(ZERO), IMax(y, Max(z, Max(u, v))))
    assert find_counterexample_leq(x, rhs, 2) == {0: 2, 1: 0, 2: 0, 3: 0, 4: 0}
    _assert_same_witness(x, rhs, 2)


def _max_of(*levels):
    t = levels[-1]
    for left in reversed(levels[:-1]):
        t = Max(left, t)
    return t


@pytest.mark.parametrize("count, bound, blocks", [(5, 6, 7), (6, 4, 5)])
def test_oracle_across_blocks(count, bound, blocks):
    # 7^5 = 16,807 points in blocks of 2,401, and 5^6 = 15,625 in blocks of
    # 3,125: a block fixes the first variable and runs the others
    vs = [Var(i) for i in range(count)]
    first, second, fourth, last = vs[0], vs[1], vs[3], vs[-1]
    assert (bound + 1) ** (count - 1) <= GRID_LANES < (bound + 1) ** count
    rest = [0] * (count - 2)
    cases = [
        # first block: the first witness gives the last variable 2
        (Max(last, IMax(first, fourth)), Max(Succ(second), _max_of(*vs[2:-1])),
         dict(enumerate([0] * (count - 1) + [2]))),
        # a middle block: the first variable is 3, and the witness lies
        # inside the block, with more witnesses after it
        (IMax(first, second), Max(up(ZERO, 2), _max_of(*vs[1:])), dict(enumerate([3, 1] + rest))),
        # the last block: the first variable is at the bound
        (IMax(first, fourth), Max(up(ZERO, bound - 1), _max_of(*vs[1:])),
         dict(enumerate([bound, 0, 0, 1] + [0] * (count - 4)))),
        # no witness
        (Max(first, IMax(second, _max_of(*vs[2:]))), _max_of(*vs), None),
    ]
    for block, (lhs, rhs, witness) in zip((0, 3, blocks - 1), cases):
        assert find_counterexample_leq(lhs, rhs, bound) == witness
        assert witness is None or witness[0] == block
        _assert_same_witness(lhs, rhs, bound)
    # the other way round each pair has witnesses, in the first block
    for lhs, rhs, _ in cases:
        _assert_same_witness(rhs, lhs, bound)


def test_oracle_blocks_fix_the_leading_variables_in_order():
    # 3^9 = 19,683 points in blocks of 2,187: a block fixes the first two
    # variables, and the first witness, x1 = 2 and x2 = 1, is in block (0, 2)
    vs = [Var(i) for i in range(9)]
    lhs, rhs = IMax(vs[1], vs[2]), Max(Succ(vs[0]), _max_of(*vs[2:]))
    assert find_counterexample_leq(lhs, rhs, 2) == dict(enumerate([0, 2, 1] + [0] * 6))
    _assert_same_witness(lhs, rhs, 2)
    _assert_same_witness(rhs, lhs, 2)


@pytest.mark.parametrize("bound, depth", [(2, 125), (2, 126), (0, 127), (0, 128),
                                          (2, 253), (2, 254), (0, 255), (0, 256)])
def test_oracle_on_lanes_either_side_of_a_width(bound, depth):
    # bound + depth is 127 or 128, 255 or 256: the largest value a fold can
    # reach fills a lane's value bits, or needs one more
    pairs = ((up(x, depth), up(y, depth)), (Max(up(x, depth), y), IMax(up(y, depth), x)),
             (up(IMax(x, y), depth), Max(up(y, depth), up(z, depth - 1))),
             (IMax(up(x, depth), z), up(ZERO, depth)))
    for lhs, rhs in pairs:
        _assert_same_witness(lhs, rhs, bound)
        _assert_same_witness(rhs, lhs, bound)
    assert find_counterexample_leq(up(x, depth), up(ZERO, depth), bound) == (
        None if bound == 0 else {0: 1})


def test_oracle_at_bound_zero():
    # one point, every variable 0; with no successors, lanes of one bit
    for lhs, rhs in ((Max(x, y), IMax(y, x)), (IMax(Succ(x), y), ZERO), (Succ(x), y),
                     (ZERO, IMax(x, Succ(y))), (Max(x, IMax(Succ(y), z)), Succ(ZERO))):
        _assert_same_witness(lhs, rhs, 0)
        _assert_same_witness(rhs, lhs, 0)
    assert find_counterexample_leq(Max(x, y), IMax(y, x), 0) is None
    assert find_counterexample_leq(Succ(x), y, 0) == {0: 0, 1: 0}


@pytest.mark.parametrize("lhs, witness", [
    (Succ(_max_of(*(Var(i) for i in range(8)))), {i: 0 for i in range(8)}),
    (Var(4), {i: int(i == 4) for i in range(8)}),
])
def test_oracle_blocks_stay_bounded(lhs, witness):
    # 10^8 points in blocks of 1,000: the witness is point 0, or the first
    # point of the second block, point 1,000
    rhs = _max_of(*(Var(i) for i in range(8) if i != 4))
    start = time.perf_counter()
    assert find_counterexample_leq(lhs, rhs, 9) == witness
    assert time.perf_counter() - start < 1.0


def test_a_negative_bound_is_refused():
    for lhs, rhs in ((Succ(ZERO), ZERO), (x, y)):
        with pytest.raises(ValueError):
            find_counterexample_leq(lhs, rhs, -1)
    for vids in ((), (0, 1)):
        with pytest.raises(ValueError):
            valuations_on(vids, -1)


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
