from __future__ import annotations

import copy
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import deep_level_strategy, level_strategy
from oracles import enumerate_sublevels, valuations_on
from levelcanon import (
    IMax, Max, Repr, SubA, SubB, Succ, Var, ZERO,
    const_depth, eq_repr, eval_level, eval_repr, find_counterexample_leq, imax_repr,
    leq_repr, leq_sub, level_vars, max_repr, repr_var, subst_repr, succ_repr,
)
from levelcanon.normalize import ReprInvariantError, normalize

x, y, a, b = Var(0), Var(1), Var(2), Var(3)


def _assert_equiv(r, t, bound=3):
    """Oracle check: the representation means exactly the level."""
    vids = tuple(sorted(level_vars(t) | {v for u in r.atoms for v in u.varset}))
    for sigma in valuations_on(vids, bound):
        assert eval_repr(r, sigma) == eval_level(t, sigma), (r, t, sigma)


def test_repr_validates_its_invariants():
    with pytest.raises(ReprInvariantError):
        Repr((SubA((0,), 0, 1), SubA((0,), 0, 0)))  # not sorted
    with pytest.raises(ReprInvariantError):
        Repr((SubA((0,), 0, 0), SubA((0,), 0, 1)))  # comparable pair
    Repr((SubA((0,), 0, 0), SubA((1,), 1, 0)))


def test_repr_refuses_what_is_not_an_atom():
    # an atom's layout is read directly by the operations, so a look-alike
    # tuple or any other value is refused by name, before any comparison
    look_alike = (0, (0,), 0, 0, frozenset({0}))
    with pytest.raises(ReprInvariantError) as err:
        Repr((look_alike,))
    assert str(err.value) == f"not an atom: {look_alike!r}"
    with pytest.raises(ReprInvariantError, match="^not an atom: 'x'$"):
        Repr((SubA((0,), 0, 0), "x"))
    with pytest.raises(ReprInvariantError, match="^not an atom: None$"):
        Repr((None,))


def test_repr_invariant_messages():
    with pytest.raises(ReprInvariantError) as err:
        Repr((SubB((), 1), SubA((0,), 0, 0)))
    assert str(err.value) == (
        "atoms not strictly sorted: (SubB(varset=(), shift=1), SubA(varset=(0,), var=0, shift=0))")
    with pytest.raises(ReprInvariantError) as err:
        Repr((SubA((0,), 0, 0), SubA((0, 1), 0, 0)))
    assert str(err.value) == ("comparable atoms SubA(varset=(0,), var=0, shift=0) "
                              "and SubA(varset=(0, 1), var=0, shift=0)")
    with pytest.raises(ReprInvariantError, match="^atoms not strictly sorted: "):
        Repr((SubB((), 1), SubB((), 1)))  # a repeated atom is not strictly sorted


def test_repr_surface():
    r = normalize(Max(Succ(x), IMax(y, x)))
    assert repr(r) == ("Repr(atoms=(SubA(varset=(0,), var=0, shift=1), "
                       "SubA(varset=(0, 1), var=1, shift=0), SubB(varset=(), shift=1)))")
    assert repr(Repr()) == "Repr(atoms=())"
    assert type(r.atoms) is tuple and r.atoms == tuple(r) and len(r) == len(r.atoms) == 3
    assert r == r.atoms and hash(r) == hash(r.atoms) and Repr(r.atoms) == r
    for name in ("atoms", "extra", "__dict__"):
        with pytest.raises(AttributeError):
            setattr(r, name, ())
    match r:
        case Repr(atoms):
            assert atoms == r.atoms and type(atoms) is tuple
        case _:
            pytest.fail("Repr pattern did not match")
    for image in (copy.deepcopy(r), pickle.loads(pickle.dumps(r)), copy.copy(r)):
        assert image == r and type(image) is Repr
    assert round_trip_check() is None


def round_trip_check():
    """The normal forms of s(x), max(s(x), imax(y, x)) and imax(x, s(y)),
    each pickled at every protocol: the first (level, protocol) whose copy
    is not an equal `Repr`."""
    for t in (Succ(x), Max(Succ(x), IMax(y, x)), IMax(x, Succ(y))):
        r = normalize(t)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            image = pickle.loads(pickle.dumps(r, protocol))
            if type(image) is not Repr or image != r:
                return repr(t), protocol
    return None


def test_repr_unpickling_is_checked():
    # pickle rebuilds a Repr through its checked constructor, under every
    # protocol: turning each int 1 into 0 makes the second atom a copy of
    # the first
    r = Repr((SubA((0,), 0, 0), SubA((1,), 1, 0)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(r, protocol)
        assert pickle.loads(data) == r
        bad = data.replace(b"K\x01", b"K\x00").replace(b"I1\n", b"I0\n")
        assert bad != data
        with pytest.raises(ReprInvariantError, match="^atoms not strictly sorted: "):
            pickle.loads(bad)


def test_repr_zero():
    assert Repr().atoms == ()
    assert eval_repr(Repr(), {}) == 0
    for t in (x, Succ(ZERO), IMax(x, y)):
        assert leq_repr(Repr(), normalize(t))


def test_repr_var():
    assert repr_var(0).atoms == (SubA((0,), 0, 0),)
    for n in range(4):
        assert eval_repr(repr_var(0), {0: n}) == n
    assert repr_var(0) != repr_var(1)


def test_repr_var_rejects_a_negative_id():
    # the one check a variable atom needs; the rest hold by construction
    with pytest.raises(ValueError, match=r"^negative variable id in set: \(-1,\)$"):
        repr_var(-1)
    with pytest.raises(ValueError, match=r"^negative variable id in set: \(-2,\)$"):
        normalize(Var(-2))


def test_succ_repr_adds_the_constant_floor():
    # pointwise shifting alone is wrong at zero valuations: s(x) evaluates
    # to 1 at x = 0 while the shifted atom A({x},x,1) evaluates to 0
    assert succ_repr(Repr(), 1).atoms == (SubB((), 1),)
    assert succ_repr(repr_var(0), 1).atoms == (SubA((0,), 0, 1), SubB((), 1))
    assert eval_repr(succ_repr(repr_var(0), 1), {0: 0}) == 1
    r = Repr((SubA((0,), 0, 0), SubB((1,), 1)))
    assert succ_repr(r, 1).atoms == (SubA((0,), 0, 1), SubB((), 1), SubB((1,), 2))
    for sigma in valuations_on((0, 1), 3):
        assert eval_repr(succ_repr(r, 1), sigma) == 1 + eval_repr(r, sigma)
    # the floor goes first among the B-atoms, unless an empty-set B-atom
    # already dominates it
    assert succ_repr(Repr((SubB((0, 1), 1),)), 2).atoms == (SubB((), 2), SubB((0, 1), 3))
    assert succ_repr(Repr((SubA((0,), 0, 0), SubB((), 1))), 2).atoms == (
        SubA((0,), 0, 2), SubB((), 3))


@given(level_strategy(max_leaves=6))
@settings(max_examples=120)
def test_succ_repr_is_the_successor(t):
    r = normalize(t)
    vids = tuple(sorted(level_vars(t)))
    for sigma in valuations_on(vids, 2):
        assert eval_repr(succ_repr(r, 1), sigma) == 1 + eval_repr(r, sigma)


@given(level_strategy(max_leaves=6), st.integers(1, 5))
@settings(max_examples=150)
def test_a_successor_run_is_one_shift(t, n):
    # s^n(t) is every atom shifted by n plus the one floor B({}, n): the same
    # representation as n single successors
    r = normalize(t)
    stepped, tower = r, t
    for _ in range(n):
        stepped, tower = succ_repr(stepped, 1), Succ(tower)
    assert normalize(tower) == succ_repr(r, n) == stepped


def test_a_long_successor_run_costs_no_comparison(monkeypatch):
    # one shift and the floor placed by the successor lemma, not a merge
    import levelcanon.normalize as nz

    calls = []
    original = nz.leq_sub

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(nz, "leq_sub", counting)
    t = x
    for _ in range(10_000):
        t = Succ(t)
    assert nz.normalize(t).atoms == (SubA((0,), 0, 10_000), SubB((), 10_000))
    assert calls == []


def test_succ_repr_counts_from_zero():
    r = normalize(Max(x, Succ(y)))
    assert succ_repr(r, 0) is r
    assert succ_repr(Repr(), 0) == Repr()
    for n in (-1, -2):
        with pytest.raises(ValueError, match="^successor count must be a natural number$"):
            succ_repr(r, n)


@given(level_strategy(max_leaves=12))
@settings(max_examples=300)
def test_shifts_are_bounded_by_constant_depth(t):
    """No atom of the minimal representation shifts further than the level's
    constant depth; the harness's oracle grid bound relies on it."""
    depth = const_depth(t)
    assert all(atom.shift <= depth for atom in normalize(t).atoms)


def test_insert_sub():
    u = SubA((0,), 0, 0)
    assert max_repr(Repr(), Repr((u,))).atoms == (u,)
    assert max_repr(Repr((SubA((0,), 0, 1),)), Repr((u,))).atoms == (SubA((0,), 0, 1),)
    combined = max_repr(Repr((u,)), Repr((SubB((), 1),)))
    assert combined.atoms == (u, SubB((), 1))
    # the pair is genuinely incomparable: each atom wins somewhere
    assert eval_repr(combined, {0: 0}) == 1
    assert eval_repr(combined, {0: 5}) == 5


def test_insert_drops_every_dominated_atom():
    # A({x},x,0) dominates both two-variable atoms at once; a single-drop
    # insertion would leave a comparable pair behind
    r = normalize(Max(IMax(x, a), IMax(x, b)))
    assert len(r.atoms) == 4
    out = max_repr(r, Repr((SubA((0,), 0, 0),)))
    assert out.atoms == (SubA((0,), 0, 0), SubA((2,), 2, 0), SubA((3,), 3, 0))
    _assert_equiv(out, Max(Max(IMax(x, a), IMax(x, b)), x), bound=2)


def test_max_repr():
    r = normalize(Max(x, Succ(y)))
    assert max_repr(Repr(), r) == r
    assert max_repr(r, r) == r
    assert max_repr(repr_var(0), succ_repr(repr_var(0), 1)) == succ_repr(repr_var(0), 1)


def test_imax_repr():
    r = normalize(Max(x, Succ(y)))
    assert imax_repr(Repr(), r) == r
    assert imax_repr(r, Repr()) == Repr()
    ixy = imax_repr(repr_var(0), repr_var(1))
    assert ixy.atoms == (SubA((0, 1), 0, 0), SubA((1,), 1, 0))
    _assert_equiv(ixy, IMax(x, y))


def test_normalize_examples():
    assert normalize(IMax(x, x)) == normalize(x)
    assert normalize(Max(IMax(x, y), IMax(y, x))) == normalize(Max(x, y))
    assert normalize(IMax(x, Succ(y))) == normalize(Max(x, Succ(y)))
    assert normalize(Succ(ZERO)).atoms == (SubB((), 1),)
    assert normalize(Max(IMax(x, y), x)) == normalize(Max(x, y))


def test_leq_repr():
    assert leq_repr(normalize(x), normalize(Max(x, y)))
    lhs, rhs = normalize(Max(IMax(x, y), x)), normalize(Max(x, y))
    assert leq_repr(lhs, rhs) and leq_repr(rhs, lhs)
    n1, n2 = normalize(Succ(IMax(y, x))), normalize(IMax(Succ(y), Succ(x)))
    assert leq_repr(n1, n2) and not leq_repr(n2, n1)


def test_eq_repr():
    assert eq_repr(normalize(IMax(x, x)), normalize(x))
    assert not eq_repr(repr_var(0), repr_var(1))


@given(level_strategy(max_leaves=7), level_strategy(max_leaves=7))
@settings(max_examples=200)
def test_eq_repr_is_mutual_leq(t1, t2):
    r1, r2 = normalize(t1), normalize(t2)
    assert eq_repr(r1, r2) == (leq_repr(r1, r2) and leq_repr(r2, r1))


def test_subst_repr():
    assert subst_repr(Repr((SubB((0,), 1),)), 0, 0) == Repr()
    assert subst_repr(Repr((SubA((0, 1), 0, 2),)), 0, 3).atoms == (SubB((1,), 5),)
    untouched = Repr((SubA((0,), 0, 0),))
    assert subst_repr(untouched, 1, 5) == untouched


@given(level_strategy(max_leaves=6))
@settings(max_examples=120)
def test_subst_commutes_with_evaluation(t):
    rng = random.Random(5)
    vids = tuple(sorted(level_vars(t)))
    target = rng.choice(vids) if vids else 0
    n = rng.randint(0, 3)
    rest = tuple(v for v in vids if v != target)
    r = subst_repr(normalize(t), target, n)
    for sigma in valuations_on(rest, 2):
        extended = dict(sigma)
        extended[target] = n
        assert eval_repr(r, sigma) == eval_level(t, extended)


def _assert_sound(t):
    r = normalize(t)  # its invariants: test_operations_keep_the_invariants
    vids = tuple(sorted(level_vars(t)))
    for sigma in valuations_on(vids, 2):
        assert eval_repr(r, sigma) == eval_level(t, sigma)


@given(level_strategy())
@settings(max_examples=250)
def test_normalize_soundness(t):
    _assert_sound(t)


@given(deep_level_strategy())
@settings(max_examples=25, deadline=None)
def test_normalize_soundness_on_deep_levels(t):
    # past the default recursion limit; fewer examples, as each one has
    # thousands of nodes
    _assert_sound(t)


def _assert_valid(r):
    """`r`, built without checks, passes the validating public constructors,
    and every atom carries the guard set of its variable set."""
    assert Repr(r.atoms) == r
    for u in r.atoms:
        assert u[-1] == frozenset(u.varset)
        if isinstance(u, SubA):
            assert SubA(u.varset, u.var, u.shift) == u
        else:
            assert SubB(u.varset, u.shift) == u


@given(level_strategy(max_leaves=6), level_strategy(max_leaves=6),
       st.integers(0, 2), st.integers(0, 3))
@settings(max_examples=200)
def test_operations_keep_the_invariants(t1, t2, y, n):
    r1, r2 = normalize(t1), normalize(t2)
    for r in (r1, r2, max_repr(r1, r2), imax_repr(r1, r2), succ_repr(r1, 1),
              succ_repr(r1, n + 2), subst_repr(r1, y, n), normalize(IMax(t1, Succ(t2)))):
        _assert_valid(r)


@given(level_strategy(max_leaves=6), level_strategy(max_leaves=6))
@settings(max_examples=150)
def test_normalize_commutes_with_constructors(t1, t2):
    assert normalize(Max(t1, t2)) == max_repr(normalize(t1), normalize(t2))
    assert normalize(IMax(t1, t2)) == imax_repr(normalize(t1), normalize(t2))
    assert normalize(Succ(t1)) == succ_repr(normalize(t1), 1)


@given(level_strategy(max_leaves=6), level_strategy(max_leaves=6))
@settings(max_examples=120)
def test_max_fold_order_independent(t1, t2):
    r1, r2 = normalize(t1), normalize(t2)
    assert max_repr(r1, r2) == max_repr(r2, r1)
    rng = random.Random(11)
    atoms = list(r1.atoms + r2.atoms)
    for _ in range(3):
        rng.shuffle(atoms)
        folded = Repr()
        for u in atoms:
            folded = max_repr(folded, Repr((u,)))
        assert folded == max_repr(r1, r2)


def test_independence_lemma():
    # an atom sits below a representation iff some single atom dominates it
    from levelcanon.harness import gen_level, GenConfig
    from levelcanon.normalize import eval_sub

    atoms = enumerate_sublevels(2, 1)
    assert len(atoms) == 12
    cfg = GenConfig(seed=31, max_size=10, num_vars=2)
    reprs = [normalize(gen_level(cfg, i)) for i in range(60)]
    reprs += [Repr((u,)) for u in atoms]
    for u in atoms:
        for r in reprs:
            # the refutation witnesses need values up to max shift + 2
            bound = max([u.shift] + [v.shift for v in r.atoms]) + 3
            grid = valuations_on((0, 1), bound)
            dominated = any(leq_sub(u, v) for v in r.atoms)
            pointwise = all(eval_sub(u, s) <= eval_repr(r, s) for s in grid)
            assert dominated == pointwise, (u, r)


@given(level_strategy(max_leaves=7), level_strategy(max_leaves=7))
@settings(max_examples=150, deadline=None)
def test_uniqueness_inequivalent_pairs_have_witnesses(t1, t2):
    r1, r2 = normalize(t1), normalize(t2)
    if eq_repr(r1, r2):
        return
    shift = max((u.shift for r in (r1, r2) for u in r.atoms), default=0)
    bound = shift + 3
    found = (find_counterexample_leq(t1, t2, bound) is not None
             or find_counterexample_leq(t2, t1, bound) is not None)
    assert found, (t1, t2)
