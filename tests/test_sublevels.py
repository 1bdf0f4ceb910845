from __future__ import annotations

import copy
import pickle
import time
from itertools import product

import pytest
from oracles import enumerate_sublevels, valuations_on

from levelcanon import (
    Max, Succ, Var, SubA, SubB, eval_sub, imax_nat, imax_sub, leq_sub, set_delete, succ_sub,
)
from levelcanon import sublevels
from levelcanon.normalize import normalize
from levelcanon.sublevels import subst_sub


def _rebuilt(atom):
    """`atom` built again through its checked constructor, which raises on
    an atom that breaks the restrictions."""
    return type(atom)(*(getattr(atom, name) for name in atom.__match_args__))


def test_set_delete():
    assert set_delete((0, 1), 0) == (1,)
    assert set_delete((1,), 0) == (1,)
    assert set_delete((0,), 0) == ()


def absent_delete_check():
    """`sublevels.set_delete` of ids absent from a set, below, between and
    above every member: the first (set, id, what it gave) that is not the
    set unchanged."""
    for elems, x in (((0,), 5), ((1, 3), 0), ((1, 3), 2), ((1, 3), 4), ((), 0)):
        try:
            got = sublevels.set_delete(elems, x)
        except Exception as err:
            got = err
        if got != elems:
            return elems, x, repr(got)
    return None


def test_deleting_an_absent_id_leaves_the_set_unchanged():
    assert set_delete((0,), 5) == (0,)
    assert absent_delete_check() is None


def _word_leq(e, f):
    # reference: lexicographic order on the sorted id words
    for a, b in zip(e, f):
        if a != b:
            return a < b
    return len(e) <= len(f)


# the lexicographic set order is tuple order on sorted variable sets
def test_set_lex_leq_examples():
    assert () <= (0,)
    assert (0,) <= (0,)
    assert not (0, 1) <= (0,)


def test_set_lex_leq_total_order_exhaustive():
    sets = [tuple(v for v in range(3) if mask >> v & 1) for mask in range(8)]
    for e, f in product(sets, repeat=2):
        assert (e <= f) == _word_leq(e, f)
        assert e <= f or f <= e
        if e <= f and f <= e:
            assert e == f
    for e, f, g in product(sets, repeat=3):
        if e <= f and f <= g:
            assert e <= g


def test_restrictions_enforced_at_construction():
    with pytest.raises(ValueError, match=r"^A-atom variable 1 not in its set \(0,\)$"):
        SubA((0,), 1, 0)
    with pytest.raises(ValueError, match=r"^B-atom shift must be at least 1$"):
        SubB((0,), 0)
    with pytest.raises(ValueError, match=r"^variable set not strictly increasing: \(1, 0\)$"):
        SubA((1, 0), 0, 0)
    with pytest.raises(ValueError, match=r"^negative variable id in set: \(-1,\)$"):
        SubB((-1,), 1)
    with pytest.raises(ValueError, match=r"^negative shift$"):
        SubA((0,), 0, -1)
    SubA((0, 1), 0, 0)
    SubB((), 1)


def test_atom_surface():
    a, b = SubA((0, 2), 2, 1), SubB((), 3)
    assert repr(a) == "SubA(varset=(0, 2), var=2, shift=1)"
    assert repr(b) == "SubB(varset=(), shift=3)"
    assert (a.varset, a.var, a.shift, b.varset, b.shift) == ((0, 2), 2, 1, (), 3)
    assert isinstance(a, SubA) and not isinstance(a, SubB) and isinstance(b, SubB)
    for atom, name in ((a, "varset"), (a, "var"), (a, "shift"), (b, "shift"), (b, "extra")):
        with pytest.raises(AttributeError):
            setattr(atom, name, 0)
    match a:
        case SubA(varset, var, shift):
            assert (varset, var, shift) == ((0, 2), 2, 1)
        case _:
            pytest.fail("SubA pattern did not match")
    match b:
        case SubA():
            pytest.fail("a B-atom matched the SubA pattern")
        case SubB(varset, shift):
            assert (varset, shift) == ((), 3)
    assert a != SubA((0, 2), 2, 2) and SubB((0,), 1) != SubB((1,), 1)
    assert _rebuilt(a) == a and hash(_rebuilt(b)) == hash(b)
    for atom in (a, b):
        images = [copy.deepcopy(atom)] + [pickle.loads(pickle.dumps(atom, protocol))
                                           for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for image in images:
            assert image == atom and type(image) is type(atom)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        # unpickling goes through the checked constructor: shift 1 -> 0
        data = pickle.dumps(SubB((), 1), protocol)
        bad = data.replace(b"K\x01", b"K\x00").replace(b"I1\n", b"I0\n")
        with pytest.raises(ValueError, match="^B-atom shift must be at least 1$"):
            pickle.loads(bad)


def test_a_huge_variable_id_normalizes_in_milliseconds():
    # the guard is a set of ids: its cost does not grow with an id's size
    start = time.perf_counter()
    r = normalize(Max(Var(10**9), Succ(Var(3))))
    assert time.perf_counter() - start < 0.010
    assert r.atoms == (SubA((3,), 3, 1), SubA((10**9,), 10**9, 0), SubB((), 1))


def test_eval_sub():
    assert eval_sub(SubA((0,), 0, 0), {0: 3}) == 3
    assert eval_sub(SubB((0, 1), 2), {0: 1, 1: 0}) == 0
    assert eval_sub(SubA((0, 1), 0, 1), {0: 2, 1: 3}) == 3


def test_leq_sub_theorem_cases():
    assert not leq_sub(SubA((0,), 0, 0), SubB((0,), 5))           # case 1
    assert not leq_sub(SubB((0,), 2), SubB((0, 1), 2))            # case 2, F not in E
    assert leq_sub(SubB((0,), 1), SubA((0,), 0, 0))               # case 3, S <= K+1
    assert leq_sub(SubA((0, 1), 0, 0), SubA((0,), 0, 1))          # case 4


def _storage_key(u):
    """The storage order spelled out: A's before B's, then (set, var, shift)
    for A and (set, shift) for B."""
    return (0, u.varset, u.var, u.shift) if isinstance(u, SubA) else (1, u.varset, u.shift)


# the storage order on atoms is their order as plain tuples
def test_ord_sub():
    assert tuple(SubA((1,), 1, 7)) < tuple(SubB((), 1))  # A's before B's
    assert tuple(SubA((0,), 0, 0)) < tuple(SubA((0,), 0, 1))
    assert tuple(SubA((0,), 0, 5)) < tuple(SubA((0, 1), 0, 0))  # set before shift
    assert tuple(SubB((), 9)) < tuple(SubB((0,), 1))
    assert tuple(SubB((0,), 2)) == tuple(SubB((0,), 2))


def test_ord_sub_total_order_exhaustive():
    atoms = enumerate_sublevels(2, 2)
    assert len(atoms) == 20
    for u, v in product(atoms, repeat=2):
        assert (tuple(u) == tuple(v)) == (u == v) == (_storage_key(u) == _storage_key(v))
        assert (tuple(u) < tuple(v)) == (_storage_key(u) < _storage_key(v))


def test_leq_sub_antisymmetry_is_syntactic_equality():
    atoms = enumerate_sublevels(2, 2)
    for u, v in product(atoms, repeat=2):
        assert (leq_sub(u, v) and leq_sub(v, u)) == (u == v)


def test_leq_sub_agrees_with_semantics_exhaustively():
    # small-scale version of the acceptance gate: universe of 2 ids,
    # shifts <= 2, value grid {0..5} (witnesses need at most shift + 2)
    atoms = enumerate_sublevels(2, 2)
    points = list(valuations_on((0, 1), 5))
    for u, v in product(atoms, repeat=2):
        semantic = all(eval_sub(u, s) <= eval_sub(v, s) for s in points)
        assert leq_sub(u, v) == semantic, (u, v)


def test_succ_sub():
    assert succ_sub(SubA((0,), 0, 0), 1) == SubA((0,), 0, 1)
    assert succ_sub(SubB((), 1), 1) == SubB((), 2)
    assert succ_sub(SubA((0,), 0, 2), 5) == SubA((0,), 0, 7)
    assert succ_sub(SubB((1,), 3), 10_000) == SubB((1,), 10_003)
    points = list(valuations_on((0, 1), 3))
    for atom in enumerate_sublevels(2, 2):
        for n in (1, 2, 7):
            # built unchecked: the validating constructor must accept it
            assert _rebuilt(succ_sub(atom, n)) == succ_sub(atom, n)
            for sigma in points:
                guarded = all(sigma[v] for v in atom.varset)
                expected = eval_sub(atom, sigma) + n if guarded else 0
                assert eval_sub(succ_sub(atom, n), sigma) == expected


def test_a_negative_count_is_refused():
    # as succ_repr and subst_repr refuse it: SubA((0,), 0, -3) is no atom
    for u in (SubA((0,), 0, 0), SubB((1,), 2)):
        with pytest.raises(ValueError, match="successor count must be a natural number"):
            succ_sub(u, -3)
        for y in (0, 1, 2):
            with pytest.raises(ValueError, match="substituted value must be a natural number"):
                subst_sub(u, y, -1)
    assert succ_sub(SubA((0,), 0, 0), 0) == SubA((0,), 0, 0)


def test_subst_sub_semantics_exhaustive():
    points = list(valuations_on((0, 1), 3))
    for u in enumerate_sublevels(2, 2):
        for y, n in product((0, 1, 2), range(3)):
            image = subst_sub(u, y, n)
            if image is not None:
                assert _rebuilt(image) == image and y not in image.varset
            for sigma in points:
                if sigma.get(y, n) == n:
                    value = 0 if image is None else eval_sub(image, sigma)
                    assert value == eval_sub(u, {**sigma, y: n}), (u, y, n, sigma)


def test_imax_sub():
    assert imax_sub(SubA((0,), 0, 0), SubA((1,), 1, 0)) == SubA((0, 1), 0, 0)
    assert imax_sub(SubB((0,), 1), SubB((1,), 2)) == SubB((0, 1), 1)
    assert imax_sub(SubA((0,), 0, 2), SubA((0,), 0, 2)) == SubA((0,), 0, 2)


def test_imax_sub_semantics_exhaustive():
    atoms = enumerate_sublevels(2, 1)
    points = list(valuations_on((0, 1), 3))
    for u, v in product(atoms, repeat=2):
        a = imax_sub(u, v)
        assert _rebuilt(a) == a
        for sigma in points:
            expected = imax_nat(eval_sub(u, sigma), eval_sub(v, sigma))
            assert max(eval_sub(a, sigma), eval_sub(v, sigma)) == expected
