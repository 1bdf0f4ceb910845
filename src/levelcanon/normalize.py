"""Minimal representations of levels and the authoritative decision procedure.

Every level is equivalent to the max of a unique set of pairwise-incomparable
sublevels, its atoms.  An atom is either A(E, x, S) or B(E, S) where E is a
sorted variable set, x a variable and S a shift.  Both evaluate to 0 as soon
as some variable of E is 0; otherwise A(E, x, S) is sigma(x) + S and B(E, S)
is S.  Only restricted atoms are representable: A(E, x, S) requires x in E,
and B(E, S) requires S >= 1.  The comparison theorems of the algebra assume
these restrictions, so the constructors enforce them (the operations below
keep them and skip the check); an ill-formed atom is a programming error, not
a recoverable condition.

An atom is a tuple tagged by its kind and closed by its guard set:
(0, E, x, S, G) for A and (1, E, S, G) for B, where G is frozenset(E).  So
tuple order is the storage order: A's before B's, then (set, var, shift) or
(set, shift); the guard never decides it.  The guard makes the subset test of
a comparison one C-level set operation.  It is a frozenset and not an int
bitmask because a mask `1 << x` takes memory and time in proportion to the
variable id x itself.

`normalize` computes a level's set of atoms; equality of levels is then
literal equality of atom sets, and `u <= v` holds iff every atom of u's
representation is dominated by some atom of v's.

Two operations deliberately differ from their naive pointwise statements:

  * n successors of a representation are the pointwise shifted atoms PLUS the
    constant atom B({}, n).  An A-atom vanishes wherever a set variable is 0
    while the successor of the original level is at least 1 there, so the
    constant floor is required (s(x) at x=0 is 1, but A({x},x,1) is 0).
  * merging an atom drops EVERY kept atom the new one dominates, not just the
    first one found; an atom with a small variable set can dominate several
    incomparable atoms at once.

`normalize` memoizes the four operations its fold calls, one process-wide
`lru_cache` each, since a kernel's levels share sub-representations (`u+1`,
`max u v`) across calls.  The operations are pure functions of immutable
tuples and the keys are typed (a `Repr` and a plain tuple of its atoms are
two keys), so a hit returns what the call would.  A memo is bounded by its
entry count, MEMO_ENTRIES: an entry holds its argument and result tuples,
whose atoms are shared with the levels that made them, about 8 B per atom.
On a miss it calls the operation by this module's name, so a binding patched
here still runs.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter
from typing import Iterable

from .levels import Level, UnboundVariableError, Valuation, VarId, _Lanes, _Scalar, fold_level

VarSet = tuple[VarId, ...]  # strictly increasing ids


def _check_varset(elems: VarSet) -> None:
    if any(b <= a for a, b in zip(elems, elems[1:])):
        raise ValueError(f"variable set not strictly increasing: {elems!r}")
    if any(x < 0 for x in elems):
        raise ValueError(f"negative variable id in set: {elems!r}")


def set_delete(elems: VarSet, x: VarId) -> VarSet:
    i = bisect_left(elems, x)
    if i < len(elems) and elems[i] == x:
        return elems[:i] + elems[i + 1:]
    return elems


class _Atom(tuple):
    """The fields and text shared by both atom kinds; immutable as a tuple."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    varset = property(itemgetter(1))
    shift = property(itemgetter(-2))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self[1:-1]


class SubA(_Atom):
    """A(varset, var, shift), stored as (0, varset, var, shift, guard)."""

    __slots__ = ()
    __match_args__ = ("varset", "var", "shift")
    var = property(itemgetter(2))

    def __new__(cls, varset: VarSet, var: VarId, shift: int):
        _check_varset(varset)
        if var not in varset:
            raise ValueError(f"A-atom variable {var} not in its set {varset!r}")
        if shift < 0:
            raise ValueError("negative shift")
        return _new(cls, (0, varset, var, shift, frozenset(varset)))


class SubB(_Atom):
    """B(varset, shift), stored as (1, varset, shift, guard)."""

    __slots__ = ()
    __match_args__ = ("varset", "shift")

    def __new__(cls, varset: VarSet, shift: int):
        _check_varset(varset)
        if shift < 1:
            raise ValueError("B-atom shift must be at least 1")
        return _new(cls, (1, varset, shift, frozenset(varset)))


SubLevel = SubA | SubB

_new = tuple.__new__


def _sub_a(varset: VarSet, var: VarId, shift: int, guard: frozenset) -> SubA:
    """SubA unchecked, for x in E and guard = frozenset(E) by construction."""
    return _new(SubA, (0, varset, var, shift, guard))


def _sub_b(varset: VarSet, shift: int, guard: frozenset) -> SubB:
    """SubB unchecked, for S >= 1 and guard = frozenset(E) by construction."""
    return _new(SubB, (1, varset, shift, guard))


def eval_sub(u: SubLevel, sigma: Valuation, lanes: _Lanes | type[_Scalar] = _Scalar) -> int:
    """Value of `u` under `sigma`, or with `lanes` its values packed in them,
    as for `eval_level`: masked by where each guard variable is not 0.
    Raises UnboundVariableError."""
    # an A-atom's variable is in its set, so the set's check binds it
    mask = -1
    for y in u[1]:
        if y not in sigma:
            raise UnboundVariableError(y)
        mask &= lanes.nonzero(sigma[y])
    return mask & lanes.succ(0 if u[0] else sigma[u[2]], u[-2])


def leq_sub(u: SubLevel, v: SubLevel) -> bool:
    """Decide u <= v semantically, by the four comparison cases.

    (1) A <= B never holds;
    (2) B(E,S) <= B(F,K)   iff F subset E and S <= K;
    (3) B(E,S) <= A(F,x,K) iff F subset E and S <= K + 1;
    (4) A(E,x,S) <= A(F,y,K) iff F subset E, x = y and S <= K.

    "F subset E" is one test on the guards.
    """
    if u[0]:
        if v[0]:
            return u[2] <= v[2] and v[3] <= u[3]
        return u[2] <= v[3] + 1 and v[4] <= u[3]
    return not v[0] and u[2] == v[2] and u[3] <= v[3] and v[4] <= u[4]


def succ_sub(u: SubLevel, n: int) -> SubLevel:
    """`u` with its shift raised by the natural n.  ValueError if n < 0."""
    if n < 0:
        raise ValueError("successor count must be a natural number")
    if u[0]:
        return _sub_b(u[1], u[2] + n, u[3])
    return _sub_a(u[1], u[2], u[3] + n, u[4])


def subst_sub(u: SubLevel, y: VarId, n: int) -> SubLevel | None:
    """`u` with variable y set to the natural n, or None where that makes it 0.
    Otherwise y leaves the guard set, and an A-atom on y becomes the constant
    atom B(E \\ {y}, S + n), with S + n >= 1 because n >= 1 here.
    ValueError if n < 0."""
    if n < 0:
        raise ValueError("substituted value must be a natural number")
    guard = u[-1]
    if y not in guard:
        return u
    if n == 0:
        return None
    rest = set_delete(u[1], y)
    guard = guard - {y}
    if u[0]:
        return _sub_b(rest, u[2], guard)
    if u[2] == y:
        return _sub_b(rest, u[3] + n, guard)
    return _sub_a(rest, u[2], u[3], guard)


def imax_sub(u: SubLevel, v: SubLevel) -> SubLevel:
    """`u` under `v`'s guard set, the atom whose max with v is imax(u, v).

    imax(u, v) == max(u[E union F], v) where E is u's set and F is v's set:
    when some variable of F is 0 both sides are 0, and otherwise v is at
    least 1, so the impredicative max degenerates to max while u's extra
    guard variables from F never fire.
    """
    if v[-1] <= u[-1]:
        return u
    guard = u[-1] | v[-1]
    merged = tuple(sorted(guard))
    if u[0]:
        return _sub_b(merged, u[2], guard)
    return _sub_a(merged, u[2], u[3], guard)


class ReprInvariantError(ValueError):
    """A representation failed the sorted-antichain invariant."""


class Repr(tuple):
    """A minimal representation: the tuple of its atoms, sorted by the storage
    order (tuple order), pairwise incomparable, each a restricted sublevel.
    The operations below build it unchecked, as `_new(Repr, atoms)`."""

    __slots__ = ()
    __match_args__ = ("atoms",)

    def __new__(cls, atoms: tuple[SubLevel, ...] = ()):
        for u in atoms:
            if not isinstance(u, (SubA, SubB)):
                raise ReprInvariantError(f"not an atom: {u!r}")
        if any(b <= a for a, b in zip(atoms, atoms[1:])):
            raise ReprInvariantError(f"atoms not strictly sorted: {atoms!r}")
        for i, u in enumerate(atoms):
            for v in atoms[i + 1:]:
                if leq_sub(u, v) or leq_sub(v, u):
                    raise ReprInvariantError(f"comparable atoms {u!r} and {v!r}")
        return _new(cls, atoms)

    @property
    def atoms(self) -> tuple[SubLevel, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Repr(atoms={tuple(self)!r})"

    def __reduce__(self) -> tuple:
        return Repr, (tuple(self),)


_ZERO_REPR = Repr(())
_NO_GUARD = frozenset()


def repr_var(x: VarId) -> Repr:
    """The representation {A({x}, x, 0)}; its atom needs only x >= 0 checked."""
    if x < 0:
        raise ValueError(f"negative variable id in set: {(x,)!r}")
    return _new(Repr, (_sub_a((x,), x, 0, frozenset((x,))),))


def _merge(atoms: Iterable[SubLevel], candidates: Iterable[SubLevel]) -> Repr:
    """Minimal representation of the max of an antichain and some atoms.  A
    candidate that a kept atom dominates is dropped; otherwise it drops every
    kept atom it dominates.  One pass over the kept atoms tests both ways.
    Domination is a partial order, so the kept atoms are the maximal ones in
    any candidate order; they are sorted once, as tuples, which is the
    storage order."""
    kept = list(atoms)
    for u in candidates:
        rest = []
        for v in kept:
            if leq_sub(u, v):
                break
            if not leq_sub(v, u):
                rest.append(v)
        else:
            rest.append(u)
            kept = rest
    kept.sort()
    return _new(Repr, kept)


def max_repr(r1: Repr, r2: Repr) -> Repr:
    """Minimal representation of max(r1, r2)."""
    if not r1:
        return r2
    if not r2:
        return r1
    return _merge(r1, r2)


def succ_repr(r: Repr, n: int) -> Repr:
    """Minimal representation of s^n(r), built without a comparison.

    It is every atom shifted by n plus the floor B({}, n).  A uniform shift
    keeps the atoms an antichain and keeps their storage order.  The floor
    is dominated exactly when r holds a B-atom with the empty set (the
    B <= B case with F = {}), and it dominates no shifted atom: A <= B never
    holds, and a shifted B-atom has shift at least n + 1.  So the floor sits
    first among the B-atoms, or is dropped.
    """
    if n <= 0:
        if n == 0:
            return r
        raise ValueError("successor count must be a natural number")
    shifted = [succ_sub(u, n) for u in r]
    first_b = bisect_left(r, (1,))  # A-atoms are tagged 0, B-atoms 1
    if first_b == len(r) or r[first_b][1]:
        shifted.insert(first_b, _sub_b((), n, _NO_GUARD))
    return _new(Repr, shifted)


def imax_repr(r1: Repr, r2: Repr) -> Repr:
    """Minimal representation of imax(r1, r2).

    imax(0, t) is t and imax(t, 0) is 0; otherwise imax distributes over the
    max on both sides, and imax(u, v) is max(u under v's guard set, v)
    (`imax_sub`).  The v's make up r2, so the guarded u's are merged into it.

    `imax_sub(u, v)` reads v only through its guard set, and u under a
    larger guard set is dominated by u under a smaller one.  So only the
    atoms of r2 with a minimal guard set (`least`) give copies of u that can
    survive, and when one of those sets is within u's own guard, u itself is
    a copy and dominates every other.  The merge drops just the candidates
    that other candidates dominate, so leaving them out keeps the result.
    """
    if not r1 or not r2:
        return r2
    guards = [v[-1] for v in r2]
    least = []
    for v in r2:
        for guard in guards:
            if guard < v[-1]:
                break
        else:
            least.append(v)
    candidates = []
    for u in r1:
        for v in least:
            if v[-1] <= u[-1]:
                candidates.append(u)
                break
        else:
            candidates += [imax_sub(u, v) for v in least]
    return _merge(r2, candidates)


MEMO_ENTRIES = 512  # results each of normalize's four memos keeps
_memo = lru_cache(maxsize=MEMO_ENTRIES, typed=True)
_var_memo = _memo(lambda x: repr_var(x))
_succ_memo = _memo(lambda r, n: succ_repr(r, n))
_max_memo = _memo(lambda r1, r2: max_repr(r1, r2))
_imax_memo = _memo(lambda r1, r2: imax_repr(r1, r2))


def normalize(t: Level) -> Repr:
    """The minimal representation of a level, by the memoized operations."""
    return fold_level(t, _ZERO_REPR, _var_memo, _succ_memo, _max_memo, _imax_memo)


def leq_repr(r1: Repr, r2: Repr) -> bool:
    """r1 <= r2 iff every atom of r1 is dominated by some atom of r2."""
    return all(any(leq_sub(u, v) for v in r2) for u in r1)


def eq_repr(r1: Repr, r2: Repr) -> bool:
    """Equality of representations is syntactic equality of atom sets."""
    return r1 == r2


def subst_repr(r: Repr, y: VarId, n: int) -> Repr:
    """Minimal representation of r with variable y set to the constant n.
    The atom images (`subst_sub`) can become comparable, so they are merged."""
    if n < 0:
        raise ValueError("substituted value must be a natural number")
    images = (subst_sub(u, y, n) for u in r)
    return _merge((), (u for u in images if u is not None))


def eval_repr(r: Repr, sigma: Valuation, lanes: _Lanes | type[_Scalar] = _Scalar) -> int:
    """Max of the atom values; 0 for the empty representation.  Raises
    UnboundVariableError.  With `lanes`, the values packed in them, as for
    `eval_level`: one pass over the atoms for all of them."""
    join = lanes.max_
    best = 0
    for u in r:
        best = join(best, eval_sub(u, sigma, lanes))
    return best
