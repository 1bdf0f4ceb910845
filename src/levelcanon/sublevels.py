"""Sublevels: the atomic building blocks of minimal level representations.

A sublevel is either A(E, x, S) or B(E, S) where E is a sorted variable set,
x a variable and S a shift.  Both evaluate to 0 as soon as some variable of E
is 0; otherwise A(E, x, S) is sigma(x) + S and B(E, S) is S.

Only restricted sublevels are representable here:

  * A(E, x, S) requires x in E,
  * B(E, S) requires S >= 1.

The comparison theorems of the algebra assume these restrictions, so the
constructors enforce them (the atom operations below and the atoms `normalize`
starts from keep them and skip the check); an ill-formed atom is a
programming error, not a recoverable condition.

An atom is a tuple tagged by its kind and closed by its guard set:
(0, E, x, S, G) for A and (1, E, S, G) for B, where G is frozenset(E).  So
tuple order is the storage order: A's before B's, then (set, var, shift) or
(set, shift); the guard never decides it.  The guard makes the subset test of
a comparison one C-level set operation.  It is a frozenset and not an int
bitmask because a mask `1 << x` takes memory and time in proportion to the
variable id x itself.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .levels import Valuation, VarId, UnboundVariableError

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


def eval_sub(u: SubLevel, sigma: Valuation) -> int:
    for y in u[1]:
        if y not in sigma:
            raise UnboundVariableError(y)
        if sigma[y] == 0:
            return 0
    if u[0]:
        return u[2]
    if u[2] not in sigma:
        raise UnboundVariableError(u[2])
    return sigma[u[2]] + u[3]


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
    """`u` with its shift raised by the natural n."""
    if u[0]:
        return _sub_b(u[1], u[2] + n, u[3])
    return _sub_a(u[1], u[2], u[3] + n, u[4])


def subst_sub(u: SubLevel, y: VarId, n: int) -> SubLevel | None:
    """`u` with variable y set to the natural n, or None where that makes it 0.
    Otherwise y leaves the guard set, and an A-atom on y becomes the constant
    atom B(E \\ {y}, S + n), with S + n >= 1 because n >= 1 here."""
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


__all__ = [
    "VarSet", "SubA", "SubB", "SubLevel",
    "set_delete", "eval_sub", "leq_sub", "succ_sub", "subst_sub", "imax_sub",
]
