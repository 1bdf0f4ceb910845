"""Sublevels: the atomic building blocks of minimal level representations.

A sublevel is either A(E, x, S) or B(E, S) where E is a sorted variable set,
x a variable and S a shift.  Both evaluate to 0 as soon as some variable of E
is 0; otherwise A(E, x, S) is sigma(x) + S and B(E, S) is S.

Only restricted sublevels are representable here:

  * A(E, x, S) requires x in E,
  * B(E, S) requires S >= 1.

The comparison theorems of the algebra assume these restrictions, so the
constructors enforce them (the atom operations below and the atoms `normalize`
starts from keep them and skip the check, through `_trusted`); an ill-formed
atom is a programming error, not a recoverable condition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .levels import Valuation, VarId, UnboundVariableError

VarSet = tuple[VarId, ...]  # strictly increasing ids


def _check_varset(elems: VarSet) -> None:
    if any(b <= a for a, b in zip(elems, elems[1:])):
        raise ValueError(f"variable set not strictly increasing: {elems!r}")
    if any(x < 0 for x in elems):
        raise ValueError(f"negative variable id in set: {elems!r}")


def set_union(e: VarSet, f: VarSet) -> VarSet:
    if not f:
        return e
    if not e:
        return f
    merged = sorted(set(e) | set(f))
    return tuple(merged)


def set_subset(f: VarSet, e: VarSet) -> bool:
    """True iff every element of f is in e.  The sets are a few ids long, so
    a membership scan of e beats a binary search."""
    for x in f:
        if x not in e:
            return False
    return True


def set_delete(elems: VarSet, x: VarId) -> VarSet:
    i = bisect_left(elems, x)
    if i < len(elems) and elems[i] == x:
        return elems[:i] + elems[i + 1:]
    return elems


@dataclass(frozen=True)
class SubA:
    varset: VarSet
    var: VarId
    shift: int

    def __post_init__(self):
        _check_varset(self.varset)
        if self.var not in self.varset:
            raise ValueError(f"A-atom variable {self.var} not in its set {self.varset!r}")
        if self.shift < 0:
            raise ValueError("negative shift")


@dataclass(frozen=True)
class SubB:
    varset: VarSet
    shift: int

    def __post_init__(self):
        _check_varset(self.varset)
        if self.shift < 1:
            raise ValueError("B-atom shift must be at least 1")


SubLevel = SubA | SubB


def _trusted(cls: type, *values) -> SubLevel:
    """`cls(*values)` unchecked, for an atom that keeps x in E and S >= 1."""
    atom = object.__new__(cls)
    atom.__dict__.update(zip(cls.__match_args__, values))
    return atom


def eval_sub(u: SubLevel, sigma: Valuation) -> int:
    for y in u.varset:
        if y not in sigma:
            raise UnboundVariableError(y)
        if sigma[y] == 0:
            return 0
    if isinstance(u, SubA):
        if u.var not in sigma:
            raise UnboundVariableError(u.var)
        return sigma[u.var] + u.shift
    return u.shift


def leq_sub(u: SubLevel, v: SubLevel) -> bool:
    """Decide u <= v semantically, by the four comparison cases.

    (1) A <= B never holds;
    (2) B(E,S) <= B(F,K)   iff F subset E and S <= K;
    (3) B(E,S) <= A(F,x,K) iff F subset E and S <= K + 1;
    (4) A(E,x,S) <= A(F,y,K) iff F subset E, x = y and S <= K.
    """
    if isinstance(u, SubA):
        if isinstance(v, SubB):
            return False
        return set_subset(v.varset, u.varset) and u.var == v.var and u.shift <= v.shift
    if isinstance(v, SubB):
        return set_subset(v.varset, u.varset) and u.shift <= v.shift
    return set_subset(v.varset, u.varset) and u.shift <= v.shift + 1


def sub_key(u: SubLevel) -> tuple:
    """Sort key for the storage order: all A's before all B's, then
    lexicographic on (set, var, shift) for A and (set, shift) for B."""
    if isinstance(u, SubA):
        return (0, u.varset, u.var, u.shift)
    return (1, u.varset, u.shift)


def succ_sub(u: SubLevel, n: int) -> SubLevel:
    """`u` with its shift raised by the natural n."""
    if isinstance(u, SubA):
        return _trusted(SubA, u.varset, u.var, u.shift + n)
    return _trusted(SubB, u.varset, u.shift + n)


def subst_sub(u: SubLevel, y: VarId, n: int) -> SubLevel | None:
    """`u` with variable y set to the natural n, or None where that makes it 0.
    Otherwise y leaves the guard set, and an A-atom on y becomes the constant
    atom B(E \\ {y}, S + n), with S + n >= 1 because n >= 1 here."""
    if y not in u.varset:
        return u
    if n == 0:
        return None
    rest = set_delete(u.varset, y)
    if isinstance(u, SubB):
        return _trusted(SubB, rest, u.shift)
    if u.var == y:
        return _trusted(SubB, rest, u.shift + n)
    return _trusted(SubA, rest, u.var, u.shift)


def imax_sub_pair(u: SubLevel, v: SubLevel) -> tuple[SubLevel, SubLevel]:
    """The two atoms whose max is equivalent to imax(u, v).

    imax(u, v) == max(u[E union F], v) where E is u's set and F is v's set:
    when some variable of F is 0 both sides are 0, and otherwise v is at
    least 1, so the impredicative max degenerates to max while u's extra
    guard variables from F never fire.
    """
    merged = set_union(u.varset, v.varset)
    if isinstance(u, SubA):
        return _trusted(SubA, merged, u.var, u.shift), v
    return _trusted(SubB, merged, u.shift), v


__all__ = [
    "VarSet", "SubA", "SubB", "SubLevel",
    "set_union", "set_subset", "set_delete",
    "eval_sub", "leq_sub", "sub_key", "succ_sub", "subst_sub", "imax_sub_pair",
]
