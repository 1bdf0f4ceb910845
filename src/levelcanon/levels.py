"""Level terms, their valuation semantics, and a bounded brute-force oracle.

A level is a term over 0, successor, binary max, binary impredicative max,
and variables.  Variables are plain integer ids; the surface layer owns the
mapping between source names and ids.
"""

from __future__ import annotations

from itertools import islice, product
from operator import add
from typing import Callable, Iterator, Mapping, Optional, Sequence, TypeVar

VarId = int
Valuation = Mapping[VarId, int]
T = TypeVar("T")


class _Node:
    """A level node: immutable, its fields named by `__match_args__`.

    Hash, equality and repr take a level of any depth.  The hash is computed
    once, at construction, from the children's stored hashes (a child that
    is not a node has none and goes through `hash`); equality walks both
    levels with its own stack; repr is `printer.level_repr`'s text.
    """

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b) or not issubclass(kind, _Node):
                if a != b:
                    return False
            elif a._hash != b._hash:
                return False
            else:
                todo += ((getattr(a, f), getattr(b, f)) for f in kind.__match_args__)
        return True

    def __repr__(self) -> str:
        from .printer import level_repr
        return level_repr(self)


class Zero(_Node):
    __slots__ = ()

    def __init__(self):
        _set_hash(self, hash(Zero))


class Succ(_Node):
    __slots__ = ("child",)
    __match_args__ = ("child",)

    def __init__(self, child: "Level"):
        _set_child(self, child)
        try:
            h = hash((Succ, child._hash))
        except AttributeError:  # not a level node
            h = hash((Succ, hash(child)))
        _set_hash(self, h)


class _Binary(_Node):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: "Level", right: "Level"):
        _set_left(self, left)
        _set_right(self, right)
        try:
            h = hash((type(self), left._hash, right._hash))
        except AttributeError:  # a side that is not a level node
            h = hash((type(self), hash(left), hash(right)))
        _set_hash(self, h)


class Max(_Binary):
    __slots__ = ()


class IMax(_Binary):
    __slots__ = ()


class Var(_Node):
    __slots__ = ("vid",)
    __match_args__ = ("vid",)

    def __init__(self, vid: VarId):
        _set_vid(self, vid)
        _set_hash(self, hash((Var, vid)))


# a node's fields are set once, in its __init__, through the slot descriptors
# bound here; its own __setattr__ refuses any later assignment
_set_hash = _Node._hash.__set__
_set_child = Succ.child.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_vid = Var.vid.__set__

Level = Zero | Succ | Max | IMax | Var

ZERO = Zero()


class UnboundVariableError(LookupError):
    """A level was evaluated under a valuation missing one of its variables."""

    def __init__(self, vid: VarId):
        super().__init__(f"variable id {vid} is not bound in the valuation")
        self.vid = vid


def imax_nat(i: int, j: int) -> int:
    """Impredicative max on naturals: 0 when j = 0, else max(i, j)."""
    return 0 if j == 0 else max(i, j)


def fold_level(t: Level, zero: T, var: Callable[[VarId], T], succ: Callable[[T, int], T],
               max_: Callable[[T, T], T], imax: Callable[[T, T], T]) -> T:
    """The value of `t` computed bottom-up: `zero` for 0, `var(vid)` for a
    variable, `succ(value, n)` for a run of n successors over a value, and
    `max_`/`imax` over the values of the two sides.

    Every walk over a level is this one.  It keeps its own stack, so a level
    of any depth folds without recursion, and it calls back in post-order,
    left side before right.  A node that is not a level raises TypeError.
    """
    # preorder with the right side first, each successor run entered once;
    # reversed, that is the post-order, and runs.pop() yields the run lengths
    order = []
    runs = []
    todo = [t]
    while todo:
        node = todo.pop()
        order.append(node)
        kind = type(node)
        if kind is Succ:
            n = 0
            while type(node) is Succ:
                n += 1
                node = node.child
            runs.append(n)
            todo.append(node)
        elif kind is Max or kind is IMax:
            todo.append(node.left)
            todo.append(node.right)
    values = []
    for node in reversed(order):
        kind = type(node)
        if kind is Var:
            values.append(var(node.vid))
        elif kind is Zero:
            values.append(zero)
        elif kind is Succ:
            values[-1] = succ(values[-1], runs.pop())
        elif kind is Max:
            right = values.pop()
            values[-1] = max_(values[-1], right)
        elif kind is IMax:
            right = values.pop()
            values[-1] = imax(values[-1], right)
        else:
            raise TypeError(f"not a level: {node!r}")
    return values[0]


def _column_succ(column: list[int], n: int) -> list[int]:
    return [v + n for v in column]


def _column_max(a: list[int], b: list[int]) -> list[int]:
    return [i if i > j else j for i, j in zip(a, b)]


def _column_imax(a: list[int], b: list[int]) -> list[int]:
    return [0 if j == 0 else i if i > j else j for i, j in zip(a, b)]


def eval_level(t: Level, sigma: Valuation, width: Optional[int] = None) -> int | Sequence[int]:
    """Value of `t` under `sigma`.  Raises UnboundVariableError.

    With a `width`, `sigma` maps each variable to a column of `width`
    values, one per point, and the result is the column of `t`'s values at
    those points: one fold for all of them.
    """
    def var(vid: VarId):
        if vid not in sigma:
            raise UnboundVariableError(vid)
        return sigma[vid]
    if width is None:
        return fold_level(t, 0, var, add, max, imax_nat)
    return fold_level(t, [0] * width, var, _column_succ, _column_max, _column_imax)


def level_vars(t: Level) -> frozenset[VarId]:
    """The set of variable ids occurring in `t`."""
    # filled as variables are reached: a set union at every node would copy
    # the sets again at every level of a deep chain
    found: set[VarId] = set()
    fold_level(t, None, found.add, lambda value, n: None, lambda a, b: None, lambda a, b: None)
    return frozenset(found)


def level_size(t: Level) -> int:
    """Node count of `t`."""
    pair = lambda a, b: a + b + 1
    return fold_level(t, 1, lambda vid: 1, add, pair, pair)


def const_depth(t: Level) -> int:
    """Maximum number of successors stacked along any path of `t`."""
    return fold_level(t, 0, lambda vid: 0, add, max, max)


def default_grid_bound(t1: Level, t2: Level) -> int:
    """The value grid on which the oracle decides t1 <= t2 and t2 <= t1.

    Constant depth bounds every shift a minimal representation of either
    level can carry, and the witness constructions behind the sublevel
    comparison cases never need values above shift + 2, so this grid
    (constant depth + 3 >= max shift + 3) covers them with a margin of one:
    when it holds no counterexample, none exists.
    """
    return max(const_depth(t1), const_depth(t2)) + 3


def valuations_on(vids: tuple[VarId, ...], bound: int) -> Iterator[dict[VarId, int]]:
    """All valuations of `vids` with values in {0..bound}."""
    for values in product(range(bound + 1), repeat=len(vids)):
        yield dict(zip(vids, values))


# the grid oracle's block of valuations, evaluated together
GRID_BLOCK = 64


def find_counterexample_leq(t1: Level, t2: Level, bound: int) -> Optional[dict[VarId, int]]:
    """Search the {0..bound} grid for a valuation with value(t1) > value(t2).

    A returned valuation is always a genuine counterexample to t1 <= t2;
    returning None only means the grid holds no witness, not that t1 <= t2.
    The grid and its order are those of `valuations_on`, and the first
    witness in that order is the one returned.
    """
    vids = tuple(sorted(level_vars(t1) | level_vars(t2)))
    points = product(range(bound + 1), repeat=len(vids))
    # each level folds once per block of points, its values a column with
    # one entry per point; most witnesses lie in the first block
    while block := list(islice(points, GRID_BLOCK)):
        columns = dict(zip(vids, zip(*block)))
        lhs, rhs = (eval_level(t, columns, len(block)) for t in (t1, t2))
        for point, a, b in zip(block, lhs, rhs):
            if a > b:
                return dict(zip(vids, point))
    return None
