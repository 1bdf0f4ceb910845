"""Level terms, their valuation semantics, and a bounded brute-force oracle.

A level is a term over 0, successor, binary max, binary impredicative max,
and variables.  Variables are plain integer ids; the surface layer owns the
mapping between source names and ids.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add
from typing import Callable, Mapping, Optional, Sequence, TypeVar

VarId = int
Valuation = Mapping[VarId, int]
T = TypeVar("T")


class _Node:
    """A level node: immutable, holding only its fields, named by
    `__match_args__`.

    Hash, equality and pickling read the level's post-order records
    (`_records`), one fold of any depth; `_unfold` rebuilds a level from
    them, so equal records are equal levels.  Repr is `printer.level_repr`'s
    text.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _records(self) -> tuple[tuple, ...]:
        # (Var, vid), (Succ, n, child) for a run of n successors, (Max or
        # IMax, left, right); a side is 0 for a zero and None for a node
        # recorded before, the value every record returns
        ops: list[tuple] = []
        fold_level(self, 0, lambda vid: ops.append((Var, vid)),
                   lambda child, n: ops.append((Succ, n, child)),
                   lambda a, b: ops.append((Max, a, b)), lambda a, b: ops.append((IMax, a, b)))
        return tuple(ops)

    def __hash__(self) -> int:
        return hash(self._records())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._records() == other._records()

    def __repr__(self) -> str:
        from .printer import level_repr
        return level_repr(self)

    def __reduce__(self) -> tuple:
        return _unfold, (self._records(),)


class Zero(_Node):
    __slots__ = ()


class Succ(_Node):
    __slots__ = ("child",)
    __match_args__ = ("child",)

    def __init__(self, child: "Level"):
        _set_child(self, child)


class _Binary(_Node):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: "Level", right: "Level"):
        _set_left(self, left)
        _set_right(self, right)


class Max(_Binary):
    __slots__ = ()


class IMax(_Binary):
    __slots__ = ()


class Var(_Node):
    __slots__ = ("vid",)
    __match_args__ = ("vid",)

    def __init__(self, vid: VarId):
        _set_vid(self, vid)


# a node's fields are set once, in its __init__, through the slot descriptors
# bound here; its own __setattr__ refuses any later assignment
_set_child = Succ.child.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_vid = Var.vid.__set__

Level = Zero | Succ | Max | IMax | Var

ZERO = Zero()


def _unfold(ops: tuple[tuple, ...]) -> Level:
    """The level whose post-order records `_Node._records` made: each
    record's sides that are None are the last levels built, taken off the
    stack right side first.  No records is 0."""
    built: list[Level] = []
    side = lambda value: built.pop() if value is None else ZERO
    for kind, *args in ops:
        if kind is Var:
            built.append(Var(args[0]))
        elif kind is Succ:
            t = side(args[1])
            for _ in range(args[0]):
                t = Succ(t)
            built.append(t)
        else:
            right = side(args[1])
            built.append(kind(side(args[0]), right))
    return built.pop() if built else ZERO


class UnboundVariableError(LookupError):
    """A level was evaluated under a valuation missing one of its variables."""

    def __init__(self, vid: VarId):
        super().__init__(f"variable id {vid} is not bound in the valuation")
        self.vid = vid

    def __reduce__(self) -> tuple:
        return type(self), (self.vid,)


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


def level_facts(t: Level) -> tuple[frozenset[VarId], int, int]:
    """`level_vars(t)`, `level_size(t)` and `const_depth(t)`, from one fold."""
    found: set[VarId] = set()
    var = lambda vid: found.add(vid) or (1, 0)
    pair = lambda a, b: (a[0] + b[0] + 1, a[1] if a[1] > b[1] else b[1])
    size, depth = fold_level(t, (1, 0), var, lambda a, n: (a[0] + n, a[1] + n), pair, pair)
    return frozenset(found), size, depth


def grid_bound(depth1: int, depth2: int) -> int:
    """The value grid on which the oracle decides t1 <= t2 and t2 <= t1,
    given their constant depths.

    Constant depth bounds every shift a minimal representation of either
    level can carry, and the witness constructions behind the sublevel
    comparison cases never need values above shift + 2, so this grid
    (constant depth + 3 >= max shift + 3) covers them with a margin of one:
    when it holds no counterexample, none exists.
    """
    return max(depth1, depth2) + 3


def default_grid_bound(t1: Level, t2: Level) -> int:
    """`grid_bound` for the levels t1 and t2."""
    return grid_bound(const_depth(t1), const_depth(t2))


# the most grid points the oracle evaluates in one fold of a level
GRID_LANES = 4096
GRID_LAYOUTS = 256  # the most block layouts it keeps; a fuzz run meets a few dozen


def _repunit(count: int, step: int) -> int:
    """`count` lanes of `step` bits, each holding 1."""
    return ((1 << step * count) - 1) // ((1 << step) - 1)


def _ramp(count: int, step: int) -> int:
    """`count` lanes of `step` bits holding 0, 1, ..., count - 1 from the
    lowest: the sum of i * x**i for x = 2**step, in closed form."""
    return (((count - 1) << step * count) - _repunit(count, step) + 1) // ((1 << step) - 1)


@lru_cache(maxsize=GRID_LAYOUTS)
def _layout(side: int, width: int, count: int) -> tuple[int, int, tuple[int, ...]]:
    """A block of the grid of `count` variables over {0..side - 1}, in lanes
    of `width` bits: its lane count, the int with 1 in each lane, and the
    trailing variables' columns, the last variable first."""
    trailing, lanes = 0, 1
    while trailing < count and lanes * side <= GRID_LANES:
        trailing, lanes = trailing + 1, lanes * side
    # a trailing variable is constant over runs of `stride` lanes, its
    # values counting up through {0..side - 1} and starting over
    columns, stride = [], 1
    for _ in range(trailing):
        period = stride * side
        columns.append(_ramp(side, width * stride) * _repunit(stride, width)
                       * _repunit(lanes // period, width * period))
        stride = period
    return lanes, _repunit(lanes, width), tuple(columns)


def find_counterexample_leq(t1: Level, t2: Level, bound: int) -> Optional[dict[VarId, int]]:
    """Search the {0..bound} grid for a valuation with value(t1) > value(t2).

    A returned valuation is always a genuine counterexample to t1 <= t2;
    returning None only means the grid holds no witness, not that t1 <= t2.
    The grid's order is lexicographic in ascending variable id, the first
    variable slowest, and the first witness in that order is the one
    returned.  Raises ValueError on a negative bound.

    A block of at most GRID_LANES points is one int per variable, point p
    the lane of `width` bits at bit width * p, and each level folds once per
    block.  A block fixes the leading variables and runs the trailing ones,
    which keeps that order.  Lanes cannot interfere: variables lie in
    {0..bound}, max and imax pick a side's value, and successors add at most
    the larger constant depth d of the two levels, so every value is at most
    bound + d < 2 ** (width - 1).  The top bit of each lane, its
    guard, is then 0, and `(a | G) - b` borrows only within each lane: the
    guard stays set exactly where a >= b.  A block's layout depends only on
    the grid's shape, so the last GRID_LAYOUTS layouts are kept (`_layout`).
    """
    if bound < 0:
        raise ValueError(f"grid bound {bound} is negative")
    side = bound + 1
    found: set[VarId] = set()
    # one fold per level finds both its variables and its constant depth
    depth = lambda t: fold_level(t, 0, lambda vid: found.add(vid) or 0, add, max, max)
    width = (bound + max(depth(t1), depth(t2))).bit_length() + 1
    shift = width - 1
    vids = tuple(sorted(found))
    lanes, ones, ramps = _layout(side, width, len(vids))
    guards = ones << shift
    leading, trailing = vids[:len(vids) - len(ramps)], vids[len(vids) - len(ramps):]
    columns = dict(zip(reversed(trailing), ramps))

    # a set guard less its shifted copy sets the value bits of its lane
    def max_(a: int, b: int) -> int:
        ge = ((a | guards) - b) & guards
        return b ^ ((a ^ b) & (ge - (ge >> shift)))

    def imax(a: int, b: int) -> int:
        nonzero = ((b | guards) - ones) & guards
        return max_(a, b) & (nonzero - (nonzero >> shift))
    succ = lambda a, n: a + n * ones
    for block, head in enumerate(product(range(side), repeat=len(leading))):
        columns.update(zip(leading, (value * ones for value in head)))
        lhs, rhs = (fold_level(t, 0, columns.__getitem__, succ, max_, imax) for t in (t1, t2))
        # guards left set where lhs - rhs - 1 >= 0; the lowest is the first
        above = ((lhs | guards) - rhs - ones) & guards
        if above:
            index = block * lanes + ((above & -above).bit_length() - 1) // width
            places = reversed(range(len(vids)))
            return dict(zip(vids, (index // side ** k % side for k in places)))
    return None
