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


class _Scalar:
    """`_Lanes`'s operations on one plain natural, the value at one
    valuation, a mask being -1 (every bit set) or 0: the class itself is the
    evaluators' default lanes."""
    succ, max_, imax = staticmethod(add), staticmethod(max), staticmethod(imax_nat)
    nonzero = staticmethod(lambda a: -1 if a else 0)


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


def eval_level(t: Level, sigma: Valuation, lanes: _Lanes | type[_Scalar] = _Scalar) -> int:
    """Value of `t` under `sigma`.  Raises UnboundVariableError.

    With `lanes`, `sigma` maps each variable to its values at some points,
    packed one a lane, and the result is `t`'s values there, packed: one
    fold for all of them.  Without, the one point's values are plain.
    """
    def var(vid: VarId):
        if vid not in sigma:
            raise UnboundVariableError(vid)
        return sigma[vid]
    return fold_level(t, 0, var, lanes.succ, lanes.max_, lanes.imax)


def level_vars(t: Level) -> frozenset[VarId]:
    """The set of variable ids occurring in `t`."""
    return level_facts(t)[0]


def level_size(t: Level) -> int:
    """Node count of `t`."""
    return level_facts(t)[1]


def const_depth(t: Level) -> int:
    """Maximum number of successors stacked along any path of `t`."""
    return level_facts(t)[2]


def level_facts(t: Level) -> tuple[frozenset[VarId], int, int]:
    """`t`'s variable ids, node count and constant depth, from one fold."""
    # filled as variables are reached: a set union at every node would copy
    # the sets again at every level of a deep chain
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


class _Lanes:
    """`count` lanes in one int, each wide enough for the values 0..top,
    lane p at bit width * p, so an int holds a value per point and each
    operation acts on every lane at once (SIMD within a register).

    A lane is one bit wider than top needs, the highest bit its guard.  The
    lanes keep apart while values are below 2 ** (width - 1), as every value
    up to top is, and b in `at_least(a, b)` at most that, as top + 1 still
    is (2 ** (width - 1) > top): the guard of each lane of a is then 0,
    and `(a | guards) - b` borrows only within each lane, leaving the guard
    set exactly where a >= b.  A set guard less its shifted copy sets the
    value bits of its lane.
    """

    __slots__ = ("count", "width", "ones", "_guards", "_shift")

    def __init__(self, count: int, top: int):
        self.count, self.width = count, top.bit_length() + 1
        self._shift = self.width - 1
        self.ones = _repunit(count, self.width)
        self._guards = self.ones << self._shift

    def at_least(self, a: int, b: int) -> int:
        """The value bits of each lane where a >= b."""
        ge = ((a | self._guards) - b) & self._guards
        return ge - (ge >> self._shift)

    def succ(self, a: int, n: int) -> int:
        return a + n * self.ones

    def max_(self, a: int, b: int) -> int:
        return b ^ ((a ^ b) & self.at_least(a, b))

    def imax(self, a: int, b: int) -> int:
        return self.max_(a, b) & self.nonzero(b)

    def nonzero(self, a: int) -> int:
        """The value bits of each lane where a is not 0."""
        return self.at_least(a, self.ones)

    def pack(self, column: Sequence[int]) -> int:
        """The values of `column`, the first in the lowest lane."""
        return sum(value << self.width * p for p, value in enumerate(column))

    def first(self, mask: int) -> int:
        """The index of the lowest lane of `mask` with a bit set."""
        return ((mask & -mask).bit_length() - 1) // self.width


@lru_cache(maxsize=GRID_LAYOUTS)
def _layout(side: int, top: int, count: int) -> tuple[_Lanes, tuple[int, ...]]:
    """A block of the grid of `count` variables over {0..side - 1}, in lanes
    that hold the values 0..top: its lanes, and the trailing variables'
    columns, the last variable first."""
    trailing, lanes = 0, 1
    while trailing < count and lanes * side <= GRID_LANES:
        trailing, lanes = trailing + 1, lanes * side
    block = _Lanes(lanes, top)
    width = block.width
    # a trailing variable is constant over runs of `stride` lanes, its
    # values counting up through {0..side - 1} and starting over
    columns, stride = [], 1
    for _ in range(trailing):
        period = stride * side
        columns.append(_ramp(side, width * stride) * _repunit(stride, width)
                       * _repunit(lanes // period, width * period))
        stride = period
    return block, tuple(columns)


def find_counterexample_leq(t1: Level, t2: Level, bound: int) -> Optional[dict[VarId, int]]:
    """Search the {0..bound} grid for a valuation with value(t1) > value(t2).

    A returned valuation is always a genuine counterexample to t1 <= t2;
    returning None only means the grid holds no witness, not that t1 <= t2.
    The grid's order is lexicographic in ascending variable id, the first
    variable slowest, and the first witness in that order is the one
    returned.  Raises ValueError on a negative bound.

    A block of at most GRID_LANES points is one int per variable, a lane
    (`_Lanes`) per point, and each level folds once per block.  A block
    fixes the leading variables and runs the trailing ones, which keeps that
    order.  Variables lie in {0..bound}, max and imax pick a side's value,
    and successors add at most the larger constant depth d of the two
    levels, so every value is at most bound + d, the lanes' top.  A block's
    layout depends only on the grid's shape, so the last GRID_LAYOUTS
    layouts are kept (`_layout`).
    """
    if bound < 0:
        raise ValueError(f"grid bound {bound} is negative")
    side = bound + 1
    # one fold finds both levels' variables and the larger constant depth
    found, _, depth = level_facts(Max(t1, t2))
    vids = tuple(sorted(found))
    lanes, ramps = _layout(side, bound + depth, len(vids))
    leading, trailing = vids[:len(vids) - len(ramps)], vids[len(vids) - len(ramps):]
    columns = dict(zip(reversed(trailing), ramps))
    for block, head in enumerate(product(range(side), repeat=len(leading))):
        columns.update(zip(leading, (value * lanes.ones for value in head)))
        lhs, rhs = (eval_level(t, columns, lanes) for t in (t1, t2))
        above = lanes.at_least(lhs, lanes.succ(rhs, 1))
        if above:
            index = block * lanes.count + lanes.first(above)
            places = reversed(range(len(vids)))
            return dict(zip(vids, (index // side ** k % side for k in places)))
    return None
