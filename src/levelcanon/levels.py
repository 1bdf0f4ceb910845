"""Level terms, their valuation semantics, and a bounded brute-force oracle.

A level is a term over 0, successor, binary max, binary impredicative max,
and variables.  Variables are plain integer ids; the surface layer owns the
mapping between source names and ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Optional

VarId = int
Valuation = Mapping[VarId, int]


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Succ:
    child: "Level"


@dataclass(frozen=True)
class Max:
    left: "Level"
    right: "Level"


@dataclass(frozen=True)
class IMax:
    left: "Level"
    right: "Level"


@dataclass(frozen=True)
class Var:
    vid: VarId


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


def eval_level(t: Level, sigma: Valuation) -> int:
    """Value of `t` under `sigma`.  Raises UnboundVariableError."""
    # Successor runs are walked iteratively so constant towers do not recurse.
    acc = 0
    while isinstance(t, Succ):
        acc += 1
        t = t.child
    match t:
        case Zero():
            return acc
        case Var(vid):
            if vid not in sigma:
                raise UnboundVariableError(vid)
            return acc + sigma[vid]
        case Max(a, b):
            return acc + max(eval_level(a, sigma), eval_level(b, sigma))
        case IMax(a, b):
            return acc + imax_nat(eval_level(a, sigma), eval_level(b, sigma))
    raise TypeError(f"not a level: {t!r}")


def level_vars(t: Level) -> frozenset[VarId]:
    """The set of variable ids occurring in `t`."""
    out: set[VarId] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        match node:
            case Var(vid):
                out.add(vid)
            case Succ(c):
                stack.append(c)
            case Max(a, b) | IMax(a, b):
                stack.append(a)
                stack.append(b)
    return frozenset(out)


def level_size(t: Level) -> int:
    """Node count of `t`."""
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        match node:
            case Succ(c):
                stack.append(c)
            case Max(a, b) | IMax(a, b):
                stack.append(a)
                stack.append(b)
    return n


def const_depth(t: Level) -> int:
    """Maximum number of successors stacked along any path of `t`."""
    acc = 0
    while isinstance(t, Succ):
        acc += 1
        t = t.child
    match t:
        case Max(a, b) | IMax(a, b):
            return acc + max(const_depth(a), const_depth(b))
        case _:
            return acc


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


def find_counterexample_leq(t1: Level, t2: Level, bound: int) -> Optional[dict[VarId, int]]:
    """Search the {0..bound} grid for a valuation with value(t1) > value(t2).

    A returned valuation is always a genuine counterexample to t1 <= t2;
    returning None only means the grid holds no witness, not that t1 <= t2.
    """
    vids = tuple(sorted(level_vars(t1) | level_vars(t2)))
    for sigma in valuations_on(vids, bound):
        if eval_level(t1, sigma) > eval_level(t2, sigma):
            return sigma
    return None
