"""Host-speed calibration: operation times scaled to a reference speed.

The benchmark runs on a few cores of a shared host whose effective speed
swings by 30-50% over seconds to tens of seconds (a fixed pure-Python loop
with no levelcanon code in it does).  Those swings moved whole runs by more
than any bound a regression gate could use.  So after every timed operation
the run times a fixed reference unit, a short interpreter-bound loop that no
change to levelcanon can touch, for a share of the operation's own time.
Each operation's time is then scaled by REF_UNIT_S over the median unit time
in its block (consecutive operations spanning at least BLOCK_S of wall
time): what it would have taken on a host that runs the unit in REF_UNIT_S.

Of the three units tried (this loop, an allocation-heavy tree walk, a small
parse-and-normalize), this loop tracked decide's, fuzz's and cli's speed
best.  The process is pinned to one CPU, so that the unit, the operation and
any child process it starts run on the same core; unpinned, cli's child
processes did not follow the parent's unit at all.
"""

from __future__ import annotations

import os
import re
import statistics
import time

# per unit kind: median unit time on a 2-core x86-64 host at Python 3.11, at
# a quiet time; it only sets the scale of the reported times
REF_UNIT_S = {"alu": 1.3e-4, "mixed": 1.15e-4}
CAL_SHARE = 0.2    # calibration time after an operation, as a share of its time
BLOCK_S = 0.5      # wall time a block of operations spans, at least
WARMUP_UNITS = 200
SETUP_UNITS = 100  # units each set-up interpreter times after its imports


def _alu(steps: int) -> int:
    x = 0
    for i in range(steps):
        x = (x * 31 + i) % 1000003
    return x


_TOKEN = re.compile(r"\s*(\w+|.)")
_EXPRS = ("max(s(x),imax(y,s(s(z))))", "imax(max(a,b),max(s(a),c))",
          "s(max(x,max(y,max(z,s(w)))))", "max(imax(x,y),imax(y,x))")


def _parse(text: str) -> tuple:
    tokens = _TOKEN.findall(text)
    pos = 0

    def term() -> tuple:
        nonlocal pos
        head = tokens[pos]
        pos += 1
        if head not in ("max", "imax", "s"):
            return ("v", head)
        pos += 1  # "("
        args = [term()]
        while tokens[pos] == ",":
            pos += 1
            args.append(term())
        pos += 1  # ")"
        return (head, *args)
    return term()


def _atoms(t: tuple, shift: int = 0, guard: frozenset = frozenset()) -> frozenset:
    if t[0] == "v":
        return frozenset({(guard, t[1], shift)})
    if t[0] == "s":
        return _atoms(t[1], shift + 1, guard)
    right = _atoms(t[2], shift, guard)
    if t[0] == "imax":
        guard = guard | {v for _, v, _ in right}
    return _atoms(t[1], shift, guard) | right


def _alloc() -> int:
    """Parse and flatten a few small level texts: tuples, frozensets, calls."""
    return sum(len(sorted(_atoms(_parse(text)), key=repr)) for text in _EXPRS)


def alu_unit() -> int:
    return _alu(1500)


def mixed_unit() -> int:
    return _alu(750) + _alloc()


UNITS = {"alu": alu_unit, "mixed": mixed_unit}


def unit_seconds(kind: str) -> float:
    unit = UNITS[kind]
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts, to one usable CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Reference-unit times taken after each operation of a run."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: list[tuple[float, list[float]]] = []  # (stamp, unit times) per op

    def warm(self) -> None:
        for _ in range(WARMUP_UNITS):
            unit_seconds(self.kind)

    def after(self, elapsed: float) -> None:
        """Time units until they cover CAL_SHARE of `elapsed`, at least one."""
        times, spent = [], 0.0
        while not times or spent < CAL_SHARE * elapsed:
            times.append(unit_seconds(self.kind))
            spent += times[-1]
        self.samples.append((time.perf_counter(), times))

    def factors(self) -> list[float]:
        """One factor per operation: the reference unit time over its block's median unit
        time.  A last block shorter than BLOCK_S joins the one before it."""
        blocks: list[list[int]] = []
        start = None
        for i, (stamp, _) in enumerate(self.samples):
            if start is None or stamp - start >= BLOCK_S:
                blocks.append([])
                start = stamp
            blocks[-1].append(i)
        if len(blocks) > 1 and self.samples[-1][0] - self.samples[blocks[-1][0]][0] < BLOCK_S:
            blocks[-2].extend(blocks.pop())
        out = [0.0] * len(self.samples)
        for block in blocks:
            med = statistics.median(t for i in block for t in self.samples[i][1])
            for i in block:
                out[i] = REF_UNIT_S[self.kind] / med
        return out

    def median_unit_s(self) -> float:
        return statistics.median(t for _, times in self.samples for t in times)
