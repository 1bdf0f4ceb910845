"""Random level generation and the differential test loop.

Each case cross-checks three computation paths on a generated level: the
valuation oracle, the normalizer, and the rewrite engine; plus both
directions of the comparison decision against grid search on a paired level.
Failures carry a reproducible witness.
"""

from __future__ import annotations

import random
import zlib
from typing import NamedTuple, Optional

from .levels import (
    Grid, IMax, Level, Max, Succ, Var, ZERO, _Lanes, eval_level, find_counterexample_leq,
    grid_bound, level_facts,
)
from .normalize import eq_repr, eval_repr, leq_repr, normalize
from .parser import NameTable
from .printer import level_repr, print_level
from .rewrite.codec import soundness_report

# generated numerals are successor towers of height 1..CONST_BOUND
CONST_BOUND = 3


# a NamedTuple cannot define __new__: a record that checks or fills in its
# fields is a subclass of one
class _GenConfig(NamedTuple):
    seed: int
    max_size: int
    num_vars: int


class GenConfig(_GenConfig):
    __slots__ = ()

    def __new__(cls, seed: int = 0, max_size: int = 50, num_vars: int = 3):
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        if num_vars < 0:
            raise ValueError("num_vars must be a natural")
        return super().__new__(cls, seed, max_size, num_vars)


class Failure(NamedTuple):
    level: str
    other: Optional[str]
    # "eval" | "rewrite" (a wrong normal form) | "budget" (the rewrite path
    # ran out of steps before a normal form) | "compare"
    phase: str
    witness: Optional[dict[str, int]]

    def to_json(self) -> dict:
        """The failure as a dict of its fields, the witness a copy."""
        return {**self._asdict(), "witness": None if self.witness is None else dict(self.witness)}


class _DiffReport(NamedTuple):
    cases_run: int
    failures: tuple[Failure, ...]
    step_stats: dict[str, int]


class DiffReport(_DiffReport):
    __slots__ = ()

    def __new__(cls, cases_run: int, failures: tuple[Failure, ...],
                step_stats: Optional[dict[str, int]] = None):
        return super().__new__(cls, cases_run, failures, {} if step_stats is None else step_stats)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        import json  # here, so that only printing a fuzz report loads it
        return json.dumps({"cases_run": self.cases_run,
                           "failures": [f.to_json() for f in self.failures],
                           "step_stats": self.step_stats}, separators=(",", ":"))


def _rng_for(cfg: GenConfig, index: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{index}:level")


def _below(rng: random.Random, n: int) -> int:
    """`rng.randrange(n)` for n >= 1, draw for draw: `getrandbits` of n's bit
    length until the value is below n, without `randrange`'s checks."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _gen(rng: random.Random, budget: int, cfg: GenConfig) -> Level:
    if budget <= 1 or rng.random() < 0.22:
        pick = rng.random()
        if pick < 0.30 or cfg.num_vars == 0:
            if budget >= 2 and pick < 0.12:
                t: Level = ZERO
                for _ in range(1 + _below(rng, min(CONST_BOUND, budget - 1))):
                    t = Succ(t)
                return t
            return ZERO
        return Var(_below(rng, cfg.num_vars))
    if budget == 2 or rng.random() < 0.30:
        return Succ(_gen(rng, budget - 1, cfg))
    left_budget = 1 + _below(rng, budget - 2)
    left = _gen(rng, left_budget, cfg)
    right = _gen(rng, budget - 1 - left_budget, cfg)
    return Max(left, right) if rng.random() < 0.5 else IMax(left, right)


def gen_level(cfg: GenConfig, index: int) -> Level:
    """Deterministic level for (cfg, index); node count <= cfg.max_size."""
    rng = _rng_for(cfg, index)
    size = 1 + _below(rng, cfg.max_size)
    return _gen(rng, size, cfg)


def harness_names(num_vars: int) -> NameTable:
    names = NameTable()
    for i in range(num_vars):
        names.intern(f"x{i}")
    return names


def _digest(t: Level) -> int:
    """The case's seed for its partner level and its valuations."""
    return zlib.crc32(level_repr(t).encode())


def _pair_for(size: int, digest: int, pool: int) -> Level:
    """Deterministic partner of a level of `size` nodes, over the ids 0..pool-1."""
    cfg = GenConfig(seed=digest, max_size=max(4, min(20, size)), num_vars=pool)
    return gen_level(cfg, 0)


def _failure(pool: int, phase: str, t: Level, other: Optional[Level] = None,
             witness: Optional[dict[int, int]] = None) -> Failure:
    """The report of a failed case, its variables named from a pool of `pool`."""
    names = harness_names(pool)
    return Failure(print_level(t, names), None if other is None else print_level(other, names),
                   phase, None if witness is None else {
                       names.name_of(v): n for v, n in witness.items()})


def _differential_case(t: Level) -> tuple[Optional[Failure], int]:
    found, size, depth = level_facts(t)
    vids = tuple(sorted(found))
    ok, report, r = soundness_report(t)
    digest = _digest(t)
    rng = random.Random(digest ^ 0x5EED)
    pool = max(3, vids[-1] + 1) if vids else 3

    # (a) representation evaluation against the level semantics at 22
    # valuations at once, valuation k in lane k (all 0, all 1, then 20 drawn
    # valuation by valuation, ids ascending), lanes holding every value
    draws = [_below(rng, 7) for _ in range(20 * len(vids))]
    columns = {v: [0, 1, *draws[i::len(vids)]] for i, v in enumerate(vids)}
    lanes = _Lanes(22, 6 + max(depth, max((u.shift for u in r), default=0)))
    sigma = {v: lanes.pack(column) for v, column in columns.items()}
    wrong = eval_level(t, sigma, lanes) ^ eval_repr(r, sigma, lanes)
    if wrong:
        k = lanes.first(wrong)
        return _failure(pool, "eval", t, witness={v: columns[v][k] for v in vids}), 0

    # (b) the rewrite path, run at the top, must land on the same representation
    if not ok:
        phase = "budget" if report.budget_exhausted else "rewrite"
        return _failure(pool, phase, t), report.steps

    # (c) comparison decision against grid search, both directions, on one
    # grid of the pair that folds each level once for both
    t2 = _pair_for(size, digest, pool)
    r2 = normalize(t2)
    found2, _, depth2 = level_facts(t2)
    grid = Grid(t, t2, grid_bound(depth, depth2), tuple(sorted(found | found2)), max(depth, depth2))
    apart = None  # the first witness, of either direction, that t and t2 differ
    for lhs, rhs, n_lhs, n_rhs in ((t, t2, r, r2), (t2, t, r2, r)):
        claimed = leq_repr(n_lhs, n_rhs)
        witness = find_counterexample_leq(lhs, rhs, grid)
        # a claimed t1 <= t2 with a witness is refuted; so is a claimed
        # strict inequality without one, since the grid covers every
        # witness construction; and a witness must refute t1 <= t2 at its
        # one point, by the scalar evaluator
        if claimed == (witness is not None) or (
                witness is not None and eval_level(lhs, witness) <= eval_level(rhs, witness)):
            return _failure(pool, "compare", lhs, rhs, witness), report.steps
        apart = witness if apart is None else apart
    # so the representations are equal exactly when neither direction has a witness
    if eq_repr(r, r2) == (apart is not None):
        return _failure(pool, "compare", t, t2, apart), report.steps
    return None, report.steps


def differential_case(t: Level) -> Optional[Failure]:
    """Run one level through all phases; None means every path agreed."""
    return _differential_case(t)[0]


def run_fuzz(cfg: GenConfig, cases: int) -> DiffReport:
    if cases < 0:
        raise ValueError("cases must be a natural")
    failures: list[Failure] = []
    steps: list[int] = []
    for index in range(cases):
        failure, nsteps = _differential_case(gen_level(cfg, index))
        steps.append(nsteps)
        if failure is not None:
            failures.append(failure)
    stats = {}
    if steps:
        stats = {"min": min(steps), "max": max(steps),
                 "total": sum(steps), "mean": sum(steps) // len(steps)}
    return DiffReport(cases, tuple(failures), stats)

