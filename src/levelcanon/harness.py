"""Random level generation and the differential test loop.

Each case cross-checks three computation paths on a generated level: the
valuation oracle, the normalizer, and the rewrite engine; plus both
directions of the comparison decision against grid search on a paired level.
Failures carry a reproducible witness.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Optional

from .levels import (
    IMax, Level, Max, Succ, Var, ZERO, default_grid_bound,
    eval_level, find_counterexample_leq, level_size, level_vars, valuations_on,
)
from .normalize import eval_repr, leq_repr, normalize
from .parser import NameTable
from .printer import level_repr, print_atom, print_level
from .rewrite.codec import soundness_report
from .sublevels import SubA, SubB, SubLevel, eval_sub, leq_sub

# generated numerals are successor towers of height 1..CONST_BOUND
CONST_BOUND = 3


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_size: int = 50
    num_vars: int = 3

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")
        if self.num_vars < 0:
            raise ValueError("num_vars must be a natural")


@dataclass(frozen=True)
class Failure:
    level: str
    other: Optional[str]
    # "eval" | "rewrite" (a wrong normal form) | "budget" (the rewrite path
    # ran out of steps before a normal form) | "compare"
    phase: str
    witness: Optional[dict[str, int]]

    def to_json(self) -> dict:
        return {"level": self.level, "other": self.other,
                "phase": self.phase, "witness": self.witness}


@dataclass(frozen=True)
class DiffReport:
    cases_run: int
    failures: tuple[Failure, ...]
    step_stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "cases_run": self.cases_run,
            "failures": [f.to_json() for f in self.failures],
            "step_stats": self.step_stats,
        }
        return json.dumps(payload, separators=(",", ":"))


def _rng_for(cfg: GenConfig, index: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{index}:level")


def _gen(rng: random.Random, budget: int, cfg: GenConfig) -> Level:
    if budget <= 1 or rng.random() < 0.22:
        pick = rng.random()
        if pick < 0.30 or cfg.num_vars == 0:
            if budget >= 2 and pick < 0.12:
                t: Level = ZERO
                for _ in range(rng.randint(1, min(CONST_BOUND, budget - 1))):
                    t = Succ(t)
                return t
            return ZERO
        return Var(rng.randrange(cfg.num_vars))
    if budget == 2 or rng.random() < 0.30:
        return Succ(_gen(rng, budget - 1, cfg))
    left_budget = rng.randint(1, budget - 2)
    left = _gen(rng, left_budget, cfg)
    right = _gen(rng, budget - 1 - left_budget, cfg)
    return Max(left, right) if rng.random() < 0.5 else IMax(left, right)


def gen_level(cfg: GenConfig, index: int) -> Level:
    """Deterministic level for (cfg, index); node count <= cfg.max_size."""
    rng = _rng_for(cfg, index)
    size = rng.randint(1, cfg.max_size)
    return _gen(rng, size, cfg)


def harness_names(num_vars: int) -> NameTable:
    names = NameTable()
    for i in range(num_vars):
        names.intern(f"x{i}")
    return names


def _names_for(*ts: Level) -> NameTable:
    top = -1
    for t in ts:
        vs = level_vars(t)
        if vs:
            top = max(top, max(vs))
    return harness_names(top + 1)


def _digest(t: Level) -> int:
    """The case's seed for its partner level and its valuations."""
    return zlib.crc32(level_repr(t).encode())


def _pair_for(t: Level, digest: int) -> Level:
    """Deterministic partner level, sharing t's variable pool."""
    vs = level_vars(t)
    num_vars = max(3, max(vs) + 1) if vs else 3
    cfg = GenConfig(seed=digest, max_size=max(4, min(20, level_size(t))),
                    num_vars=num_vars)
    return gen_level(cfg, 0)


def _differential_case(t: Level) -> tuple[Optional[Failure], int]:
    vids = tuple(sorted(level_vars(t)))
    r = normalize(t)
    digest = _digest(t)
    rng = random.Random(digest ^ 0x5EED)

    # (a) representation evaluation against the level semantics
    sigmas = [dict.fromkeys(vids, 0), dict.fromkeys(vids, 1)]
    for _ in range(20):
        sigmas.append({v: rng.randint(0, 6) for v in vids})
    # the values of the level and of its representation at all the
    # valuations at once, a column each
    columns = {v: [sigma[v] for sigma in sigmas] for v in vids}
    expected = eval_level(t, columns, len(sigmas))
    for sigma, value, got in zip(sigmas, expected, eval_repr(r, columns, len(sigmas))):
        if got != value:
            names = _names_for(t)
            return Failure(print_level(t, names), None, "eval",
                           {names.name_of(v): n for v, n in sigma.items()}), 0

    # (b) the rewrite path must land on the same representation
    ok, report = soundness_report(t)
    if not ok:
        phase = "budget" if report.budget_exhausted else "rewrite"
        return Failure(print_level(t, _names_for(t)), None, phase, None), report.steps

    # (c) comparison decision against grid search, both directions
    t2 = _pair_for(t, digest)
    r2 = normalize(t2)
    grid = default_grid_bound(t, t2)
    for lhs, rhs, n_lhs, n_rhs in ((t, t2, r, r2), (t2, t, r2, r)):
        claimed = leq_repr(n_lhs, n_rhs)
        witness = find_counterexample_leq(lhs, rhs, grid)
        # a claimed t1 <= t2 with a witness is refuted; so is a claimed
        # strict inequality without one, since the grid covers every
        # witness construction
        if claimed == (witness is not None):
            names = _names_for(t, t2)
            shown = None if witness is None else {
                names.name_of(v): n for v, n in witness.items()}
            return Failure(print_level(lhs, names), print_level(rhs, names), "compare",
                           shown), report.steps
    return None, report.steps


def differential_case(t: Level) -> Optional[Failure]:
    """Run one level through all phases; None means every path agreed."""
    return _differential_case(t)[0]


def run_fuzz(cfg: GenConfig, cases: int) -> DiffReport:
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


def enumerate_sublevels(max_vars: int, max_shift: int) -> list[SubLevel]:
    """Every valid sublevel over variable ids 0..max_vars-1 with shift <= max_shift.

    Counts: A-atoms number max_vars * 2^(max_vars-1) * (max_shift+1), B-atoms
    2^max_vars * max_shift; (2,2) gives 20 atoms, (3,3) gives 72.
    """
    vids = range(max_vars)
    subsets = [tuple(v for v in vids if mask >> v & 1) for mask in range(1 << max_vars)]
    out: list[SubLevel] = []
    for varset in subsets:
        for x in varset:
            out.extend(SubA(varset, x, s) for s in range(max_shift + 1))
        out.extend(SubB(varset, s) for s in range(1, max_shift + 1))
    return out


def exhaustive_sublevel_suite(max_vars: int, max_shift: int, bound: int) -> DiffReport:
    """Check leq_sub against exhaustive grid evaluation on every ordered pair."""
    atoms = enumerate_sublevels(max_vars, max_shift)
    names = harness_names(max_vars)
    grid = list(valuations_on(tuple(range(max_vars)), bound))
    vectors = [tuple(eval_sub(u, sigma) for sigma in grid) for u in atoms]
    failures: list[Failure] = []
    pairs = 0
    for i, u in enumerate(atoms):
        for j, v in enumerate(atoms):
            pairs += 1
            semantic = all(a <= b for a, b in zip(vectors[i], vectors[j]))
            if semantic != leq_sub(u, v):
                failures.append(Failure(print_atom(u, names), print_atom(v, names),
                                        "compare", None))
    return DiffReport(pairs, tuple(failures))

