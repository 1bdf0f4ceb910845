from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from oracles import column_level, grid, up

import levelcanon
import levelcanon.normalize as nz
from levelcanon import IMax, Max, Succ, Var, ZERO, find_counterexample_leq, level_vars
from levelcanon.harness import GenConfig, gen_level


NORMALIZE_MEMOS = (nz._var_memo, nz._succ_memo, nz._max_memo, nz._imax_memo)


def run_in_child(script: str) -> subprocess.CompletedProcess:
    """`script` run by a fresh interpreter that imports this levelcanon."""
    env = dict(os.environ)
    src = str(Path(levelcanon.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)


def process_caches() -> list:
    """Every `lru_cache` wrapper bound at the top level of an imported
    `levelcanon` module, each once.  `test_process_caches.py` checks that
    the library keeps no other."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "levelcanon":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


@pytest.fixture(autouse=True)
def empty_process_caches():
    """The library's caches (`normalize`'s memos, the grid's layouts) are
    process-wide: every test starts and ends with them empty, so no entry
    made before a test, or under its monkeypatch, answers a call in another."""
    for cache in process_caches():
        cache.cache_clear()
    yield
    for cache in process_caches():
        cache.cache_clear()


def level_strategy(num_vars: int = 3, max_leaves: int = 10):
    leaves = st.just(ZERO) | st.integers(0, num_vars - 1).map(Var)
    return st.recursive(
        leaves,
        lambda ch: st.builds(Succ, ch) | st.builds(Max, ch, ch) | st.builds(IMax, ch, ch),
        max_leaves=max_leaves,
    )


# one step of a deep chain: the level so far, wrapped with a leaf
_WRAPS = (
    lambda t, leaf: Succ(t),
    lambda t, leaf: Max(t, leaf),
    lambda t, leaf: Max(leaf, t),
    lambda t, leaf: IMax(t, leaf),
    lambda t, leaf: IMax(leaf, t),
)


def _chain(base, steps, depth):
    t = base
    for i in range(depth):
        wrap, leaf = steps[i % len(steps)]
        t = wrap(t, leaf)
    return t


def deep_level_strategy(num_vars: int = 3, min_depth: int = 1_200, max_depth: int = 3_000):
    """Chains deeper than the default recursion limit, built iteratively: a
    short list of (constructor, leaf) steps, repeated up to a drawn depth.

    Hypothesis draws the pattern, not every step, because a list of
    thousands of draws is too large an input for it to generate or shrink.
    """
    leaves = st.just(ZERO) | st.integers(0, num_vars - 1).map(Var)
    steps = st.lists(st.tuples(st.sampled_from(_WRAPS), leaves), min_size=1, max_size=12)
    return st.builds(_chain, leaves, steps, st.integers(min_depth, max_depth))


# `gen_level`'s stream: the sha256 of its levels' reprs, one a line, for
# indices 0..1,499 of each configuration in turn.  The value is the one the
# generator gave drawing through `randint` and `randrange`, which `_below`
# must reproduce: the fuzz stream and the golden tests' levels come from it
GEN_STREAM_CONFIGS = (GenConfig(707, 50, 3), GenConfig(808, 12, 3), GenConfig(1, 50, 4),
                      GenConfig(3, 100, 5))
GEN_STREAM_SHA256 = "84126668cec0f79bfff2bb16cddd69ac131f2fe5ac650367429f93ff0e526891"


def gen_stream_sha256() -> str:
    digest = hashlib.sha256()
    for cfg in GEN_STREAM_CONFIGS:
        for index in range(1_500):
            digest.update(f"{gen_level(cfg, index)!r}\n".encode())
    return digest.hexdigest()


def _sweep_levels(count: int) -> list:
    """Four levels over the variables 0..count-1, each using all of them, of
    constant depths 0, 1, 3 and 6, so one grid shape meets several lane widths."""
    xs = [Var(v) for v in range(count)] or [ZERO]
    top, chain = xs[0], xs[-1]
    for x in xs[1:]:
        top = Max(top, x)
    for x in reversed(xs[:-1]):
        chain = IMax(x, chain)
    return [top, Succ(chain), Max(up(ZERO, 3), IMax(top, xs[-1])), up(Max(chain, xs[0]), 6)]


def oracle_sweep(max_bound: int = 10, max_vars: int = 5) -> tuple[int, int, object]:
    """Every ordered pair of distinct `_sweep_levels(count)` on the {0..bound}
    grid, for bounds 0..max_bound and 0..max_vars variables, checked against
    the oracle's contract: the first `valuations_on` point where the left side
    exceeds the right, by one `column_level` of each level over the whole
    grid.  Returns (pairs with a witness, pairs without, the first
    disagreement as (bound, count, t1, t2, found, first) or None)."""
    found_some = found_none = 0
    for bound in range(max_bound + 1):
        for count in range(max_vars + 1):
            levels = _sweep_levels(count)
            vids = tuple(sorted(set().union(*map(level_vars, levels))))
            points, columns = grid(vids, bound)
            values = [column_level(t, columns, len(points)) for t in levels]
            for i, t1 in enumerate(levels):
                for j, t2 in enumerate(levels):
                    if i == j:
                        continue
                    first = next((points[k] for k, (a, b) in enumerate(zip(values[i], values[j]))
                                  if a > b), None)
                    found = find_counterexample_leq(t1, t2, bound)
                    if found != first:
                        return found_some, found_none, (bound, count, t1, t2, found, first)
                    found_some += first is not None
                    found_none += first is None
    return found_some, found_none, None
