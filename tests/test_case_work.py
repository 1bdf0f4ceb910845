"""What a fuzz case does once per shape, pinned without a clock.

A case draws through `harness._below`, which must give `randrange`'s stream
draw for draw, so that `gen_level` and the eval phase's valuations stay the
ones they were.  The grid oracle keeps each block layout (`levels._layout`),
which must not change its answers whether the cache is cold or warm, and
must stay bounded.  And a case folds its levels a fixed number of times.
"""

from __future__ import annotations

import random
import sys

from conftest import GEN_STREAM_SHA256, gen_stream_sha256, oracle_sweep

import levelcanon.normalize
import levelcanon.printer
import levelcanon.rewrite.codec
from levelcanon import Succ, Var, levels
from levelcanon.harness import GenConfig, _below, differential_case, gen_level
from levelcanon.levels import GRID_LAYOUTS, find_counterexample_leq


def test_below_is_randrange_draw_for_draw():
    # on the interpreter in use: one whose randrange draws otherwise fails here
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [_below(ours, n) for n in range(1, 71)] == [
            theirs.randrange(n) for n in range(1, 71)], seed
        assert ours.getstate() == theirs.getstate()


def test_gen_level_gives_the_stream_randint_gave():
    assert gen_stream_sha256() == GEN_STREAM_SHA256


def test_the_oracle_gives_the_first_witness_with_its_layouts_cold_and_warm():
    levels._layout.cache_clear()
    cold = oracle_sweep()
    assert levels._layout.cache_info().hits > 0
    assert oracle_sweep() == cold
    found, none, disagreement = cold
    assert disagreement is None
    assert (found, none) == (512, 280)


def test_the_layout_cache_stays_bounded():
    x = Var(0)
    for bound in range(1_000):
        assert find_counterexample_leq(Succ(x), x, bound) == {0: 0}
    assert levels._layout.cache_info().currsize == GRID_LAYOUTS


def test_a_fuzz_case_makes_nine_folds(monkeypatch):
    # every binding of `fold_level` in the library, wherever a case reaches it
    fold = levels.fold_level
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return fold(*args)
    bound = sorted(name for name, module in list(sys.modules.items())
                   if name.startswith("levelcanon") and getattr(module, "fold_level", None) is fold)
    assert {"levelcanon.levels", "levelcanon.normalize", "levelcanon.printer",
            "levelcanon.rewrite.codec"} <= set(bound)
    cfg = GenConfig(seed=707, max_size=50)
    cases = [gen_level(cfg, index) for index in range(300)]
    levels._layout.cache_clear()
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "fold_level", counting)
    assert all(differential_case(t) is None for t in cases)
    # 2 in the grid both searches share (each level in the one block), 2
    # normalize, the facts folds of the case's level and of its partner,
    # encode, repr and eval
    assert calls == 9 * 300
    # 300 grids, one a case, over 24 distinct (side, top, variable count) shapes
    info = levels._layout.cache_info()
    assert (info.misses, info.hits) == (24, 276)
