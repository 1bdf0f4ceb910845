"""`normalize`'s memos are transparent, bounded and safe to share.

`normalize` folds a level with memoized copies of `repr_var`, `succ_repr`,
`max_repr` and `imax_repr`, one process-wide `lru_cache` each.  Every test
starts and ends with them empty (conftest).  A memo keyed on too little is
a mutant in `tests/test_mutants.py`.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from itertools import product

import pytest
from conftest import NORMALIZE_MEMOS
from oracles import antichains, enumerate_sublevels

from levelcanon import Max, Var, fold_level
from levelcanon.harness import GenConfig, gen_level
from levelcanon.normalize import (
    MEMO_ENTRIES, Repr, _ZERO_REPR, imax_repr, max_repr, normalize, repr_var, succ_repr,
)


def plain_normalize(t):
    """`normalize` without its memos: the fold of the four operations."""
    return fold_level(t, _ZERO_REPR, repr_var, succ_repr, max_repr, imax_repr)


def stream(seed: int, max_size: int, count: int) -> list:
    cfg = GenConfig(seed=seed, max_size=max_size)
    return [gen_level(cfg, index) for index in range(count)]


def assert_within_bound():
    for memo in NORMALIZE_MEMOS:
        assert memo.cache_info().currsize <= MEMO_ENTRIES


@pytest.mark.parametrize("seed, max_size, count", [(707, 50, 2_000), (808, 12, 200)],
                         ids=["707-50", "criterion-8"])
def test_memoized_normalize_equals_the_plain_fold(seed, max_size, count):
    levels = stream(seed, max_size, count)
    assert [normalize(t) for t in levels] == [plain_normalize(t) for t in levels]
    assert sum(memo.cache_info().hits for memo in NORMALIZE_MEMOS) > 0
    assert_within_bound()


@pytest.mark.parametrize("num_vars, max_shift, most", [(2, 1, 12), (3, 0, 3)],
                         ids=["2-vars-shift-1", "3-vars-shift-0-three-atoms"])
def test_the_memoized_operations_equal_the_plain_ones_on_every_small_pair(
        num_vars, max_shift, most):
    # each memoized call is made twice, so the second answers from the memo
    var_memo, succ_memo, max_memo, imax_memo = NORMALIZE_MEMOS
    reprs = [Repr(tuple(sorted(chain)))
             for chain in antichains(enumerate_sublevels(num_vars, max_shift), most)]
    for _ in range(2):
        assert [var_memo(x) for x in range(num_vars)] == [repr_var(x)
                                                          for x in range(num_vars)]
        assert [succ_memo(r, n) for r in reprs for n in (0, 1, 2)] == [
            succ_repr(r, n) for r in reprs for n in (0, 1, 2)]
    wrong = []
    for r1, r2 in product(reprs, repeat=2):
        for _ in range(2):
            if max_memo(r1, r2) != max_repr(r1, r2) or imax_memo(r1, r2) != imax_repr(r1, r2):
                wrong.append((r1, r2))
    assert wrong == []
    assert_within_bound()


def test_a_plain_tuple_and_a_repr_of_the_same_atoms_are_two_keys():
    # the keys are typed: a hit hands back a result of the type the call gives
    _, succ_memo, _, _ = NORMALIZE_MEMOS
    r = repr_var(0)
    assert type(succ_memo(r, 0)) is Repr
    assert type(succ_memo(tuple(r), 0)) is tuple
    assert succ_memo.cache_info().currsize == 2


def test_threads_sharing_the_memos_get_the_serial_results():
    # more threads than the 2 cores the suite was written on, switching
    # every 10 µs, all starting from empty memos
    levels = stream(707, 50, 2_000)
    serial = [normalize(t) for t in levels]
    for memo in NORMALIZE_MEMOS:
        memo.cache_clear()
    results = [None] * 4

    def work(slot):
        results[slot] = [normalize(t) for t in levels]

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * len(results)
    assert_within_bound()


def test_the_memos_retain_a_bounded_amount():
    # max(x0, ..., x499) folds into 499 merges, each kept with its
    # argument and result: their atom pointers add up to about 1 MB, the
    # rest is the 500 atoms and the entries themselves
    t = Var(0)
    for v in range(1, 500):
        t = Max(t, Var(v))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = normalize(t)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(r) == 500
    assert 1_100_000 < retained < 1_700_000
    assert_within_bound()
