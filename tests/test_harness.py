from __future__ import annotations

import json

import pytest
from conftest import run_in_child
from oracles import enumerate_sublevels, exhaustive_sublevel_suite

from levelcanon import (
    IMax, Max, Succ, Var, ZERO, eq_repr, eval_level, find_counterexample_leq,
    level_size, level_vars,
)
from levelcanon import harness
from levelcanon.normalize import eval_repr, normalize
from levelcanon.harness import (
    DiffReport, Failure, GenConfig, differential_case, gen_level, run_fuzz,
)
from levelcanon.printer import level_repr, print_level
from levelcanon.rewrite import default_rules, encode_level, encode_repr, reduce

x, y, z = Var(0), Var(1), Var(2)


def test_gen_level_deterministic():
    cfg = GenConfig(seed=12, max_size=20)
    assert gen_level(cfg, 99) == gen_level(cfg, 99)
    assert gen_level(cfg, 0) == gen_level(GenConfig(seed=12, max_size=20), 0)


def test_gen_level_respects_size_bound():
    cfg = GenConfig(seed=1, max_size=9)
    assert all(level_size(gen_level(cfg, i)) <= 9 for i in range(10_000))


def test_gen_level_hits_all_constructors():
    cfg = GenConfig(seed=0, max_size=8)
    seen = set()
    for i in range(1000):
        stack = [gen_level(cfg, i)]
        while stack:
            node = stack.pop()
            seen.add(type(node).__name__)
            match node:
                case Succ(c):
                    stack.append(c)
                case Max(a, b) | IMax(a, b):
                    stack.extend((a, b))
    assert seen == {"Zero", "Succ", "Max", "IMax", "Var"}


def test_gen_level_var_pool():
    cfg = GenConfig(seed=5, max_size=12, num_vars=2)
    for i in range(500):
        assert level_vars(gen_level(cfg, i)) <= {0, 1}
    constants_only = GenConfig(seed=5, max_size=6, num_vars=0)
    for i in range(100):
        assert not level_vars(gen_level(constants_only, i))


def test_differential_case_examples():
    assert differential_case(IMax(x, Succ(y))) is None
    assert differential_case(ZERO) is None
    assert differential_case(Succ(IMax(y, x))) is None


def test_level_repr_prints_the_constructor_calls():
    assert level_repr(ZERO) == repr(ZERO) == "Zero()"
    assert level_repr(z) == repr(z) == "Var(vid=2)"
    t = Succ(Succ(Max(x, IMax(ZERO, Succ(y)))))
    assert level_repr(t) == repr(t) == (
        "Succ(child=Succ(child=Max(left=Var(vid=0), "
        "right=IMax(left=Zero(), right=Succ(child=Var(vid=1))))))")


def test_differential_case_takes_a_level_past_the_recursion_limit():
    # the case's digest is taken from its text, which must not recurse
    t = x
    for i in range(1200):
        t = Max((x, y, z)[i % 3], t)
    assert differential_case(t) is None


# run in a child interpreter at the default recursion limit, which a
# reduction restores before its result is compared
_DEEP_SOUNDNESS = """
import sys
from levelcanon import Succ, Var
from levelcanon.harness import differential_case
from levelcanon.rewrite.codec import soundness_report
assert sys.getrecursionlimit() == 1000
for depth, steps in ((1000, 574_457), (1200, 809_357)):
    t = Var(0)
    for _ in range(depth):
        t = Succ(t)
    ok, report, _ = soundness_report(t)
    assert ok and report.steps == steps, (depth, ok, report.steps)
    assert differential_case(t) is None, depth
"""


def test_soundness_report_takes_a_result_past_the_recursion_limit():
    # the normal form of s^1000(x) is a numeral 1000 deep, too deep for the
    # recursive `==` of nested tuples
    proc = run_in_child(_DEEP_SOUNDNESS)
    assert proc.returncode == 0, proc.stderr


def test_failures_name_the_levels_and_the_witness(monkeypatch):
    # each phase's Failure, forced by a wrong answer at the name the harness binds
    t = Succ(IMax(y, x))
    # the guard bit of every lane: a value above any the level takes there
    monkeypatch.setattr(harness, "eval_repr",
                        lambda r, sigma, lanes: lanes.ones << lanes.width - 1)
    assert differential_case(t) == Failure("s(imax(x1, x0))", None, "eval", {"x0": 0, "x1": 0})
    monkeypatch.undo()

    original = harness.soundness_report
    monkeypatch.setattr(harness, "soundness_report", lambda t: (False, *original(t)[1:]))
    assert harness._differential_case(t) == (
        Failure("s(imax(x1, x0))", None, "rewrite", None), original(t)[1].steps)
    monkeypatch.undo()

    monkeypatch.setattr(harness, "leq_repr", lambda a, b: True)
    assert differential_case(t) == Failure("s(imax(x1, x0))", "x2", "compare",
                                           {"x0": 0, "x1": 0, "x2": 0})
    monkeypatch.setattr(harness, "leq_repr", lambda a, b: False)
    assert differential_case(Max(x, Max(y, z))) == Failure(
        "imax(imax(x0, 0), x1)", "max(x0, max(x1, x2))", "compare", None)


def test_a_compare_failure_names_variables_past_the_default_pool(monkeypatch):
    # the only variable is x4, so the partner is drawn over x0..x4 (here x3, which
    # a pool of 3 could not give) and every id prints as x<id>
    monkeypatch.setattr(harness, "leq_repr", lambda a, b: True)
    assert differential_case(Var(4)) == Failure("x4", "x3", "compare", {"x3": 0, "x4": 1})
    monkeypatch.setattr(harness, "leq_repr", lambda a, b: False)
    assert differential_case(Max(Var(4), Succ(ZERO))) == Failure(
        "imax(s(x3), 0)", "max(x4, s(0))", "compare", None)


def test_an_exhausted_budget_is_its_own_phase():
    # a 40-node level that the rewrite path gets right in 1,201,299 steps,
    # past the harness's budget of 10^6: a failure, but not a wrong answer
    t = gen_level(GenConfig(seed=3, max_size=100, num_vars=5), 5677)
    assert level_size(t) == 40 and level_vars(t) == {0, 1, 2, 3, 4}
    assert harness._differential_case(t) == (
        Failure(print_level(t, harness.harness_names(5)), None, "budget", None), 10**6)
    report = reduce(encode_level(t), default_rules(), budget=2 * 10**6)
    assert not report.budget_exhausted and report.steps == 1_201_299
    assert report.result == encode_repr(normalize(t))


def skewed_eval_cases(monkeypatch):
    """The first 60 levels of `GenConfig(seed=3, max_size=12)`, each with its
    `differential_case` and the case's 22 valuations, under a representation
    evaluator that is wrong only where the values sum to 2 mod 3."""
    points = []

    def skewed(r, sigma, lanes):
        mask = (1 << lanes.width) - 1
        points[:] = [{v: packed >> lanes.width * k & mask for v, packed in sigma.items()}
                     for k in range(lanes.count)]
        return eval_repr(r, sigma, lanes) + lanes.pack(
            [sum(point.values()) % 3 == 2 for point in points])

    monkeypatch.setattr(harness, "eval_repr", skewed)
    cfg = GenConfig(seed=3, max_size=12)
    for i in range(60):
        t = gen_level(cfg, i)
        points.clear()
        failure = differential_case(t)
        yield t, failure, list(points)


def test_an_eval_failure_names_the_first_disagreeing_valuation(monkeypatch):
    # the Failure names the first wrong valuation among the case's 22, which
    # it evaluates in one lane each
    later = 0
    for t, failure, points in skewed_eval_cases(monkeypatch):
        wrong = [sigma for sigma in points if sum(sigma.values()) % 3 == 2]
        if failure is None or failure.phase != "eval":
            assert len(points) == 22 and not wrong
            continue
        names = harness.harness_names(3)  # the pool of every level on this stream
        assert failure == Failure(print_level(t, names), None, "eval",
                                  {names.name_of(v): n for v, n in wrong[0].items()})
        later += points.index(wrong[0]) > 1
    assert later > 10


def test_paper_pair_inequality_detected_by_the_oracle():
    t1, t2 = Succ(IMax(y, x)), IMax(Succ(y), Succ(x))
    assert not eq_repr(normalize(t1), normalize(t2))
    witness = find_counterexample_leq(t2, t1, 3)
    assert witness == {0: 0, 1: 1}
    assert eval_level(t2, witness) > eval_level(t1, witness)


def test_enumerate_sublevel_counts():
    assert len(enumerate_sublevels(2, 2)) == 20
    assert len(enumerate_sublevels(3, 3)) == 72
    assert len({u for u in enumerate_sublevels(3, 3)}) == 72


def test_exhaustive_suite_small_grids():
    tiny = exhaustive_sublevel_suite(1, 0, 2)
    assert tiny.ok and tiny.cases_run == 1  # single atom A({x},x,0)
    small = exhaustive_sublevel_suite(2, 2, 5)
    assert small.ok and small.cases_run == 400


def test_diff_report_serialization():
    report = DiffReport(3, (Failure("s(x)", None, "eval", {"x": 0}),), {"max": 7})
    payload = json.loads(report.to_json())
    assert payload["cases_run"] == 3
    assert payload["failures"][0]["phase"] == "eval"
    assert not report.ok
    assert DiffReport(1, ()).ok
    # the fields in declaration order, no spaces: the text `fuzz` prints
    assert report.to_json() == (
        '{"cases_run":3,"failures":[{"level":"s(x)","other":null,"phase":"eval",'
        '"witness":{"x":0}}],"step_stats":{"max":7}}')
    assert report.failures[0].to_json() == {
        "level": "s(x)", "other": None, "phase": "eval", "witness": {"x": 0}}


def test_run_fuzz_rejects_a_negative_case_count():
    with pytest.raises(ValueError, match="cases must be a natural"):
        run_fuzz(GenConfig(), -3)
    assert run_fuzz(GenConfig(), 0) == DiffReport(0, (), {})


def test_run_fuzz_small():
    report = run_fuzz(GenConfig(seed=8, max_size=12), cases=60)
    assert report.ok
    assert report.cases_run == 60
    assert report.step_stats["max"] >= report.step_stats["min"] >= 0
