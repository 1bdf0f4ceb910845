"""A rule set's generated code is written and compiled one head at a time,
on the first call that reaches the head: the evaluator's f<h> and the
matchers' m<h> (with its rules' builders), each into the rule set's one
namespace."""

from __future__ import annotations

import builtins
import re
import tracemalloc

import pytest
from conftest import run_in_child
from oracles import evaluator_parts, evaluator_source

from levelcanon import IMax, Var
from levelcanon.harness import GenConfig, run_fuzz
from levelcanon.rewrite import (
    STRATEGIES, RuleSet, builtin_ruleset, codegen, encode_level, engine, reduce, rules,
)
from levelcanon.rewrite.rules import read_rules
from levelcanon.rewrite.terms import fold_term

IMAX_XX = encode_level(IMax(Var(0), Var(0)))


def fresh_rules() -> RuleSet:
    """The default rules, read again: a rule set nothing has compiled yet."""
    return RuleSet(read_rules(rules.RULE_TEXT)[1])


def counting_compiles(monkeypatch, rule_set: RuleSet) -> list[str]:
    """The heads whose generated function is compiled from now on, one
    entry per compile, in order."""
    heads = list(rule_set.by_head)
    compiled = []
    real = builtins.compile

    def counting(source, filename, mode, *args, **kwargs):
        if filename in ("<compiled evaluator>", "<compiled rules>"):
            compiled.extend(heads[int(h)] for h in re.findall(r"^def [fm](\d+)\(", source, re.M))
        return real(source, filename, mode, *args, **kwargs)
    monkeypatch.setattr(builtins, "compile", counting)
    return compiled


def heads_called(term, fired, rule_set: RuleSet) -> set[str]:
    """The defined heads of `term` and of the right sides of the `fired`
    rules: every head a reduction that fires them calls."""
    found = set()

    def node(head, kids):
        if head in rule_set.by_head:
            found.add(head)
    for t in [term, *(rule.rhs for rule in fired)]:
        fold_term(t, lambda name: None, node)
    return found


def repeat_compile_check():
    """One reduction of `IMAX_XX` per strategy on a fresh rule set, then the
    same again: the first (strategy, heads compiled by the repeat) that is
    not empty."""
    with pytest.MonkeyPatch.context() as patch:
        for strategy in STRATEGIES:
            rule_set = fresh_rules()
            compiled = counting_compiles(patch, rule_set)
            first = reduce(IMAX_XX, rule_set, strategy)
            del compiled[:]
            assert reduce(IMAX_XX, rule_set, strategy) == first
            if compiled:
                return strategy, sorted(set(compiled))
    return None


def counting_writes(monkeypatch) -> list[str]:
    """The heads whose generated source is written from now on, evaluator
    functions and matchers alike, one entry per head written, in order."""
    written = []
    for name in ("_evaluator_part", "_matcher_part"):
        def counting(rules, *args, write=getattr(codegen, name)):
            written.append(rules[0].lhs[0])
            return write(rules, *args)
        monkeypatch.setattr(codegen, name, counting)
    return written


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_reduction_compiles_exactly_the_heads_it_calls(strategy, monkeypatch):
    fired = []
    reduce(IMAX_XX, fresh_rules(), strategy, trace=lambda step, path, rule: fired.append(rule))
    rule_set = fresh_rules()
    compiled = counting_compiles(monkeypatch, rule_set)
    written = counting_writes(monkeypatch)
    reduce(IMAX_XX, rule_set, strategy)
    assert len(compiled) == len(set(compiled)) == 19 and len(rule_set.by_head) == 36
    # innermost, traced or not, fires the same rules
    assert set(compiled) == heads_called(IMAX_XX, fired, rule_set)
    # and only the heads it compiles have their source written, each once
    assert written == compiled


def test_a_repeated_reduction_compiles_nothing():
    assert repeat_compile_check() is None


def test_a_fuzz_case_leaves_the_substitution_heads_uncompiled(monkeypatch):
    monkeypatch.setattr(rules, "_BUILT", {})
    compiled = counting_compiles(monkeypatch, builtin_ruleset(False))
    assert run_fuzz(GenConfig(seed=0), 1).ok
    assert compiled and {"evalL", "evalS"}.isdisjoint(compiled)


def test_the_first_reduction_compiles_under_a_mebibyte():
    # the whole evaluator compiled at once peaked at 2.7 MiB here
    rule_set = fresh_rules()
    tracemalloc.start()
    try:
        report = reduce(IMAX_XX, rule_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.steps == 80 and not report.budget_exhausted
    assert peak < 1 << 20


# run in a child interpreter, at the default recursion limit: the evaluator's
# `g` first compiles 50,000 calls deep
_DEEP_FIRST_COMPILE = """
from levelcanon.rewrite import RewriteRule, RuleSet, app, pvar, reduce
x = pvar("x")
rule_set = RuleSet([RewriteRule(app("f", app("s", x)), app("f", x)),
                    RewriteRule(app("f", app("z")), app("g", app("z"))),
                    RewriteRule(app("g", x), app("t", x))])
term = app("z")
for _ in range(50_000):
    term = app("s", term)
report = reduce(app("f", term), rule_set)
assert report.result == app("t", app("z")) and report.steps == 50_002, report.steps
"""


def test_a_head_first_called_deep_in_a_chain_compiles_there():
    proc = run_in_child(_DEEP_FIRST_COMPILE)
    assert proc.returncode == 0, proc.stderr


def test_the_whole_module_is_the_prelude_and_every_head_part():
    rule_set = fresh_rules()
    prelude, parts = evaluator_parts(rule_set.by_head)
    source = evaluator_source(rule_set.by_head)
    assert [head for head, _, _ in parts] == list(rule_set.by_head)
    assert source.startswith(prelude + "".join(part for _, _, part in parts))
    # compiled at once, it reduces as the deferred evaluator does
    namespace = {"tag": codegen.tag}
    exec(compile(source, "<whole evaluator>", "exec"), namespace)
    order = engine._check_input(IMAX_XX, rule_set.arity)
    got = namespace["evaluate"](order, 10**6, {})
    assert got == rule_set.evaluator()(order, 10**6, {}) == (reduce(IMAX_XX, rule_set).result, 80)
