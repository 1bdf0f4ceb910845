from __future__ import annotations

import ast
import gc
import pickle
import random
import re
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings

from conftest import level_strategy, run_in_child
from oracles import is_left_linear, match, match_args, subst_template
from levelcanon import IMax, Max, Repr, ReprInvariantError, SubA, SubB, Succ, Var, ZERO, subst_repr
from levelcanon.export import export_framework
from levelcanon.harness import GenConfig, gen_level
from levelcanon.normalize import normalize
from levelcanon.rewrite import (
    SIGNATURE, STRATEGIES, ReductionReport, RewriteRule, RuleSet, SortError, app,
    builtin_ruleset, check_rule_sorts, confluence_runs, default_rules,
    encode_level, encode_nat, encode_repr, infer_sort, is_pvar, pvar,
    reduce, rule_dump, soundness_report, term_to_str,
)
from levelcanon.rewrite import codegen, engine
from levelcanon.rewrite.rules import read_rules
from levelcanon.rewrite.terms import fold_term

x, y, a, b = Var(0), Var(1), Var(2), Var(3)
RULES = default_rules()
LITERAL = builtin_ruleset(paper_literal=True)


def test_match_examples():
    assert match(app("addN", app("nilN"), pvar("x")),
                 app("addN", app("nilN"), app("zeroN"))) == {"x": app("zeroN")}
    assert match(app("succN", pvar("x")), app("zeroN")) is None
    nonlinear = app("maxN", pvar("x"), pvar("x"))
    assert match(nonlinear, app("maxN", app("zeroN"), app("succN", app("zeroN")))) is None
    assert match(nonlinear, app("maxN", app("zeroN"), app("zeroN"))) == {"x": app("zeroN")}
    assert match(pvar("t"), nonlinear) == {"t": nonlinear}  # bare variable at the root
    assert match(app("succN", pvar("x")), app("succN")) is None  # same head, other arity
    assert match(app("succN"), app("succN", app("zeroN"))) is None


def test_rule_validation():
    with pytest.raises(ValueError):
        RewriteRule(pvar("x"), app("zeroN"))
    with pytest.raises(ValueError):
        RewriteRule(app("not", pvar("x")), pvar("y"))


def test_builtin_ruleset_contents():
    assert builtin_ruleset() is RULES  # built once per flag
    assert builtin_ruleset(paper_literal=True) is LITERAL
    assert LITERAL != RULES
    assert RewriteRule(app("zeroL"), app("maxS", app("nilSL"))) in RULES
    for ite in ("iteL", "iteNS", "iteSLS"):
        assert RewriteRule(app(ite, app("true"), pvar("u"), pvar("v")), pvar("u")) in RULES
        assert RewriteRule(app(ite, app("false"), pvar("u"), pvar("v")), pvar("v")) in RULES
    assert len(RULES) == 85
    assert len(RULES) > 40
    assert len(LITERAL) == 83


def test_builtin_rules_are_first_order_left_linear_and_sorted():
    for rules in (RULES, LITERAL):
        assert set(rules.by_head) == {rule.lhs[0] for rule in rules}
        for rule in rules:
            assert is_left_linear(rule), rule
            check_rule_sorts(rule, SIGNATURE)
            # constructor discipline: below its root, a left-hand side
            # holds only constructors and pattern variables
            stack = list(rule.lhs[1:])
            while stack:
                node = stack.pop()
                if not is_pvar(node):
                    assert node[0] not in rules.by_head, rule
                    stack.extend(node[1:])


@pytest.mark.parametrize("paper_literal", [False, True], ids=["default", "paper_literal"])
def test_the_export_reads_back_as_the_signature_and_the_rule_set(paper_literal):
    signature, rules = read_rules(export_framework(None, paper_literal))
    assert list(signature.items()) == list(SIGNATURE.items())
    assert rules == list(builtin_ruleset(paper_literal))


def _overlaps(rules) -> list[tuple[str, str]]:
    """Each pair of rules of one head whose left sides overlap.  Left-linear
    constructor patterns, renamed apart, overlap exactly when they agree at
    every constructor position both have."""
    def unify(p, q) -> bool:
        return is_pvar(p) or is_pvar(q) or (
            p[0] == q[0] and len(p) == len(q) and all(map(unify, p[1:], q[1:])))
    by_head: dict[str, list[RewriteRule]] = {}
    for rule in rules:
        by_head.setdefault(rule.lhs[0], []).append(rule)
    return [(str(r), str(s)) for group in by_head.values()
            for i, r in enumerate(group) for s in group[i + 1:] if unify(r.lhs, s.lhs)]


@pytest.mark.parametrize("paper_literal", [False, True], ids=["default", "paper_literal"])
def test_no_two_left_sides_of_a_head_overlap(paper_literal):
    # with left-linearity and the constructor discipline checked above, the
    # rule set is orthogonal, hence confluent (Huet 1980)
    assert _overlaps(builtin_ruleset(paper_literal)) == []
    assert _overlaps(read_rules(export_framework(None, paper_literal))[1]) == []


def test_an_overlap_names_both_rules():
    extra = RewriteRule(app("plus", pvar("n"), pvar("m")), pvar("m"))
    assert _overlaps([*RULES, extra]) == [
        ("plus n zeroN --> n", "plus n m --> m"),
        ("plus n (succN m) --> succN (plus n m)", "plus n m --> m"),
    ]


def test_the_published_forms_replace_only_the_rules_of_their_heads():
    swapped = {"varL", "succL", "maxHelper", "maxHelperGo", "evalS"}
    assert {head for head in RULES.by_head.keys() | LITERAL.by_head.keys()
            if RULES.by_head.get(head) != LITERAL.by_head.get(head)} == swapped
    assert [r for r in RULES if r.lhs[0] not in swapped] == \
        [r for r in LITERAL if r.lhs[0] not in swapped]


def test_read_rules_rejects_a_line_that_is_neither_declaration_nor_rule():
    with pytest.raises(ValueError, match="neither a declaration nor a rule"):
        read_rules(export_framework(x))  # the query line


@pytest.mark.parametrize("rule, message", [
    ("and zeroN b --> b", "zeroN has sort nat, expected bool"),
    ("not true true --> true", "not expects 1 arguments, got 2"),
], ids=["sort", "arity"])
def test_read_rules_rejects_an_ill_sorted_rule(rule, message):
    declarations = "true : bool\nzeroN : nat\nnot : bool -> bool\nand : bool -> bool -> bool\n"
    with pytest.raises(SortError, match=message):
        read_rules(declarations + rule)


@pytest.mark.parametrize("rule, message", [
    ("true) --> true", "unbalanced ')'"),
    ("(true --> true", "unbalanced '('"),
    ("() --> true", "empty group '()'"),
    ("not (true)) --> true", "unbalanced ')'"),
    ("not true --> not (true", "unbalanced '('"),
    ("not true --> not (true ()", "empty group '()'"),
    ("not x --> x true", "variable 'x' applied to arguments"),
    ("not (x true) --> true", "variable 'x' applied to arguments"),
], ids=["close", "open", "empty", "close-nested", "open-right", "empty-nested",
        "applied-variable", "applied-variable-nested"])
def test_read_rules_rejects_a_malformed_term(rule, message):
    # an exported file is outside input: each error names the group and the line
    with pytest.raises(ValueError, match=f"^{re.escape(f'{message} in rule {rule!r}')}$"):
        read_rules("true : bool\nnot : bool -> bool\n" + rule)


def test_signature_covers_required_symbols():
    required = {
        "true", "false", "and", "or", "not",
        "zeroN", "succN", "plus", "maxN", "leqN", "eqN", "ltN",
        "nilN", "consN", "addN", "unionN", "memN", "subsetN", "eqSetN",
        "ordSetN", "ltSetN", "delN",
        "zeroL", "succL", "maxL", "ruleL", "varL",
        "A", "B", "ordSL", "leqSL", "succSL", "maxHelper", "ruleHelper",
        "ruleSL", "evalS", "evalL", "maxS",
    }
    assert required <= set(SIGNATURE)


def _heads(term) -> set[str]:
    found = set()
    fold_term(term, lambda name: None, lambda head, kids: found.add(head))
    return found


@pytest.mark.parametrize("paper_literal, defined", [(False, 36), (True, 35)],
                         ids=["default", "paper_literal"])
def test_every_defined_head_but_maxN_is_reachable(paper_literal, defined):
    # from the heads an encoded level and a substitution (evalL) start with,
    # following right sides reaches every defined head but maxN: only maxN's
    # own rule calls it, so its 3 rules never fire on any encoding
    rules = builtin_ruleset(paper_literal)
    heads = set(rules.by_head)
    start = (_heads(encode_level(IMax(Max(Succ(ZERO), x), y))) | {"evalL"}) & heads
    assert start == {"zeroL", "varL", "succL", "maxL", "ruleL", "evalL"}
    reached, todo = set(), list(start)
    while todo:
        head = todo.pop()
        if head not in reached:
            reached.add(head)
            todo += (h for rule in rules.by_head[head] for h in _heads(rule.rhs) & heads)
    assert len(heads) == defined and heads - reached == {"maxN"}
    assert {head for head in heads
            if any("maxN" in _heads(rule.rhs) for rule in rules.by_head[head])} == {"maxN"}
    assert len(rules.by_head["maxN"]) == 3


def test_encode_shapes():
    assert encode_repr(normalize(ZERO)) == app("maxS", app("nilSL"))
    one_var = encode_repr(normalize(x))
    assert one_var == app(
        "maxS",
        app("consSL",
            app("A", app("consN", app("zeroN"), app("nilN")), app("zeroN"), app("zeroN")),
            app("nilSL")))
    assert encode_level(Max(x, y)) == app("maxL", app("varL", encode_nat(0)),
                                          app("varL", encode_nat(1)))
    assert encode_level(ZERO) == app("zeroL")
    assert encode_level(Succ(ZERO)) == app("succL", app("zeroL"))


def test_encode_repr_injective_on_sample():
    cfg = GenConfig(seed=4, max_size=12)
    seen = {}
    for i in range(300):
        r = normalize(gen_level(cfg, i))
        term = encode_repr(r)
        if term in seen:
            assert seen[term] == r
        seen[term] = r
    assert len(seen) == len({encode_repr(r) for r in seen.values()})


def test_reduce_basics():
    report = reduce(app("zeroL"), RULES)
    assert report == ReductionReport(app("maxS", app("nilSL")), 1, False)
    var_report = reduce(encode_level(x), RULES)
    assert var_report.result == encode_repr(normalize(x))
    again = reduce(var_report.result, RULES)
    assert again.steps == 0 and again.result == var_report.result
    tiny = reduce(encode_level(Max(x, y)), RULES, budget=3)
    assert tiny.budget_exhausted and tiny.steps == 3


def test_reduce_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reduce(app("zeroL"), RULES, budget=0)
    with pytest.raises(ValueError):
        reduce(app("zeroL"), RULES, strategy="weird")
    with pytest.raises(ValueError):
        reduce(pvar("u"), RULES)
    with pytest.raises(ValueError):
        reduce(app("succL", pvar("u")), RULES)


def test_reduce_rejects_defined_symbols_of_the_wrong_arity():
    # each would otherwise match a rule: `not` with no argument, `and` with
    # one of two, and `zeroL` with an argument it would drop
    for term in (app("not"), app("and", app("true")), app("zeroL", app("true")),
                 app("succL", app("zeroL", app("true")))):
        for strategy in ("innermost", "outermost", "random"):
            with pytest.raises(ValueError, match="arguments"):
                reduce(term, RULES, strategy)
    assert reduce(app("not", app("true")), RULES).result == app("false")


@pytest.mark.parametrize("build", [
    lambda u: app("g", u),  # `f x --> g x` while g's rules take two
    lambda u: app("succN", app("pair", app("g", u), u)),  # nested under constructors
], ids=["at the root", "under constructors"])
def test_a_right_side_applying_a_defined_symbol_at_another_arity_is_rejected(build):
    # building the rule set checks it, before anything reduces or compiles
    u, v = pvar("x"), pvar("y")
    message = ("the rules of 'g' take different numbers of arguments: "
               "2 on their left sides, 1 in f x --> ")
    with pytest.raises(ValueError, match=message):
        RuleSet([RewriteRule(app("f", u), build(u)), RewriteRule(app("g", u, v), v)])
    for paper_literal in (False, True):  # the built-in rule sets pass the check
        fresh = RuleSet(builtin_ruleset(paper_literal))
        assert fresh.arity.keys() == fresh.by_head.keys() and fresh.arity["evalS"] == 3
        assert fresh.matchers().keys() == fresh.by_head.keys() and fresh.evaluator()


def _unmemoized_innermost(term, rules, budget):
    # a trace callback selects the positional loop, which memoizes nothing
    return reduce(term, rules, budget=budget, trace=lambda *a: None)


# A hand-made rule set whose symbol and variable names would break generated
# code that spliced them in as text: quotes, backslashes, Python keywords and
# the names the generated functions use themselves.  `it"s\` has a
# non-left-linear rule, `None` is a nullary defined head, and `lambda`
# matches nested and nullary constructors.
_S, _Z, _PAIR = "s'", 'z"', "pair\\"
_EQ, _NONE, _LAMBDA, _DEF = 'it"s\\', "None", "lambda", "def"
_V = [pvar(name) for name in ("x'", 'y"\\', "class", "k0", "v1", "mk", "kids")]
HAND = RuleSet([
    RewriteRule(app(_EQ, _V[0], _V[0]), app("true")),
    RewriteRule(app(_EQ, app(_S, _V[1]), app(_S, _V[3])), app(_EQ, _V[1], _V[3])),
    RewriteRule(app(_EQ, _V[2], _V[4]), app("false")),
    RewriteRule(app(_NONE), app(_S, app(_Z))),
    RewriteRule(app(_LAMBDA, app(_PAIR, app(_S, _V[5]), _V[6])),
                app(_PAIR, app(_EQ, _V[6], _V[5]), app(_NONE))),
    RewriteRule(app(_LAMBDA, app(_Z)), app(_NONE)),
    RewriteRule(app(_LAMBDA, _V[2]), _V[2]),
    RewriteRule(app(_DEF, _V[2], _V[3]), app(_PAIR, _V[3], app(_LAMBDA, _V[2]))),
])


def _hand_term(rng, depth):
    """A random ground term over HAND's symbols; defined heads get their
    rules' arity, constructors sometimes the wrong one."""
    arity = {_EQ: 2, _NONE: 0, _LAMBDA: 1, _DEF: 2}
    head = rng.choice([_S, _Z, _PAIR, *arity])
    if head in arity:
        n = arity[head]
    else:
        n = {_S: 1, _Z: 0, _PAIR: 2}[head]
        if rng.random() < 0.2:
            n = rng.choice([k for k in range(3) if k != n])
    if depth == 0 and n:
        return app(_Z)
    return app(head, *(_hand_term(rng, depth - 1) for _ in range(n)))


def _repeating_terms(rules):
    """(term, k) pairs: a term u with the k steps it takes alone, and terms
    that repeat u.  Every call in a later copy of u replays a call of the
    first, so a budget between k and 2k stops inside a replayed hit."""
    if rules is HAND:
        rng = random.Random(11)
        for _ in range(40):
            u = _hand_term(rng, 4)
            k = reduce(u, HAND).steps
            for term in (u, app(_PAIR, u, u), app(_DEF, u, app(_PAIR, u, u))):
                yield term, k
        return
    cfg = GenConfig(seed=31, max_size=8)
    for i in range(20):
        t = gen_level(cfg, i)
        k = reduce(encode_level(t), rules).steps
        for level in (t, Max(t, t), IMax(t, Max(t, t))):
            yield encode_level(level), k


def _budgets(n, k):
    """Budgets that stop a run of `n` steps whose repeated part takes `k`
    before, inside and after its repeated calls."""
    return sorted(b for b in {1, n // 3, n - 1, n, n + 1, k + 1, k + k // 2, 2 * k - 1} if b > 0)


@pytest.mark.parametrize("rules", [RULES, LITERAL, HAND], ids=["default", "paper_literal", "hand"])
def test_memoized_innermost_matches_the_unmemoized_path(rules):
    # the budgets stop runs before, inside and after the repeated calls
    inside_hits = 0
    for term, k in _repeating_terms(rules):
        full = reduce(term, rules)
        assert full == _unmemoized_innermost(term, rules, 10**6)
        n = full.steps
        for budget in _budgets(n, k):
            fast = reduce(term, rules, budget=budget)
            slow = _unmemoized_innermost(term, rules, budget)
            assert (fast.steps, fast.budget_exhausted) == \
                (slow.steps, slow.budget_exhausted), (term, budget)
            # an exhausted fast run reports its input; the positional loop
            # reports where it stopped (neither is a normal form)
            expected = term if slow.budget_exhausted else slow.result
            assert fast.result == expected, (term, budget)
            inside_hits += k < budget < 2 * k <= n
    assert inside_hits > 20


@pytest.mark.parametrize("rules", [RULES, LITERAL, HAND], ids=["default", "paper_literal", "hand"])
def test_a_warm_table_gives_the_reports_of_a_cold_one(rules):
    warm, cold = RuleSet(rules), RuleSet(rules)
    cases = list(_repeating_terms(rules))
    for term, _ in cases:
        reduce(term, warm)
    table, size = warm.table, len(warm.table)
    for term, k in cases:
        for budget in _budgets(reduce(term, warm).steps, k):
            cold.table = {}
            assert reduce(term, warm, budget=budget) == reduce(term, cold, budget=budget)
    # every call and node of the second pass was a hit
    assert warm.table is table and len(table) == size > 0


def _decode(key):
    """The head and the kid ids of an int table key, ``tag << 64 n | id(k0)
    << 64 (n - 1) | ... | id(k(n-1))``: 64-bit chunks under the head's tag."""
    n = max(key.bit_length() - 1, 0) // 64
    heads = {tag: head for head, tag in codegen._tags.items()}
    assert key >> 64 * n in heads, f"{key:#x} carries no head's tag"
    return heads[key >> 64 * n], [key >> 64 * i & (1 << 64) - 1 for i in reversed(range(n))]


def _assert_keys_are_kept_alive(table):
    """Every id in a key of `table` is the id of a node reachable from its
    values."""
    kept = set()
    stack = [node for node, _ in table.values()]
    while stack:
        node = stack.pop()
        if id(node) not in kept:
            kept.add(id(node))
            stack += node[1:]
    for key in table:
        assert kept.issuperset(_decode(key)[1])


def _assert_insertion_order_is_topological(table):
    """Walking `table` in insertion order, every id an entry's key names is
    the value of an earlier entry, and every value is an earlier entry's or
    a node that the entry itself holds: keyed by its own head and kids, each
    kid an earlier entry's value.  So every prefix of the table keeps alive
    every node its keys name, which a table replaced by its first half
    relies on."""
    earlier = set()
    for key, (value, _) in table.items():
        head, ids = _decode(key)
        assert earlier.issuperset(ids)
        if id(value) not in earlier:
            assert (head, ids) == (value[0], [id(kid) for kid in value[1:]])
            earlier.add(id(value))


def test_the_table_keeps_alive_every_node_its_keys_name():
    rules = RuleSet(RULES)
    cfg = GenConfig(seed=707, max_size=50)
    for i in range(40):
        reduce(encode_level(gen_level(cfg, i)), rules, budget=1 + 97 * i)
    assert len(rules.table) > 100
    _assert_keys_are_kept_alive(rules.table)
    _assert_insertion_order_is_topological(rules.table)


def test_a_table_cut_to_its_first_half_stays_in_topological_order(monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_LIMIT", 200)
    rules = RuleSet(RULES)
    cfg = GenConfig(seed=707, max_size=50)
    replaced = 0
    for i in range(40):
        table = rules.table
        reduce(encode_level(gen_level(cfg, i)), rules, budget=1 + 97 * i)
        replaced += rules.table is not table
        _assert_insertion_order_is_topological(rules.table)
    assert replaced > 5
    _assert_keys_are_kept_alive(rules.table)


def test_an_ill_sorted_input_reduces_as_before_and_keeps_the_table_alive():
    rules = RuleSet(RULES)
    reduce(encode_level(Max(x, Succ(y))), rules)
    # `and` of a level: no rule matches, so the term is its own normal form
    term = app("and", app("maxS", app("nilSL")), app("true"))
    report = reduce(term, rules)
    assert report == ReductionReport(term, 0, False) == _unmemoized_innermost(term, rules, 10)
    _assert_keys_are_kept_alive(rules.table)
    _assert_insertion_order_is_topological(rules.table)


def test_a_table_past_the_limit_is_replaced_between_reductions(monkeypatch):
    monkeypatch.setattr(engine, "_TABLE_LIMIT", 200)
    rules, cold = RuleSet(RULES), RuleSet(RULES)
    cfg = GenConfig(seed=707, max_size=50)
    replaced = 0
    for i in range(30):
        term = encode_level(gen_level(cfg, i))
        for budget in (reduce(term, cold).steps // 2 + 1, 10**6):
            table = rules.table
            cold.table = {}
            assert reduce(term, rules, budget=budget) == reduce(term, cold, budget=budget)
            if rules.table is not table:  # bound anew, the old one left whole
                replaced += 1
                assert list(rules.table.items()) == list(table.items())[:100]
                assert len(table) > 200
            else:
                assert len(table) <= 200
    assert replaced > 5


def test_a_replaced_table_is_freed(monkeypatch):
    class Table(dict):  # a dict that takes a weak reference
        pass

    monkeypatch.setattr(engine, "_TABLE_LIMIT", 200)
    rules = RuleSet(RULES)
    rules.table = Table()
    table = weakref.ref(rules.table)
    reduce(encode_level(gen_level(GenConfig(seed=707, max_size=50), 0)), rules)
    # replaced by a plain dict of its first half, and nothing else holds the old one
    assert type(rules.table) is dict and len(rules.table) == 100
    assert table() is None


def test_two_threads_sharing_a_table_agree_with_serial_runs():
    term = encode_level(gen_level(GenConfig(seed=707, max_size=50), 546))
    serial = reduce(term, RuleSet(RULES))
    rules = RuleSet(RULES)
    table = rules.table
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda: reports.append(reduce(term, rules)))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert reports == [serial, serial]
    assert serial.steps == 107_142 and not serial.budget_exhausted
    _assert_keys_are_kept_alive(table)


def test_two_threads_replacing_a_small_table_agree_with_serial_runs(monkeypatch):
    # one thread's reduction may still write the table that the other,
    # finished, cuts to its first half
    monkeypatch.setattr(engine, "_TABLE_LIMIT", 200)
    cfg = GenConfig(seed=707, max_size=50)
    terms = [encode_level(gen_level(cfg, i)) for i in range(30)]
    serial = [reduce(term, RuleSet(RULES)) for term in terms]
    rules = RuleSet(RULES)
    rules.evaluator()  # compiled before the race
    reports = [[], []]

    def run(j):
        for term in terms:
            reports[j].append(reduce(term, rules))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert reports == [serial, serial]
    _assert_insertion_order_is_topological(rules.table)


def test_two_rule_sets_reducing_at_once_agree_with_serial_runs():
    # each rule set's evaluator is its own generated module, whose globals
    # hold the step count, the budget and the table of the reduction under
    # way; two of them running interleaved must not see each other's, and
    # two threads on one rule set take turns; all four leave the recursion
    # limit as they found it
    limit = sys.getrecursionlimit()
    term = encode_level(gen_level(GenConfig(seed=707, max_size=50), 546))
    budgets = [(10**6, reduce(term, RuleSet(rules)).steps // 2) for rules in (RULES, LITERAL)]
    serial = [[reduce(term, RuleSet(rules), budget=budget) for budget in pair]
              for rules, pair in zip((RULES, LITERAL), budgets)]
    fresh = [RuleSet(rules) for rules in (RULES, LITERAL)]
    for rules in fresh:
        rules.evaluator()  # compiled before the race
    reports = [[] for _ in range(4)]  # threads 0 and 2 on one rule set, 1 and 3 on the other

    def run(j):
        for budget in budgets[j % 2]:
            reports[j].append(reduce(term, fresh[j % 2], budget=budget))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert reports == serial * 2
    assert sys.getrecursionlimit() == limit
    assert all(full.steps > 1000 and not full.budget_exhausted for full, _ in serial)
    assert all(half.budget_exhausted for _, half in serial)


_SELECTORS = {"and", "or", "not", "iteL", "iteNS", "iteSLS"}


def test_selectors_and_caller_keyed_heads_are_the_unmemoized_ones():
    unmemoized = codegen.unmemoized_heads(RULES.by_head)
    assert unmemoized == _SELECTORS | {"ordSL", "maxHelperGo"}
    assert codegen.unmemoized_heads(LITERAL.by_head) == _SELECTORS | {"ordSL"}
    assert codegen.unmemoized_heads(HAND.by_head) == set()
    source = codegen.evaluator_source(RULES.by_head)
    for h, head in enumerate(RULES.by_head):
        body = source.split(f"\ndef f{h}(")[1].split("\ndef ")[0]
        assert ("table_get" in body) == (head not in unmemoized)


_X, _Q = pvar("x"), pvar("q")


@pytest.mark.parametrize("rules, unmemoized", [
    # a one-rule head whose right side builds a node is no selector
    ([RewriteRule(app("f", _X), app("s", _X))], set()),
    # `h` is keyed by its caller only when the call carries all of x and q
    ([RewriteRule(app("g", app("c", _X, _Q)), app("h", _X, _Q)),
      RewriteRule(app("h", _X, _Q), app("s", _X))], {"h"}),
    ([RewriteRule(app("g", app("c", _X, _Q)), app("h", _X)),
      RewriteRule(app("h", _X), app("s", _X))], set()),
    # below a defined head a variable does not count: `k x` is no node
    ([RewriteRule(app("g", _X, _Q), app("h", app("k", _X), _Q)),
      RewriteRule(app("h", _X, _Q), app("s", _X)),
      RewriteRule(app("k", _X), app("s", _X))], set()),
    # a head whose only caller is itself, as `maxN`
    ([RewriteRule(app("m", app("s", _X)), app("s", app("m", _X)))], set()),
    # a caller-keyed head's callee keeps its entries: no caller is looked up
    ([RewriteRule(app("e", _X), app("g", _X)),
      RewriteRule(app("g", _X), app("h", _X)),
      RewriteRule(app("h", _X), app("s", _X))], {"g"}),
])
def test_a_head_keeps_its_memo_unless_its_entries_cannot_pay(rules, unmemoized):
    assert codegen.unmemoized_heads(RuleSet(rules).by_head) == unmemoized


def test_a_dropped_fall_through_of_an_unmemoized_head_stays_alive():
    # `and` of a level matches no rule, and `ltN n zeroN --> false` keeps no
    # reference to it: only the node entry made for it holds what the key
    # of the `ltN` call names
    rules = RuleSet(RULES)
    term = app("ltN", app("and", app("maxS", app("nilSL")), app("true")), app("zeroN"))
    report = reduce(term, rules)
    assert report == ReductionReport(app("false"), 1, False) == _unmemoized_innermost(term, rules, 10)
    _assert_keys_are_kept_alive(rules.table)
    _assert_insertion_order_is_topological(rules.table)


def test_the_table_holds_no_call_of_an_unmemoized_head():
    # a work pin that needs no clock: the same steps as with every head
    # memoized (16,118 entries then)
    rules = RuleSet(RULES)
    cfg = GenConfig(seed=707, max_size=50)
    steps = sum(reduce(encode_level(gen_level(cfg, i)), rules).steps for i in range(200))
    assert steps == 326_302 and len(rules.table) == 11_598
    heads = {_decode(key)[0] for key in rules.table}
    assert not heads & codegen.unmemoized_heads(RULES.by_head)


def test_the_fuzz_stream_makes_a_fixed_number_of_table_entries():
    # a work pin that needs no clock: entries inserted, tables replaced and
    # tree steps over the first 1,800 levels (107,046, 6 and 3,396,105 when a
    # table of 16,384 entries was replaced by an empty one)
    rules = RuleSet(RULES)
    cfg = GenConfig(seed=707, max_size=50)
    inserted = replaced = steps = 0
    for i in range(1800):
        table = rules.table
        size = len(table)
        steps += reduce(encode_level(gen_level(cfg, i)), rules).steps
        inserted += len(table) - size
        replaced += rules.table is not table
    assert (inserted, replaced, steps) == (71_327, 4, 3_396_105)


def _subterms(term):
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node[1:])


def _vars_in_preorder(pattern):
    names = []
    stack = [pattern]
    while stack:
        node = stack.pop()
        if is_pvar(node):
            if node[1] not in names:
                names.append(node[1])
        else:
            stack.extend(reversed(node[1:]))
    return names


def _plain(head, kids):
    return (head, *kids)


def _intermediate_terms(rules):
    """Terms met along seeded outermost and random reductions."""
    if rules is HAND:
        rng = random.Random(5)
        s, z = (lambda t: app(_S, t)), app(_Z)
        starts = [app(_EQ, s(s(z)), s(s(app(_NONE)))),
                  app(_LAMBDA, app(_PAIR, s(app(_NONE)), app(_DEF, z, s(z)))),
                  *(_hand_term(rng, 4) for _ in range(60))]
    else:
        cfg = GenConfig(seed=13, max_size=8)
        starts = [encode_level(gen_level(cfg, i)) for i in range(10)]
    for i, term in enumerate(starts):
        for strategy in ("outermost", "random"):
            for budget in (1, 3, 9, 27, 81):
                yield reduce(term, rules, strategy, budget, seed=i).result


def _redex_paths(term, rules, postorder=False, path=()):
    """Every redex position of `term` in preorder (or postorder), recursively:
    the reference order of the positional strategies."""
    here = [path] if any(match(rule.lhs, term) is not None for rule in rules) else []
    below = [p for i, child in enumerate(term[1:])
             for p in _redex_paths(child, rules, postorder, path + (i,))]
    return below + here if postorder else here + below


def _first_step(term, rules, strategy, seed=0):
    """The position the engine rewrites first, or None for a normal form."""
    first = []
    reduce(term, rules, strategy, budget=1, seed=seed, trace=lambda s, pos, r: first.append(pos))
    return first[0] if first else None


def _check_annotations(term, rules):
    """Check the annotations of `term`, built by the positional loop's `mk`,
    against the reference order; returns its number of redexes."""
    matchers = rules.matchers()
    pre, post = _redex_paths(term, rules), _redex_paths(term, rules, postorder=True)
    assert term.redexes == len(pre)
    for order, postorder in ((pre, False), (post, True)):
        paths = [tuple(i for _, i in engine._nth(term, k, postorder)[0]) for k in range(len(order))]
        assert paths == order
    # outermost takes the first redex in preorder, traced innermost the first
    # in postorder, and random draws an index into the preorder list
    assert _first_step(term, rules, "outermost") == (pre[0] if pre else None)
    assert _first_step(term, rules, "innermost") == (post[0] if post else None)
    assert _first_step(term, rules, "random", seed=7) == \
        (pre[random.Random(7).choice(range(len(pre)))] if pre else None)
    # every stored match is the one the compiled matcher finds there
    for node in _subterms(term):
        stored = node.found
        matcher = matchers.get(node[0])
        found = matcher(node[1:]) if matcher is not None else None
        assert (stored is None) == (found is None), node
        if found is not None:
            assert stored[2] is found[2] and stored[1] == found[1], node
    return len(pre)


@pytest.mark.parametrize("rules", [RULES, LITERAL, HAND], ids=["default", "paper_literal", "hand"])
def test_position_scans_follow_the_reference_order(rules):
    terms = list(_intermediate_terms(rules))
    if rules is not HAND:
        cfg = GenConfig(seed=17, max_size=8)
        terms += [reduce(encode_level(gen_level(cfg, i)), rules, "outermost", budget).result
                  for i in range(12) for budget in (1, 4, 16, 64)]
    seen = 0
    for j, term in enumerate(terms):
        mk = engine._node_maker(rules.matchers())
        annotated = fold_term(term, None, mk)
        n = _check_annotations(annotated, rules)
        seen += n
        if not n:
            continue
        # one step through `mk`: the fresh right side and the rebuilt spine
        # are annotated as they are built
        spine, redex = engine._nth(annotated, j % n, postorder=False)
        build, bindings, _ = redex.found
        stepped = engine._rebuild(spine, build(mk, *bindings), mk)
        _check_annotations(stepped, rules)
    assert seen > 100


@pytest.mark.parametrize("rules", [RULES, LITERAL, HAND], ids=["default", "paper_literal", "hand"])
def test_compiled_matchers_agree_with_match_args(rules):
    # the reference: the rules of a head in order, through the generic matcher
    matchers = rules.matchers()
    nodes = 0
    for term in _intermediate_terms(rules):
        for node in _subterms(term):
            matcher = matchers.get(node[0])
            found = matcher(node[1:]) if matcher is not None else None
            for rule in rules.by_head.get(node[0], ()):
                env = {}
                if match_args(rule.lhs[1:], node[1:], env):
                    break
            else:
                assert found is None, node
                continue
            build, bindings, got = found
            assert got is rule, node
            names = _vars_in_preorder(rule.lhs)
            assert len(bindings) == len(names)
            assert dict(zip(names, bindings)) == env, node
            assert build(_plain, *bindings) == subst_template(rule.rhs, env)
            nodes += 1
    assert nodes > 100
    # every rule, on its left side with a fresh constant for each variable
    for rule in rules:
        fresh = {name: app(f"c{i}") for i, name in enumerate(_vars_in_preorder(rule.lhs))}
        build, bindings, got = matchers[rule.lhs[0]](subst_template(rule.lhs, fresh)[1:])
        assert got is rule and bindings == tuple(fresh.values())
        assert build(_plain, *bindings) == subst_template(rule.rhs, fresh)
    if rules is HAND:
        # the repeated variable compares whole terms
        assert matchers[_EQ]((app(_S, app(_Z)), app(_S, app(_Z))))[2] is HAND[0]
        assert matchers[_EQ]((app(_S, app(_Z)), app(_S, app(_S, app(_Z)))))[2] is HAND[1]
        assert matchers[_EQ]((app(_S, app(_Z)), app(_Z)))[2] is HAND[2]
        # a constructor of the wrong arity matches no pattern of that head
        assert matchers[_EQ]((app(_S), app(_S, app(_Z))))[2] is HAND[2]
        assert matchers[_LAMBDA]((app(_PAIR, app(_S), app(_Z)),))[2] is HAND[6]
        assert matchers[_LAMBDA]((app(_PAIR, app(_S, app(_Z), app(_Z)), app(_Z)),))[2] is HAND[6]
        assert matchers[_LAMBDA]((app(_Z, app(_Z)),))[2] is HAND[6]
        for term in _intermediate_terms(HAND):
            assert reduce(term, HAND) == _unmemoized_innermost(term, HAND, 10**6)


def test_compiled_matchers_are_built_once_per_rule_set(monkeypatch):
    term = encode_level(Max(x, Succ(y)))
    expected = {strategy: reduce(term, RULES, strategy) for strategy in STRATEGIES}
    built = []
    for name in ("compile_matchers", "compile_evaluator"):
        def counting(by_head, name=name, compile_rules=getattr(codegen, name)):
            built.append(name)
            return compile_rules(by_head)
        monkeypatch.setattr(codegen, name, counting)
    inner, outer = RuleSet(RULES), RuleSet(RULES)
    assert built == []  # building a rule set compiles nothing
    # untraced innermost builds the evaluator, once, and no matchers
    for _ in range(2):
        assert reduce(term, inner) == expected["innermost"]
    assert built == ["compile_evaluator"] and inner.evaluator() is inner.evaluator()
    # the positional loop builds the matchers, once, and no evaluator
    for strategy in STRATEGIES[1:]:
        assert reduce(term, outer, strategy) == expected[strategy]
    assert reduce(term, outer, trace=lambda *a: None) == expected["innermost"]
    assert built == ["compile_evaluator", "compile_matchers"]
    assert outer.matchers() is outer.matchers()
    assert RULES.matchers() is not LITERAL.matchers()
    assert RULES.matchers()["succL"] is not LITERAL.matchers()["succL"]
    assert RULES.evaluator() is not LITERAL.evaluator()
    # the generated functions hang off the rule set alone
    alive = [weakref.ref(inner.evaluator()), weakref.ref(outer.matchers()["succL"])]
    del inner, outer
    gc.collect()
    assert [ref() for ref in alive] == [None, None]
    # building a rule set rejects a head whose rules differ in arity
    with pytest.raises(ValueError, match="the rules of 'f' take different numbers of arguments"):
        RuleSet([RewriteRule(app("f", pvar("x")), pvar("x")),
                 RewriteRule(app("f", pvar("x"), pvar("y")), pvar("y"))])


def test_memoized_innermost_frees_its_memo_on_return():
    # the heaviest case of the first 1000 in the fuzz criterion's stream;
    # with the collector off, nothing the reduction makes may outlive it
    # unless the rule set's table holds it (its memo is about 1 MB here)
    term = encode_level(gen_level(GenConfig(seed=707, max_size=50), 546))
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()  # also empties the interpreter's free lists
    tracemalloc.start()
    try:
        # freed tuples and dicts refill the free lists and stay traced: the
        # first calls grow traced memory by up to ~400 KB with nothing leaked
        for _ in range(3):
            reduce(term, RULES)
        before = tracemalloc.get_traced_memory()[0]
        report = reduce(term, RULES)
        assert report.steps == 107_142 and not report.budget_exhausted
        del report
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert after - before < 64 * 1024


def test_a_reduction_makes_no_functions_of_its_own():
    # the evaluator is generated once per rule set, as top-level functions
    # of one module; a reduction binds its state there and returns, with
    # nothing to release (functions made per reduction cost 10.7 KB here)
    rules = RuleSet(RULES)
    evaluate = rules.evaluator()
    for _ in range(3):
        reduce(app("zeroL"), rules)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert reduce(app("zeroL"), rules) == ReductionReport(app("maxS", app("nilSL")), 1, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert peak - before < 2 * 1024
    assert rules.evaluator() is evaluate
    tree = ast.parse(codegen.evaluator_source(rules.by_head))
    nested = [f"{type(node).__name__} at line {node.lineno}" for top in tree.body
              for node in ast.walk(top) if node is not top
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == []


def test_redex_index_memory_follows_the_term():
    # random steps on the fuzz criterion's heaviest early case; an index that
    # kept every node it ever entered peaked near 13 MB here, one keyed by
    # node id that dropped the nodes that left the term near 0.55 MB, and
    # annotated nodes, which die with the term, peak near 0.3 MB
    term = encode_level(gen_level(GenConfig(seed=707, max_size=50), 546))
    RULES.matchers()  # compile the rules outside the measurement
    tracemalloc.start()
    try:
        report = reduce(term, RULES, "random", budget=5_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.steps == 5_000 and report.budget_exhausted
    assert peak < 1024 * 1024


@pytest.mark.parametrize("strategy", ["outermost", "random", "innermost"])
def test_positional_results_are_plain_terms(strategy):
    # the loop's annotated nodes stay inside it: callers get plain tuples
    trace = (lambda step, pos, rule: None) if strategy == "innermost" else None
    cfg = GenConfig(seed=13, max_size=8)
    for i in range(10):
        term = encode_level(gen_level(cfg, i))
        for budget in (3, 10**6):
            report = reduce(term, RULES, strategy, budget, seed=i, trace=trace)
            assert all(type(node) is tuple for node in _subterms(report.result))
            assert pickle.loads(pickle.dumps(report)) == report
        assert not report.budget_exhausted
        assert report.result == reduce(term, RULES).result


# run in a child interpreter, at the default recursion limit
_POSITIONAL_RUNS = """
import sys
from levelcanon.harness import GenConfig, gen_level
from levelcanon.rewrite import default_rules, encode_level, reduce
fresh = sys.getrecursionlimit()
rules = default_rules()
cfg = GenConfig(seed=707, max_size=50)
for i, budget in ((0, 10**6), (2, 10**6), (546, 2_000)):
    term = encode_level(gen_level(cfg, i))
    reduce(term, rules, "outermost", budget)
    reduce(term, rules, "random", budget, seed=i)
    reduce(term, rules, "innermost", budget, trace=lambda step, pos, rule: None)
assert sys.getrecursionlimit() == fresh, sys.getrecursionlimit()
"""


def test_positional_strategies_leave_the_recursion_limit_alone():
    proc = run_in_child(_POSITIONAL_RUNS)
    assert proc.returncode == 0, proc.stderr


_INNERMOST_RUN = """
import sys
from levelcanon.rewrite import app, default_rules, reduce
before = sys.getrecursionlimit()
reduce(app("zeroL"), default_rules())
assert sys.getrecursionlimit() == before, (before, sys.getrecursionlimit())
"""


# a library call should leave interpreter-wide state as it found it
def test_innermost_reduction_leaves_the_recursion_limit_alone():
    proc = run_in_child(_INNERMOST_RUN)
    assert proc.returncode == 0, proc.stderr


def test_check_soundness_examples():
    assert soundness_report(IMax(x, x))[0]
    assert soundness_report(Max(IMax(x, y), IMax(y, x)))[0]
    assert soundness_report(ZERO)[0]
    assert soundness_report(Max(Max(IMax(x, a), IMax(x, b)), x))[0]
    report = reduce(encode_level(Max(x, y)), default_rules(), budget=3)
    assert report.budget_exhausted and report.steps == 3


@given(level_strategy(max_leaves=6))
@settings(max_examples=60, deadline=None)
def test_rewrite_path_matches_normalizer(t):
    assert soundness_report(t)[0]


def test_strategies_agree():
    rng = random.Random(0)
    cfg = GenConfig(seed=21, max_size=10)
    for i in range(15):
        t = gen_level(cfg, i)
        term = encode_level(t)
        results = {reduce(term, RULES, strategy, seed=rng.randrange(100)).result
                   for strategy in ("innermost", "outermost", "random")}
        assert len(results) == 1, t


def test_sample_confluence():
    for t, strategies, seed in ((Max(IMax(x, y), Succ(x)), 5, 3), (ZERO, 2, 0)):
        runs = confluence_runs(t, strategies, seed, 10**6)
        assert len(runs) == strategies and not any(run.budget_exhausted for run in runs)
        assert len({run.result for run in runs}) == 1
    with pytest.raises(ValueError):
        confluence_runs(ZERO, 1, 0, 10**6)


def test_confluence_runs_record_step_counts():
    runs = confluence_runs(Max(Succ(x), IMax(y, x)), strategies=5, seed=1, budget=10**6)
    assert len(runs) == 5
    assert all(run.steps > 0 and not run.budget_exhausted for run in runs)
    assert len({run.result for run in runs}) == 1


def test_intermediate_terms_stay_well_sorted():
    # independent stepping loop over the public matcher, checking sorts at
    # every intermediate term, then comparing against the engine's answer
    def step(term):
        for rule in RULES:
            env = match(rule.lhs, term)
            if env is not None:
                return subst_template(rule.rhs, env)
        if len(term) == 1:
            return None
        for i, child in enumerate(term[1:]):
            stepped = step(child)
            if stepped is not None:
                return term[: i + 1] + (stepped,) + term[i + 2:]
        return None

    for t in (IMax(x, Succ(y)), Max(Succ(x), IMax(y, x)), Succ(IMax(x, ZERO))):
        term = encode_level(t)
        for _ in range(400):
            assert infer_sort(term, SIGNATURE) == "level"
            nxt = step(term)
            if nxt is None:
                break
            term = nxt
        else:
            pytest.fail("reduction did not finish in 400 steps")
        assert term == reduce(encode_level(t), RULES).result


def published(*heads: str) -> RuleSet:
    """The default rules with the published forms of `heads` in place of their
    own, so that each published form shows its fault apart from the others."""
    return RuleSet([r for r in RULES if r.lhs[0] not in heads]
                   + [r for r in LITERAL if r.lhs[0] in heads])


def test_literal_variable_rule_argument_order():
    lit = reduce(encode_level(y), published("varL")).result
    # set {1}, then the displayed (0, id) argument order
    assert lit == app("maxS", app("consSL", app(
        "A", app("consN", encode_nat(1), app("nilN")), encode_nat(0), encode_nat(1)),
        app("nilSL")))
    assert reduce(encode_level(y), LITERAL).result == lit
    assert reduce(encode_level(y), RULES).result == encode_repr(normalize(y))


def test_literal_successor_loses_the_constant_floor():
    rules = published("succL")
    assert len(rules) == 86
    shifted = SubA((1,), 1, 1)  # A{y}(y)+1; the floor is B{}+1
    assert normalize(Succ(y)) == Repr((shifted, SubB((), 1)))
    assert reduce(encode_level(Succ(y)), rules).result == encode_repr(Repr((shifted,)))


def test_literal_insertion_keeps_a_dominated_atom():
    rules = published("maxHelper", "maxHelperGo")
    assert len(rules) == 82
    t = Max(Max(IMax(x, a), IMax(x, b)), x)
    top, dominated = SubA((0,), 0, 0), SubA((0, 3), 0, 0)  # A{x}(x)+0 >= A{x,b}(x)+0
    normal = (top, SubA((2,), 2, 0), SubA((3,), 3, 0))
    assert normalize(t) == Repr(normal)
    atoms = (top, dominated, *normal[1:])
    # encode_repr takes any sorted atoms: these are no antichain, so no Repr
    assert reduce(encode_level(t), rules).result == encode_repr(atoms)
    with pytest.raises(ReprInvariantError,
                       match=re.escape(f"comparable atoms {top!r} and {dominated!r}")):
        Repr(atoms)


def test_literal_substitution_drops_the_guard_set():
    r = normalize(IMax(y, x))
    assert r == Repr((SubA((0,), 0, 0), SubA((0, 1), 1, 0)))
    term = app("evalL", encode_repr(r), encode_nat(1), encode_nat(3))  # y := 3
    default_result = reduce(term, RULES).result
    assert default_result == encode_repr(subst_repr(r, 1, 3))
    assert default_result == encode_repr(Repr((SubA((0,), 0, 0), SubB((0,), 3))))
    assert reduce(term, published("evalS")).result == \
        encode_repr(Repr((SubA((0,), 0, 0), SubB((), 3))))  # B{}+3 for B{x}+3


def test_rule_dump_format():
    dump = rule_dump(RULES)
    lines = dump.splitlines()
    assert len(lines) == len(RULES)
    assert all(" --> " in line for line in lines)
    assert "zeroL --> maxS nilSL" in lines


def test_term_to_str():
    assert term_to_str(app("zeroL")) == "zeroL"
    assert term_to_str(app("maxL", app("varL", encode_nat(0)), app("zeroL"))) == \
        "maxL (varL zeroN) zeroL"


def test_encode_and_print_deep_numerals():
    t = ZERO
    for _ in range(100_000):
        t = Succ(t)
    term = encode_level(t)
    assert term_to_str(term) == "succL (" * 99_999 + "succL zeroL" + ")" * 99_999
