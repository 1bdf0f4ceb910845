from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings

from conftest import level_strategy
from levelcanon import IMax, Max, Succ, Var, ZERO, subst_repr
from levelcanon.export import export_framework
from levelcanon.harness import GenConfig, gen_level
from levelcanon.normalize import normalize
from levelcanon.rewrite import (
    SIGNATURE, DecodeError, ReductionReport, RewriteRule, RuleSet, app,
    builtin_ruleset, check_rule_sorts, decode_repr, default_rules,
    encode_level, encode_nat, encode_repr, infer_sort, is_pvar, match, pvar,
    reduce, rule_dump, sample_confluence, soundness_report, subst_template,
    term_to_str,
)
from levelcanon.rewrite import terms
from levelcanon.rewrite.engine import _RedexIndex
from levelcanon.rewrite.rules import read_rules
from levelcanon.rewrite.terms import match_args

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
            assert rule.is_left_linear(), rule
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


def test_the_published_forms_replace_only_the_rules_of_their_heads():
    swapped = {"varL", "succL", "maxHelper", "maxHelperGo", "evalS"}
    assert {head for head in RULES.by_head.keys() | LITERAL.by_head.keys()
            if RULES.by_head.get(head) != LITERAL.by_head.get(head)} == swapped
    assert [r for r in RULES if r.lhs[0] not in swapped] == \
        [r for r in LITERAL if r.lhs[0] not in swapped]


def test_read_rules_rejects_a_line_that_is_neither_declaration_nor_rule():
    with pytest.raises(ValueError, match="neither a declaration nor a rule"):
        read_rules(export_framework(x))  # the query line


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


def test_decode_roundtrip_and_shape_errors():
    cfg = GenConfig(seed=9, max_size=14)
    for i in range(300):
        r = normalize(gen_level(cfg, i))
        assert decode_repr(encode_repr(r)) == r
    with pytest.raises(DecodeError):
        decode_repr(app("succL", app("zeroL")))
    with pytest.raises(DecodeError):
        # comparable atoms: not the image of any valid representation
        bad = app("maxS", app("consSL", encode_sub_a(0, 0), app(
            "consSL", encode_sub_a(0, 1), app("nilSL"))))
        decode_repr(bad)


def encode_sub_a(vid: int, shift: int):
    return app("A", app("consN", encode_nat(vid), app("nilN")),
               encode_nat(vid), encode_nat(shift))


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
    mixed = RuleSet([RewriteRule(app("f", pvar("x")), pvar("x")),
                     RewriteRule(app("f", pvar("x"), pvar("y")), pvar("y"))])
    with pytest.raises(ValueError, match="different numbers of arguments"):
        reduce(app("zeroN"), mixed)


def _unmemoized_innermost(term, rules, budget):
    # a trace callback selects the positional loop, which memoizes nothing
    return reduce(term, rules, budget=budget, trace=lambda *a: None)


@pytest.mark.parametrize("rules", [RULES, LITERAL], ids=["default", "paper_literal"])
def test_memoized_innermost_matches_the_unmemoized_path(rules):
    # Max(t, t) and IMax(t, Max(t, t)) repeat whole calls, so cache hits
    # dominate; the budgets stop runs before, inside and after those hits
    cfg = GenConfig(seed=31, max_size=8)
    for i in range(20):
        t = gen_level(cfg, i)
        for level in (t, Max(t, t), IMax(t, Max(t, t))):
            term = encode_level(level)
            full = reduce(term, rules)
            assert full == _unmemoized_innermost(term, rules, 10**6)
            n = full.steps
            for budget in {1, n // 3, n - 1, n, n + 1} - {0}:
                fast = reduce(term, rules, budget=budget)
                slow = _unmemoized_innermost(term, rules, budget)
                assert (fast.steps, fast.budget_exhausted) == \
                    (slow.steps, slow.budget_exhausted), (level, budget)
                # an exhausted fast run reports its input; the positional loop
                # reports where it stopped (neither is a normal form)
                expected = term if slow.budget_exhausted else slow.result
                assert fast.result == expected, (level, budget)


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


def _check_index(index, term, rules):
    matchers = rules.matchers()
    pre, post = _redex_paths(term, rules), _redex_paths(term, rules, postorder=True)
    assert index.entries[id(term)][1] == len(pre)
    for order, postorder in ((pre, False), (post, True)):
        paths = [tuple(i for _, i in index.nth(term, k, postorder)[0]) for k in range(len(order))]
        assert paths == order
    # outermost takes the first redex in preorder, traced innermost the first
    # in postorder, and random draws an index into the preorder list
    assert _first_step(term, rules, "outermost") == (pre[0] if pre else None)
    assert _first_step(term, rules, "innermost") == (post[0] if post else None)
    assert _first_step(term, rules, "random", seed=7) == \
        (pre[random.Random(7).choice(range(len(pre)))] if pre else None)
    # every stored match is the one the compiled matcher finds there
    for node in _subterms(term):
        stored = index.entries[id(node)][0]
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
        index = _RedexIndex(rules.matchers(), term)
        n = _check_index(index, term, rules)
        seen += n
        if not n:
            continue
        # one step through the index: the fresh right side and the rebuilt
        # spine are entered as they are built, beside the stale entries
        spine, redex = index.nth(term, j % n, postorder=False)
        build, bindings, _ = index.entries[id(redex)][0]
        stepped = index.replace(spine, build(index.mk, *bindings))
        _check_index(index, stepped, rules)
        index.sweep(stepped)
        assert set(index.entries) == {id(node) for node in _subterms(stepped)}
        _check_index(index, stepped, rules)
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
    built = []
    compile_matchers = terms._compile_matchers

    def counting(by_head):
        built.append(by_head)
        return compile_matchers(by_head)

    monkeypatch.setattr(terms, "_compile_matchers", counting)
    rules = RuleSet(RULES)
    assert built == []  # building a rule set compiles nothing
    term = encode_level(Max(x, Succ(y)))
    assert reduce(term, rules) == reduce(term, RULES)
    assert reduce(term, rules, "outermost") == reduce(term, RULES, "outermost")
    assert built == [rules.by_head] and rules.matchers() is rules.matchers()
    assert RULES.matchers() is not LITERAL.matchers()
    assert RULES.matchers()["succL"] is not LITERAL.matchers()["succL"]
    # the generated functions hang off the rule set alone
    alive = weakref.ref(rules.matchers()["succL"])
    del rules
    gc.collect()
    assert alive() is None


def test_memoized_innermost_frees_its_memo_on_return():
    # the heaviest case of the first 1000 in the fuzz criterion's stream; the
    # evaluator's closures form a cycle, so with the collector off only an
    # explicit clear returns the memo's memory (about 1 MB here)
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


def test_redex_index_memory_follows_the_term():
    # random steps on the fuzz criterion's heaviest early case; an index that
    # kept every node it ever entered peaked near 13 MB here, one that drops
    # the nodes that left the term stays near 0.6 MB
    term = encode_level(gen_level(GenConfig(seed=707, max_size=50), 546))
    reduce(app("zeroL"), RULES)  # compile the rules outside the measurement
    tracemalloc.start()
    try:
        report = reduce(term, RULES, "random", budget=5_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.steps == 5_000 and report.budget_exhausted
    assert peak < 2 * 1024 * 1024


def test_check_soundness_examples():
    assert soundness_report(IMax(x, x))[0]
    assert soundness_report(Max(IMax(x, y), IMax(y, x)))[0]
    assert soundness_report(ZERO)[0]
    assert soundness_report(Max(Max(IMax(x, a), IMax(x, b)), x))[0]
    ok, report = soundness_report(Max(x, y), budget=3)
    assert not ok and report.budget_exhausted and report.steps == 3


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
    assert sample_confluence(Max(IMax(x, y), Succ(x)), strategies=5, seed=3)
    assert sample_confluence(ZERO, strategies=2)
    with pytest.raises(ValueError):
        sample_confluence(ZERO, strategies=1)


def test_confluence_runs_record_step_counts():
    from levelcanon.rewrite import confluence_runs
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


def test_literal_variable_rule_argument_order():
    lit = reduce(encode_level(y), LITERAL).result
    # set {1}, then the displayed (0, id) argument order
    assert lit == app("maxS", app("consSL", app(
        "A", app("consN", encode_nat(1), app("nilN")), encode_nat(0), encode_nat(1)),
        app("nilSL")))
    assert reduce(encode_level(y), RULES).result == encode_repr(normalize(y))


def test_literal_successor_loses_the_constant_floor():
    lit = reduce(encode_level(Succ(x)), LITERAL).result
    assert lit != encode_repr(normalize(Succ(x)))
    assert decode_repr(lit).atoms == normalize(Succ(x)).atoms[:1]


def test_literal_insertion_keeps_a_dominated_atom():
    t = Max(Max(IMax(x, a), IMax(x, b)), x)
    lit = reduce(encode_level(t), LITERAL).result
    assert lit != encode_repr(normalize(t))
    with pytest.raises(DecodeError):
        decode_repr(lit)  # the literal result is not even an antichain


def test_literal_substitution_drops_the_guard_set():
    r = normalize(IMax(y, x))  # contains A({x,y}, y, 0)
    term = app("evalL", encode_repr(r), encode_nat(1), encode_nat(3))  # y := 3
    default_result = reduce(term, RULES).result
    literal_result = reduce(term, LITERAL).result
    assert default_result == encode_repr(subst_repr(r, 1, 3))
    assert literal_result != default_result


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
