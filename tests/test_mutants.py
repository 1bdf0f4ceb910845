"""A standing catalogue of mutants: every check keeps its teeth.

Each row is a one-line change to a library function, installed with
`monkeypatch` at the name its caller binds, or a one-rule edit of
`RULE_TEXT`, and the library-level check that must kill it, with the first
witness that check names.  A row that stops being killed means a check lost
what it once caught; a changed witness means the check or the program
changed, and both deserve a look.

Equivalent mutants are listed with the reason they cannot be told apart from
the program, and are asserted to survive: if one is killed, the code changed
meaning (Budd & Angluin, Acta Informatica 1982).

Add a row when a change shows that a new check has teeth.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, NamedTuple

import pytest
from conftest import GEN_STREAM_SHA256, gen_stream_sha256, oracle_sweep
from oracles import (
    antichains, enumerate_sublevels, exhaustive_sublevel_suite, reference_read_rules, up,
    wrong_merges,
)
from test_deferred_compile import repeat_compile_check
from test_fold import BAD_NODE_IDS, BAD_NODES
from test_harness import skewed_eval_cases
from test_levels import unbound_check
from test_normalize import round_trip_check
from test_parser_reference import first_difference
from test_read_rules import reader_difference_check
from test_records import default_stats_check, validation_check, witness_copy_check
from test_rule_model import check
from test_sublevels import absent_delete_check
from test_surface import EXIT_HANDLER_WRAPPER, exit_handler_check, freeze_count_check

from levelcanon import IMax, Max, Succ, UnboundVariableError, Var, ZERO, Zero, levels
from levelcanon.cli import run_cli
from levelcanon.harness import GenConfig, harness_names, run_fuzz
from levelcanon.normalize import (
    MEMO_ENTRIES, Repr, SubB, _merge, _new, _sub_a, _sub_b, eval_sub, imax_repr, imax_sub,
    leq_sub, max_repr, repr_var, succ_repr, succ_sub,
)
from levelcanon.parser import _NUMERALS, _error_at, _numeral
from levelcanon.printer import print_repr
from levelcanon.rewrite import default_rules, rules
from levelcanon.rewrite.rules import read_rules
from levelcanon.rewrite.terms import SortError, is_pvar

DEFAULT_RULES = set(default_rules())


# --- checks: each returns None when the program passes it ---------------

def fuzz_check():
    """`run_fuzz(GenConfig(seed=0), 200)`: (failures, the first one)."""
    report = run_fuzz(GenConfig(seed=0), 200)
    return None if report.ok else (len(report.failures), report.failures[0].to_json())


def stream_check():
    """`gen_level`'s stream hash against its pin: the hash read instead."""
    got = gen_stream_sha256()
    return None if got == GEN_STREAM_SHA256 else got[:16]


def oracle_check():
    """The grid oracle against the first `valuations_on` witness, over bounds
    0..10 and 0..5 variables: the first disagreement."""
    return oracle_sweep()[2]


def atom_suite_check():
    """`exhaustive_sublevel_suite(2, 2, 4)`, which calls `oracles.leq_sub`:
    (failures, the first one)."""
    report = exhaustive_sublevel_suite(2, 2, 4)
    return None if report.ok else (len(report.failures), report.failures[0].to_json())


def merge_check():
    """`wrong_merges` on every antichain of the atoms over two variables with
    shift <= 1: the first case, printed."""
    reprs = [Repr(tuple(sorted(chain))) for chain in antichains(enumerate_sublevels(2, 1), 12)]
    names = harness_names(2)
    for op, r, arg in wrong_merges(reprs):
        return op, print_repr(r, names), arg if op == "succ" else print_repr(arg, names)
    return None


def eval_witness_check():
    """The eval failures of `test_harness.skewed_eval_cases`, each of which
    must name its case's first wrong valuation: the first that names
    another, as (level, the valuation named, the first wrong one)."""
    names = harness_names(3)
    with pytest.MonkeyPatch.context() as patch:
        for t, failure, points in skewed_eval_cases(patch):
            if failure is not None and failure.phase == "eval":
                first = next(point for point in points if sum(point.values()) % 3 == 2)
                first = {names.name_of(v): n for v, n in first.items()}
                if failure.witness != first:
                    return failure.level, failure.witness, first
    return None


def rule_model_check():
    """The rule model on each rule of `RULE_TEXT`, read with `read_rules`,
    that the default set lacks: the first that fails and its instance."""
    for rule in read_rules(rules.RULE_TEXT)[1]:
        env = None if rule in DEFAULT_RULES else check(rule)[1]
        if env is not None:
            return str(rule), env
    return None


def foreign_node_check():
    """The walks that reach `fold_level` through `levels`'s own binding
    (`eval_level`, `level_facts`, hash and ==) on each level of
    `test_fold.BAD_NODES`: the first that does not raise "not a level"
    naming the foreign node, as (walk, level id, what it did instead)."""
    walks = {
        "eval_level": lambda t: levels.eval_level(t, {0: 1}),
        "level_facts": levels.level_facts,
        "hash": hash,
        "==": lambda t: t == type(t)(*(getattr(t, f) for f in t.__match_args__)),
    }
    for (bad, node), name in zip(BAD_NODES, BAD_NODE_IDS):
        for walk, run in walks.items():
            try:
                got = run(bad)
            except TypeError as err:
                if str(err) == f"not a level: {node!r}":
                    continue
                got = err
            except Exception as err:
                got = err
            return walk, name, repr(got)
    return None


# s(s(max(imax(x, s(0)), s(s(s(y)))))) and its callbacks in post-order, left
# side before right, each successor run whole
POST_ORDER = (Succ(Succ(Max(IMax(Var(0), Succ(ZERO)), Succ(Succ(Succ(Var(1))))))),
              [("var", 0), ("succ", 1), ("imax",), ("var", 1), ("succ", 3), ("max",),
               ("succ", 2)])


def post_order_check():
    """`levels.fold_level`'s callbacks on `POST_ORDER`'s level: the calls it
    made, when they are not the post-order."""
    calls = []
    levels.fold_level(POST_ORDER[0], None, lambda vid: calls.append(("var", vid)),
                      lambda a, n: calls.append(("succ", n)), lambda a, b: calls.append(("max",)),
                      lambda a, b: calls.append(("imax",)))
    return None if calls == POST_ORDER[1] else calls


# --- mutants -------------------------------------------------------------

def fold_level_with_bare_markers(t, zero, var, succ, max_, imax):
    """`levels.fold_level` whose steps are marked by what they apply: a
    successor run by its length, a plain int, and two sides by the bare
    class Max or IMax."""
    values, todo = [], [t]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Var:
            values.append(var(node.vid))
        elif kind is Zero:
            values.append(zero)
        elif kind is Succ:
            n = 0
            while type(node) is Succ:
                n, node = n + 1, node.child
            todo += (n, node)
        elif kind is Max or kind is IMax:
            todo += (kind, node.right, node.left)
        elif kind is int:
            values[-1] = succ(values[-1], node)
        elif node is Max or node is IMax:
            right = values.pop()
            values[-1] = (max_ if node is Max else imax)(values[-1], right)
        else:
            raise TypeError(f"not a level: {node!r}")
    return values[0]


def fold_level_right_side_first(t, zero, var, succ, max_, imax):
    """`levels.fold_level` pushing the left side before the right, so that
    the right side folds first; each value still lands on its own side."""
    values, todo = [], [t]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Var:
            values.append(var(node.vid))
        elif kind is Zero:
            values.append(zero)
        elif kind is Succ:
            n = 0
            while type(node) is Succ:
                n, node = n + 1, node.child
            todo += (n, levels._RUN, node)
        elif kind is Max or kind is IMax:
            todo += (kind, levels._SIDES, node.left, node.right)
        elif node is levels._RUN:
            values[-1] = succ(values[-1], todo.pop())
        elif node is levels._SIDES:
            left = values.pop()
            values[-1] = (max_ if todo.pop() is Max else imax)(left, values[-1])
        else:
            raise TypeError(f"not a level: {node!r}")
    return values[0]


def leq_sub_b_under_a_without_plus_one(u, v):
    if u[0] and not v[0]:
        return u[2] <= v[3] and v[4] <= u[3]
    return leq_sub(u, v)


def leq_sub_b_under_b_without_the_subset_test(u, v):
    if u[0] and v[0]:
        return u[2] <= v[2]
    return leq_sub(u, v)


def leq_sub_a_under_a_ignoring_the_variable(u, v):
    if not u[0] and not v[0]:
        return u[3] <= v[3] and v[4] <= u[4]
    return leq_sub(u, v)


def succ_repr_without_the_floor(r, n):
    return Repr(tuple(succ_sub(u, n) for u in r)) if n else r


def imax_repr_with(least_of, copies):
    """`normalize.imax_repr` with its two steps given: the atoms of r2 whose
    guard sets can give surviving copies of an atom of r1, and those copies."""
    def imax_repr(r1, r2):
        if not r1 or not r2:
            return r2
        least = least_of(r2)
        return _merge(r2, [c for u in r1 for c in copies(u, least)])
    return imax_repr


def minimal_guards(r2):
    return [v for v in r2 if not any(w[-1] < v[-1] for w in r2)]


def maximal_guards(r2):
    return [v for v in r2 if not any(w[-1] > v[-1] for w in r2)]


def own_guard_shortcut(u, least):
    return [u] if any(v[-1] <= u[-1] for v in least) else [imax_sub(u, v) for v in least]


def shortcut_dropping_u(u, least):
    return [] if any(v[-1] <= u[-1] for v in least) else [imax_sub(u, v) for v in least]


def no_shortcut(u, least):
    return [imax_sub(u, v) for v in least]


def strict_own_guard_shortcut(u, least):
    """`own_guard_shortcut` taken only when a least guard set is strictly
    within u's (`<=` read as `<`)."""
    return [u] if any(v[-1] < u[-1] for v in least) else [imax_sub(u, v) for v in least]


def imax_repr_testing_both_empty(r1, r2):
    """`normalize.imax_repr` whose shortcut `not r1 or not r2` reads `and`:
    one empty side runs the general case."""
    if not r1 and not r2:
        return r2
    least = minimal_guards(r2)
    return _merge(r2, [c for u in r1 for c in own_guard_shortcut(u, least)])


def imax_sub_testing_a_strict_subset(u, v):
    """`normalize.imax_sub` that returns u itself only when v's guard set is
    strictly within u's (`<=` read as `<`)."""
    if v[-1] < u[-1]:
        return u
    guard = u[-1] | v[-1]
    merged = tuple(sorted(guard))
    if u[0]:
        return _sub_b(merged, u[2], guard)
    return _sub_a(merged, u[2], u[3], guard)


def fold_level_with_memos_of(entries):
    """`levels.fold_level` as `normalize` calls it, with the four memos
    swapped for fresh ones that each keep `entries` results."""
    memo = lru_cache(maxsize=entries, typed=True)
    ops = (memo(repr_var), memo(succ_repr), memo(max_repr), memo(imax_repr))
    return lambda t, zero, *_: levels.fold_level(t, zero, *ops)


def sub_b_tagged_two(varset, shift, guard):
    """`normalize._sub_b` tagging its B-atom 2, where `SubB` tags 1."""
    return _new(SubB, (2, varset, shift, guard))


def deferred_without_rebinding(namespace, functions, head, name, filename, write, *args):
    """`codegen._deferred` whose stand-in compiles and forwards but stays in
    `functions`, so every call through `functions` compiles again."""
    def compile_on_first_call(*call_args):
        exec(compile(write(*args), filename, "exec"), namespace)
        return namespace[name](*call_args)
    return compile_on_first_call


def check_rule_sorts_at_the_roots_only(rule, signature):
    """`check_rule_sorts` that checks no argument's sort, only that the
    right side's root, unless a variable, takes the left side's sort."""
    lhs_sort = signature[rule.lhs[0]].result
    rhs_sort = lhs_sort if is_pvar(rule.rhs) else signature[rule.rhs[0]].result
    if rhs_sort != lhs_sort:
        raise SortError(f"{rule.rhs[0]} has sort {rhs_sort}, expected {lhs_sort}")


def first_guard_shortcut(u, least):
    return [u] if least[0][-1] <= u[-1] else [imax_sub(u, v) for v in least]


def succ_repr_always_flooring(r, n):
    if n == 0:
        return r
    shifted = [succ_sub(u, n) for u in r]
    shifted.insert(bisect_left(r, (1,)), _sub_b((), n, frozenset()))
    return _new(Repr, shifted)


def eval_sub_skipping_the_last_guard(u, sigma, lanes=None):
    """`normalize.eval_sub` whose lane form masks an atom by the lanes where
    each guard variable but the last is not 0."""
    if lanes is None:
        return eval_sub(u, sigma)
    mask = -1
    for y in u[1][:-1]:
        mask &= lanes.nonzero(sigma[y])
    return mask & lanes.succ(0 if u[0] else sigma[u[2]], u[-2])


def eval_sub_stopping_at_the_first_zero_guard(u, sigma, lanes=None):
    """`normalize.eval_sub` as its plain-valuation form once read: 0 at the
    first guard variable that is 0, before the later ones are checked."""
    for y in u[1]:
        if y not in sigma:
            raise UnboundVariableError(y)
        if sigma[y] == 0:
            return 0
    return u[2] if u[0] else sigma[u[2]] + u[3]


def first_reading_the_highest_lane(lanes, mask):
    """`levels._Lanes.first` giving the highest lane with a bit set."""
    return (mask.bit_length() - 1) // lanes.width


def first_one_lane_low(lanes, mask):
    """`levels._Lanes.first` with `- 2` for its `- 1`: the lane below the
    lowest lane with a bit set, whenever that bit is a lane's lowest."""
    return ((mask & -mask).bit_length() - 2) // lanes.width


def numeral_splitting_a_copy(text, lexemes, index):
    """`parser._numeral` whose split of a glued word ("2x") the parse never
    sees: the digits are read, and the whole word stays one lexeme."""
    return _numeral(text, list(lexemes), index)


def unexpected_naming_the_split_word(text, lexemes, index, expected):
    """`parser._unexpected` naming the `index`-th word of a fresh `str.split`
    of the text, not the `index`-th lexeme the parse read, in which
    `_numeral` split each glued numeral it read ("2x")."""
    words = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    word = words[index] if index < len(words) else ""
    return _error_at(text, lexemes, index, f"unexpected {word or 'end of input'}", expected)


def numerals_off_by_one():
    """`parser._NUMERALS` with each numeral's text one above its tower."""
    return {str(int(digits) + 1): t for digits, t in _NUMERALS.items()}


def rule_edit(old: str, new: str) -> Callable[[], str]:
    """`RULE_TEXT` with `old`, a rule it holds once, replaced by `new`."""
    def make():
        assert rules.RULE_TEXT.count(old) == 1, old
        return rules.RULE_TEXT.replace(old, new)
    return make


RULE_SL_AA = ("ruleSL (A e x s) (A f y k) --> maxL (maxS (addSL nilSL (A (unionN e f) x s)))\n"
              "    (maxS (addSL nilSL (A f y k)))")
# the right side of ruleSL (A f y k) (A e x s): imax with its sides swapped
RULE_SL_AA_SWAPPED = ("ruleSL (A e x s) (A f y k) --> maxL (maxS (addSL nilSL "
                      "(A (unionN f e) y k)))\n    (maxS (addSL nilSL (A e x s)))")


def below_by_remainder(rng, n):
    return rng.getrandbits(n.bit_length()) % n


def below_rejecting_above_n_less_one(rng, n):
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r > n - 1:
        r = rng.getrandbits(k)
    return r


def layout_keyed_without_top():
    """`levels._layout` with a cache that keys a layout by its grid's side
    and variable count alone, keeping the lanes' top first asked for."""
    table = {}
    build = levels._layout.__wrapped__
    return lambda side, top, count: table.setdefault((side, count), build(side, top, count))


def facts_keeping_the_left_depth(t):
    """`levels.level_facts` whose max and imax keep the left side's constant
    depth, not the larger one."""
    found = set()
    var = lambda vid: found.add(vid) or (1, 0)
    pair = lambda a, b: (a[0] + b[0] + 1, a[1])
    size, depth = levels.fold_level(t, (1, 0), var, lambda a, n: (a[0] + n, a[1] + n), pair, pair)
    return frozenset(found), size, depth


def lanes_without_the_guard_bit(lanes, count, top):
    """`levels._Lanes.__init__` with lanes of `top.bit_length()` bits: the
    values fill the lane, and no guard bit stands above them."""
    lanes.count, lanes.width = count, top.bit_length()
    lanes._shift = lanes.width - 1
    lanes.ones = levels._repunit(count, lanes.width)
    lanes._guards = lanes.ones << lanes._shift


def succ_memo_keyed_without_n():
    """`normalize`'s successor memo keyed by the representation alone,
    keeping the result for the run length first asked for."""
    table = {}
    return lambda r, n: table.setdefault(r, succ_repr(r, n))


def to_json_returning_its_own_witness(self):
    """`harness.Failure.to_json` giving the failure's fields as they are, so
    the dict it returns holds the failure's own witness."""
    return self._asdict()


def report_sharing_its_default_stats():
    """`harness.DiffReport.__new__` whose default `step_stats` is one dict,
    made once, that every report built without stats holds."""
    shared = {}

    def new(cls, cases_run, failures, step_stats=shared):
        return tuple.__new__(cls, (cases_run, failures, step_stats))
    return staticmethod(new)


def config_without_the_size_check(cls, seed=0, max_size=50, num_vars=3):
    """`harness.GenConfig.__new__` that checks `num_vars` but not `max_size`."""
    if num_vars < 0:
        raise ValueError("num_vars must be a natural")
    return tuple.__new__(cls, (seed, max_size, num_vars))


def eq_repr_negated(r1, r2):
    return r1 != r2


def set_delete_reading_past_the_end(elems, x):
    """`normalize.set_delete` testing `i <= len(elems)`, so an id above every
    member reads the slot past the last."""
    i = bisect_left(elems, x)
    if i <= len(elems) and elems[i] == x:
        return elems[:i] + elems[i + 1:]
    return elems


def grid_answering_in_its_own_order():
    """`levels.Grid.leq_witness` answering every query in the order the
    grid holds its levels: a reverse query reads the forward one's sides
    unswapped."""
    leq_witness = levels.Grid.leq_witness
    return lambda grid, t1, t2: leq_witness(grid, *grid.pair)


def run_cli_freezing(argv):
    """`cli.run_cli` with the console entry's `gc.freeze()` moved into it."""
    code = run_cli(argv)
    gc.freeze()
    return code


# `levelcanon.cli.main` flushing stdio and ending the process by `os._exit`
OS_EXIT_MAIN = """\
import os, sys
from levelcanon import cli
def main():
    code = cli.run_cli(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
cli.main = main
"""


def wrapper_with_an_os_exit_main():
    """`test_surface.EXIT_HANDLER_WRAPPER` run after `OS_EXIT_MAIN`: the
    console entry skips the interpreter's shutdown, exit handlers and all."""
    return OS_EXIT_MAIN + EXIT_HANDLER_WRAPPER


class Mutant(NamedTuple):
    name: str
    target: str  # the binding the mutant replaces
    make: Callable[[], Callable]  # a fresh mutant
    check: Callable[[], object]
    witness: object  # what the check names first; None: it survives


KILLED = [
    Mutant("B <= A without + 1", "levelcanon.normalize.leq_sub",
           lambda: leq_sub_b_under_a_without_plus_one, fuzz_check,
           (8, {"level": "imax(max(x2, s(x2)), max(x2, imax(x0, x1)))", "other": None,
                "phase": "rewrite", "witness": None})),
    Mutant("B <= B without the subset test", "levelcanon.normalize.leq_sub",
           lambda: leq_sub_b_under_b_without_the_subset_test, fuzz_check,
           (5, {"level": "s(s(max(s(x0), max(imax(0, imax(s(s(x2)), x1)), "
                         "max(max(x2, x2), imax(x2, x2))))))",
                "other": None, "phase": "eval", "witness": {"x0": 0, "x1": 0, "x2": 0}})),
    Mutant("A <= A ignoring the variable", "levelcanon.normalize.leq_sub",
           lambda: leq_sub_a_under_a_ignoring_the_variable, fuzz_check,
           (35, {"level": "max(imax(max(x2, x1), x1), x0)", "other": None, "phase": "eval",
                 "witness": {"x0": 1, "x1": 2, "x2": 5}})),
    Mutant("succ_repr without the floor", "levelcanon.normalize.succ_repr",
           lambda: succ_repr_without_the_floor, fuzz_check,
           (124, {"level": "s(x1)", "other": None, "phase": "eval", "witness": {"x1": 0}})),
    Mutant("_below as getrandbits(k) % n", "levelcanon.harness._below",
           lambda: below_by_remainder, stream_check, "5042fb149de4b7f9"),
    # bound 0, no variables: the lanes built 1 bit wide serve a value of 6,
    # which needs 4
    Mutant("layout cache keyed without top", "levelcanon.levels._layout",
           layout_keyed_without_top, oracle_check,
           (0, 0, ZERO, up(Max(ZERO, ZERO), 6), {}, None)),
    Mutant("lane atom whose guard mask skips its last variable", "levelcanon.normalize.eval_sub",
           lambda: eval_sub_skipping_the_last_guard, fuzz_check,
           (25, {"level": "imax(max(x2, s(x2)), max(x2, imax(x0, x1)))", "other": None,
                 "phase": "eval", "witness": {"x0": 0, "x1": 0, "x2": 0}})),
    Mutant("atom 0 at its first zero guard", "levelcanon.normalize.eval_sub",
           lambda: eval_sub_stopping_at_the_first_zero_guard, unbound_check,
           ("eval_repr(normalize(imax(x3, x0)))", 0)),
    # bound 1, no variables: the grid takes the pair's constant depth as 0,
    # and lanes for the values 0..1 serve a value of 6
    Mutant("level_facts keeping the left depth", "levelcanon.levels.level_facts",
           lambda: facts_keeping_the_left_depth, oracle_check,
           (1, 0, ZERO, up(Max(ZERO, ZERO), 6), {}, None)),
    # eval_level reads the 3 of max(x, 3) as a run of 3 successors over x,
    # then finds no left side for the max
    Mutant("fold_level with bare int and class markers", "levelcanon.levels.fold_level",
           lambda: fold_level_with_bare_markers, foreign_node_check,
           ("eval_level", "int-side", "IndexError('list index out of range')")),
    Mutant("fold_level folding the right side first", "levelcanon.levels.fold_level",
           lambda: fold_level_right_side_first, post_order_check,
           [("var", 1), ("succ", 3), ("succ", 1), ("var", 0), ("imax",), ("max",),
            ("succ", 2)]),
    Mutant("_Lanes without its guard bit", "levelcanon.levels._Lanes.__init__",
           lambda: lanes_without_the_guard_bit, fuzz_check,
           (160, {"level": "max(imax(max(x2, x1), x1), x0)", "other": None, "phase": "eval",
                  "witness": {"x0": 5, "x1": 3, "x2": 4}})),
    Mutant("_Lanes.first reading the highest lane", "levelcanon.levels._Lanes.first",
           lambda: first_reading_the_highest_lane, eval_witness_check,
           ("max(s(x2), max(x0, x0))", {"x0": 5, "x2": 0}, {"x0": 1, "x2": 1})),
    # the grid names a point one lane before its witness, where the scalar
    # evaluator finds t1 <= t2
    Mutant("_Lanes.first one lane low", "levelcanon.levels._Lanes.first",
           lambda: first_one_lane_low, fuzz_check,
           (124, {"level": "max(imax(max(x2, x1), x1), x0)", "other": "s(x2)", "phase": "compare",
                  "witness": {"x0": 0, "x1": 1, "x2": 4}})),
    # the three leq_sub mutants again, on every ordered pair of 20 atoms
    Mutant("B <= A without + 1, on the atom suite", "oracles.leq_sub",
           lambda: leq_sub_b_under_a_without_plus_one, atom_suite_check,
           (12, {"level": "B{x0}+1", "other": "A{x0}(x0)+0", "phase": "compare",
                 "witness": None})),
    Mutant("B <= B without the subset test, on the atom suite", "oracles.leq_sub",
           lambda: leq_sub_b_under_b_without_the_subset_test, atom_suite_check,
           (21, {"level": "B{}+1", "other": "B{x0}+1", "phase": "compare", "witness": None})),
    Mutant("A <= A ignoring the variable, on the atom suite", "oracles.leq_sub",
           lambda: leq_sub_a_under_a_ignoring_the_variable, atom_suite_check,
           (24, {"level": "A{x0,x1}(x0)+0", "other": "A{x1}(x1)+0", "phase": "compare",
                 "witness": None})),
    Mutant("least as the maximal guard sets", "levelcanon.normalize.imax_repr",
           lambda: imax_repr_with(maximal_guards, own_guard_shortcut), merge_check,
           ("imax", "max{A{x0}(x0)+0, B{}+1}", "max{A{x1}(x1)+0, B{}+1}")),
    Mutant("imax shortcut dropping u", "levelcanon.normalize.imax_repr",
           lambda: imax_repr_with(minimal_guards, shortcut_dropping_u), merge_check,
           ("imax", "max{A{x0}(x0)+0, B{}+1}", "max{B{}+1}")),
    Mutant("succ_repr always inserting the floor", "levelcanon.normalize.succ_repr",
           lambda: succ_repr_always_flooring, merge_check, ("succ", "max{B{}+1}", 1)),
    Mutant("succ memo keyed without n", "levelcanon.normalize._succ_memo",
           succ_memo_keyed_without_n, fuzz_check,
           (67, {"level": "imax(s(imax(s(max(0, 0)), max(imax(s(max(x2, s(0))), x1), "
                          "s(imax(x0, s(s(s(x1)))))))), s(imax(s(x1), s(max(x0, 0)))))",
                 "other": None, "phase": "eval", "witness": {"x0": 0, "x1": 0, "x2": 0}})),
    # the error path reads the lexemes the parse reads, so after the unsplit
    # "15y" it names the "7" and finds it at its own column
    Mutant("glued numeral read without its split", "levelcanon.parser._numeral",
           lambda: numeral_splitting_a_copy, first_difference,
           ("\r\n15y 7",
            (("unexpected y", 2, 3, ["EOF"], "unexpected y at line 2, column 3 (expected EOF)"),
             []),
            (("unexpected 7", 2, 5, ["EOF"], "unexpected 7 at line 2, column 5 (expected EOF)"),
             []))),
    Mutant("_unexpected naming the split word", "levelcanon.parser._unexpected",
           lambda: unexpected_naming_the_split_word, first_difference,
           ("\r\n15y 7",
            (("unexpected y", 2, 3, ["EOF"], "unexpected y at line 2, column 3 (expected EOF)"),
             []),
            (("unexpected 7", 2, 3, ["EOF"], "unexpected 7 at line 2, column 3 (expected EOF)"),
             []))),
    Mutant("numeral table off by one", "levelcanon.parser._NUMERALS", numerals_off_by_one,
           first_difference,
           (" 2\t", ("Succ(child=Succ(child=Zero()))", []), ("Succ(child=Zero())", []))),
    Mutant("Failure.to_json returning its own witness", "levelcanon.harness.Failure.to_json",
           lambda: to_json_returning_its_own_witness, witness_copy_check, {"x0": 2}),
    Mutant("DiffReport sharing one default step_stats", "levelcanon.harness.DiffReport.__new__",
           report_sharing_its_default_stats, default_stats_check, {"total": 5}),
    Mutant("GenConfig accepting max_size 0", "levelcanon.harness.GenConfig.__new__",
           lambda: staticmethod(config_without_the_size_check), validation_check,
           ("GenConfig(max_size=0)", "GenConfig(seed=0, max_size=0, num_vars=3)")),
    # every case that reaches the compare phase fails it
    Mutant("eq_repr negated", "levelcanon.harness.eq_repr", lambda: eq_repr_negated, fuzz_check,
           (200, {"level": "max(imax(max(x2, x1), x1), x0)", "other": "s(x2)", "phase": "compare",
                  "witness": {"x0": 0, "x1": 2, "x2": 0}})),
    Mutant("set_delete testing i <= len(elems)", "levelcanon.normalize.set_delete",
           lambda: set_delete_reading_past_the_end, absent_delete_check,
           ((0,), 5, "IndexError('tuple index out of range')")),
    # a reverse query's witness is the forward one's, which the scalar
    # evaluator finds does not refute the reverse inequality
    Mutant("grid answering in its own order", "levelcanon.levels.Grid.leq_witness",
           grid_answering_in_its_own_order, fuzz_check,
           (198, {"level": "s(x2)", "other": "max(imax(max(x2, x1), x1), x0)",
                  "phase": "compare", "witness": {"x0": 0, "x1": 2, "x2": 0}})),
    # normalize(s(x)) makes its B({}, 1) floor with tag 2, and pickle
    # rebuilds it through SubB with tag 1 (test_normalize.py's
    # test_repr_surface runs the check)
    Mutant("_sub_b tagging B-atoms 2", "levelcanon.normalize._sub_b",
           lambda: sub_b_tagged_two, round_trip_check, ("Succ(child=Var(vid=0))", 0)),
    # the stand-ins of the input's heads, called through `calls`, compile
    # again on every call
    Mutant("deferred compile without rebinding", "levelcanon.rewrite.codegen._deferred",
           lambda: deferred_without_rebinding, repeat_compile_check,
           ("innermost", ["ruleL", "varL"])),
    # a variant's sort error below the root goes unseen
    Mutant("reader checking the root sorts only", "levelcanon.rewrite.rules.check_rule_sorts",
           lambda: check_rule_sorts_at_the_roots_only, reader_difference_check,
           ("drop", False, "SortError: ltN expects 2 arguments, got 1", "85 rules")),
    # the reader without its declaration check is the reference reader: a
    # declaration that an indented line joins passes, and a rule trips on it
    Mutant("reader without the declaration check", "test_read_rules.read_rules",
           lambda: reference_read_rules, reader_difference_check,
           ("drop", False, "ValueError: not a new symbol and its sorts, one word each: "
            "'memN : nat -> natset -> bool : natset -> natset -> bool'",
            "SortError: memN expects 4 arguments, got 2")),
    # the check runs a child process, and the mutant goes ahead of its wrapper
    Mutant("console entry ending by os._exit", "test_surface.EXIT_HANDLER_WRAPPER",
           wrapper_with_an_os_exit_main, exit_handler_check, (0, "true\n", "")),
    # the check unfreezes the collector after the command that froze it
    Mutant("run_cli freezing the collector", "levelcanon.cli.run_cli",
           lambda: run_cli_freezing, freeze_count_check, ["eq", "imax(x,x)", "x"]),
    Mutant("leqN (succN n) zeroN --> true", "levelcanon.rewrite.rules.RULE_TEXT",
           rule_edit("leqN (succN n) zeroN --> false", "leqN (succN n) zeroN --> true"),
           rule_model_check, ("leqN (succN n) zeroN --> true", {"n": 0})),
    Mutant("ruleSL of A-atoms with the swapped right side", "levelcanon.rewrite.rules.RULE_TEXT",
           rule_edit(RULE_SL_AA, RULE_SL_AA_SWAPPED), rule_model_check,
           (RULE_SL_AA_SWAPPED.replace("\n   ", ""),
            {"e": (0,), "x": 0, "s": 0, "f": (1,), "y": 1, "k": 0})),
]

# (mutant, why it cannot be told apart)
EQUIVALENT = [
    (Mutant("_below rejecting r > n - 1", "levelcanon.harness._below",
            lambda: below_rejecting_above_n_less_one, stream_check, None),
     "on ints, r > n - 1 holds exactly when r >= n"),
    (Mutant("imax without the own-guard shortcut", "levelcanon.normalize.imax_repr",
            lambda: imax_repr_with(minimal_guards, no_shortcut), merge_check, None),
     "imax_sub(u, v) is u itself when v's guard set is within u's, so the shortcut "
     "saves work and decides nothing"),
    (Mutant("imax shortcut testing the first minimal guard only",
            "levelcanon.normalize.imax_repr",
            lambda: imax_repr_with(minimal_guards, first_guard_shortcut), merge_check, None),
     "when another minimal guard set than the first is within u's, the copies "
     "include u itself, as with no shortcut"),
    (Mutant("MEMO_ENTRIES + 1", "levelcanon.normalize.fold_level",
            lambda: fold_level_with_memos_of(MEMO_ENTRIES + 1), fuzz_check, None),
     "a memo's size decides which results it keeps, never what normalize returns"),
    (Mutant("imax shortcut testing a strict subset", "levelcanon.normalize.imax_repr",
            lambda: imax_repr_with(minimal_guards, strict_own_guard_shortcut), merge_check,
            None),
     "when a least guard set equals u's, imax_sub(u, v) is u itself, so the copies "
     "include u, as with the shortcut"),
    (Mutant("imax_sub testing a strict subset", "levelcanon.normalize.imax_sub",
            lambda: imax_sub_testing_a_strict_subset, merge_check, None),
     "under an equal guard set, u rebuilt under the union is an atom equal to u"),
    (Mutant("imax_repr testing both sides empty", "levelcanon.normalize.imax_repr",
            lambda: imax_repr_testing_both_empty, merge_check, None),
     "with r1 empty there are no candidates, and with r2 empty no guard set gives a "
     "copy, so the merge gives r2 either way"),
    (Mutant("unionN f e in ruleSL of A-atoms", "levelcanon.rewrite.rules.RULE_TEXT",
            rule_edit(RULE_SL_AA, RULE_SL_AA.replace("unionN e f", "unionN f e")),
            rule_model_check, None),
     "union commutes"),
]


@pytest.mark.parametrize("row", KILLED, ids=[row.name for row in KILLED])
def test_the_check_kills_the_mutant_and_names_its_first_witness(row, monkeypatch):
    monkeypatch.setattr(row.target, row.make())
    assert row.check() == row.witness


@pytest.mark.parametrize("row, reason", EQUIVALENT, ids=[row.name for row, _ in EQUIVALENT])
def test_an_equivalent_mutant_survives(row, reason, monkeypatch):
    monkeypatch.setattr(row.target, row.make())
    assert row.check() is None, reason
