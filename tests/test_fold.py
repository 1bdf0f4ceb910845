"""Every walk over a level is `fold_level`: its contract, one error for a
node that is not a level, and levels far deeper than the recursion limit.
Every walk over a rewrite term that builds a value bottom-up is
`fold_term`: its contract, and terms far deeper than the recursion limit.

Deep levels are built iteratively, and their expected sizes, variables,
constant depths, values, texts and encodings are tracked while they are built,
without the functions under test.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import levelcanon
from levelcanon import (
    IMax, Max, NameTable, Succ, Var, ZERO, const_depth, eval_level, eval_repr,
    find_counterexample_leq, fold_level, level_size, level_vars, print_level,
)
from levelcanon.normalize import normalize
from levelcanon.rewrite import app, encode_level, fold_term, pvar
from levelcanon.rewrite.terms import term_to_str

x, y, z = Var(0), Var(1), Var(2)


def _names() -> NameTable:
    names = NameTable()
    for name in ("x", "y", "z"):
        names.intern(name)
    return names


def test_fold_level_calls_back_in_post_order_with_whole_successor_runs():
    calls = []

    def var(vid):
        calls.append(("var", vid))
        return ("var", vid)

    def succ(value, n):
        calls.append(("succ", n))
        return ("succ", value, n)

    def max_(a, b):
        calls.append(("max",))
        return ("max", a, b)

    def imax(a, b):
        calls.append(("imax",))
        return ("imax", a, b)

    t = Succ(Succ(Max(IMax(x, Succ(ZERO)), Succ(Succ(Succ(y))))))
    assert fold_level(t, "0", var, succ, max_, imax) == (
        "succ", ("max", ("imax", ("var", 0), ("succ", "0", 1)), ("succ", ("var", 1), 3)), 2)
    assert calls == [("var", 0), ("succ", 1), ("imax",), ("var", 1), ("succ", 3), ("max",),
                     ("succ", 2)]
    assert fold_level(ZERO, "0", var, succ, max_, imax) == "0"


def test_fold_term_calls_back_in_post_order_left_to_right():
    calls = []

    def var(name):
        calls.append(("var", name))
        return ("var", name)

    def node(head, kids):
        calls.append((head, len(kids)))
        return (head, kids)

    t = app("f", app("g", pvar("x"), app("c")), pvar("y"), app("h", app("c")))
    assert fold_term(t, var, node) == (
        "f", [("g", [("var", "x"), ("c", [])]), ("var", "y"), ("h", [("c", [])])])
    assert calls == [("var", "x"), ("c", 0), ("g", 2), ("var", "y"), ("c", 0), ("h", 1),
                     ("f", 3)]
    calls.clear()
    assert fold_term(app("c"), var, node) == ("c", [])  # a nullary head: no argument values
    assert fold_term(pvar("x"), var, node) == ("var", "x")  # a variable at the root
    assert calls == [("c", 0), ("var", "x")]


# run in a child interpreter at the default recursion limit, since a
# reduction in this process raises the limit for good
_DEEP_TERM_WALKS = """
import sys
from levelcanon import Succ, Var
from levelcanon.rewrite import SIGNATURE, encode_level, infer_sort, term_to_str, term_vars
from oracles import subst_template
assert sys.getrecursionlimit() == 1000
n = 100_000
t = ("plus", ("$", "x"), ("$", "y"))
for _ in range(n):
    t = ("succN", t)
assert term_vars(t) == {"x", "y"}
var_sorts = {}
assert infer_sort(t, SIGNATURE, var_sorts) == "nat" and var_sorts == {"x": "nat", "y": "nat"}
level = Var(0)
for _ in range(n):
    level = Succ(level)
assert infer_sort(encode_level(level), SIGNATURE) == "level"
assert term_to_str(t) == "succN (" * (n - 1) + "succN (plus x y" + ")" * n
zero, one = ("zeroN",), ("succN", ("zeroN",))
got = subst_template(t, {"x": zero, "y": one})
for _ in range(n):
    assert len(got) == 2 and got[0] == "succN"
    got = got[1]
assert got[0] == "plus" and got[1] is zero and got[2] is one
"""


def test_term_walks_take_a_term_a_hundred_thousand_deep():
    env = dict(os.environ)
    src = str(Path(levelcanon.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)  # for `oracles`
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DEEP_TERM_WALKS], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


WALKS = {
    "normalize": normalize,
    "eval_level": lambda t: eval_level(t, {0: 1}),
    "const_depth": const_depth,
    "level_size": level_size,
    "level_vars": level_vars,
    "print_level": lambda t: print_level(t, _names()),
    "encode_level": encode_level,
}


# (level holding a foreign node, that node); an int and a level class are
# the kinds of thing a fold's own stack may hold beside the levels
BAD_NODES = [(Max(x, "x"), "x"), (IMax(Succ("x"), x), "x"), (Succ(Succ("x")), "x"),
             (Max(x, 3), 3), (Succ(Max), Max)]
BAD_NODE_IDS = ["max-side", "imax-side-under-succ", "succ-run", "int-side", "class-child"]


def _refused(node):
    return pytest.raises(TypeError, match=f"^{re.escape(f'not a level: {node!r}')}$")


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("bad, node", [*BAD_NODES, ("x", "x")], ids=[*BAD_NODE_IDS, "root"])
def test_every_walk_rejects_a_node_that_is_not_a_level(walk, bad, node):
    with _refused(node):
        WALKS[walk](bad)


@pytest.mark.parametrize("op", ["hash", "=="])
@pytest.mark.parametrize("bad, node", BAD_NODES, ids=BAD_NODE_IDS)
def test_hash_and_equality_reject_a_node_that_is_not_a_level(op, bad, node):
    # the twin is a distinct node over the same fields, so == must walk both
    twin = type(bad)(*(getattr(bad, f) for f in bad.__match_args__))
    with _refused(node):
        hash(bad) if op == "hash" else bad == twin


# leaf: (level, size, variable ids, constant depth, value under a valuation,
#        text, encoded term's text as an argument)
LEAVES = (
    (ZERO, 1, (), 0, lambda s: 0, "0", "zeroL"),
    (x, 1, (0,), 0, lambda s: s[0], "x", "(varL zeroN)"),
    (y, 1, (1,), 0, lambda s: s[1], "y", "(varL (succN zeroN))"),
    (Succ(Succ(z)), 3, (2,), 2, lambda s: s[2] + 2, "s(s(z))",
     "(succL (succL (varL (succN (succN zeroN)))))"),
)
SIGMAS = ({0: 0, 1: 0, 2: 0}, {0: 1, 1: 0, 2: 3}, {0: 4, 1: 2, 2: 0})


def _imax(i: int, j: int) -> int:
    return 0 if j == 0 else max(i, j)


def _steps(shape: str, depth: int):
    """`depth` wrapping steps: ("s", run length) or (connective, leaf index, side)."""
    for i in range(depth):
        if shape == "left":
            yield ("max", "imax")[i % 2], i % 4, "left"
        elif shape == "right":
            yield ("imax", "max")[i % 2], (i + 1) % 4, "right"
        elif i % 3 == 0:
            yield "s", 1 + i % 4
        else:
            yield ("max", "imax")[i % 2], i % 4, ("left", "right")[i % 5 % 2]


def _deep(shape: str, depth: int):
    """The level `shape` names at `depth` steps over `x`, with its expected facts."""
    t = x
    size, vids, cdepth = 1, {0}, 0
    values = [s[0] for s in SIGMAS]
    text = ([], [])  # prefixes innermost first, suffixes innermost first
    term = ([], [])
    for step in _steps(shape, depth):
        if step[0] == "s":
            k = step[1]
            for _ in range(k):
                t = Succ(t)
            size, cdepth = size + k, cdepth + k
            values = [v + k for v in values]
            parts = [("s(" * k, ")" * k), ("succL (" * k, ")" * k)]
        else:
            op, leaf_index, side = step
            leaf, leaf_size, leaf_vids, leaf_cdepth, leaf_value, leaf_text, leaf_term = \
                LEAVES[leaf_index]
            node, head, combine = (Max, "maxL", max) if op == "max" else (IMax, "ruleL", _imax)
            leaf_values = [leaf_value(s) for s in SIGMAS]
            if side == "left":
                t = node(t, leaf)
                values = [combine(v, w) for v, w in zip(values, leaf_values)]
                parts = [(f"{op}(", f", {leaf_text})"), (f"{head} (", f") {leaf_term}")]
            else:
                t = node(leaf, t)
                values = [combine(w, v) for v, w in zip(values, leaf_values)]
                parts = [(f"{op}({leaf_text}, ", ")"), (f"{head} {leaf_term} (", ")")]
            size += leaf_size + 1
            vids |= set(leaf_vids)
            cdepth = max(cdepth, leaf_cdepth)
        for (prefix, suffix), out in zip(parts, (text, term)):
            out[0].append(prefix)
            out[1].append(suffix)
    expect = {
        "size": size, "vars": frozenset(vids), "const_depth": cdepth, "values": values,
        "text": "".join(reversed(text[0])) + "x" + "".join(text[1]),
        "term": "".join(reversed(term[0])) + "varL zeroN" + "".join(term[1]),
    }
    return t, expect


def _check_linear_walks(t, expect):
    assert [eval_level(t, s) for s in SIGMAS] == expect["values"]
    assert const_depth(t) == expect["const_depth"]
    assert level_size(t) == expect["size"]
    assert level_vars(t) == expect["vars"]
    assert term_to_str(encode_level(t)) == expect["term"]
    assert print_level(t, _names()) == expect["text"]


@pytest.mark.parametrize("shape", ["left", "right", "mixed"])
def test_every_walk_takes_a_level_ten_thousand_deep(shape):
    t, expect = _deep(shape, 10_000)
    _check_linear_walks(t, expect)
    r = normalize(t)
    assert [eval_repr(r, s) for s in SIGMAS] == expect["values"]
    assert find_counterexample_leq(t, Succ(t), 2) is None
    assert find_counterexample_leq(Succ(t), t, 2) == dict.fromkeys(sorted(expect["vars"]), 0)


@pytest.mark.parametrize("shape", ["left", "right", "mixed"])
def test_linear_walks_take_a_level_a_hundred_thousand_deep(shape):
    t, expect = _deep(shape, 100_000)
    _check_linear_walks(t, expect)
    twin = _deep(shape, 100_000)[0]
    assert t is not twin and t == twin and hash(t) == hash(twin)
    assert t != Succ(twin) and Max(t, x) != Max(twin, y)
