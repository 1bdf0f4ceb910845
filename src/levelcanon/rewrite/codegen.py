"""Python source generated from a rule set, and compiled: the matchers of the
positional strategies and the innermost evaluator (`RuleSet.matchers` and
`RuleSet.evaluator`).

Each defined head's generated code is written and compiled on the first
call that reaches it (`_deferred`), into the one namespace of the rule
set's matchers or of its evaluator: a reduction calls about half of the
heads, and compiling all of them at once cost a `rewrite` process its
largest compile and left about 1 MB of the compiler's memory resident.

Imported on a rule set's first reduction, so a process that reduces nothing
does not load it.
"""

from __future__ import annotations

from itertools import count
from typing import Callable

from .terms import PVAR_HEAD, RTerm, RewriteRule, fold_term, is_pvar, preorder, term_vars


def _left_sides(rules: list[RewriteRule], kids: list[str]):
    """Each rule in order with the tests under which arguments `kids` match
    its left side and the source of each of its variables, up to the first
    rule that matches every argument (later ones can never fire)."""
    for rule in rules:
        tests: list[str] = []
        binds: dict[str, str] = {}
        for pat, src in zip(rule.lhs[1:], kids):
            _compile_pattern(pat, src, tests, binds)
        yield rule, tests, binds
        if not tests:
            return


def _items(exprs) -> str:
    return "".join(e + ", " for e in exprs)


def compile_matchers(by_head: dict[str, list[RewriteRule]]) -> dict[str, Callable]:
    # Rule text reaches the generated source only as repr() literals; pattern
    # variables become the positional names v0, v1, ... and the rules
    # themselves are passed in by name (r<h>_<i>, the i-th rule of head h),
    # never printed.  A head's matcher m<h> compiles with its rules' builders
    # b<h>_<i>, and its source is written then.
    namespace: dict[str, object] = {}
    matchers: dict[str, Callable] = {}
    for h, (head, rules) in enumerate(by_head.items()):
        namespace.update((f"r{h}_{i}", rule) for i, rule in enumerate(rules))
        matchers[head] = _deferred(namespace, matchers, head, f"m{h}", "<compiled rules>",
                                   _matcher_part, rules, h)
    return matchers


def _matcher_part(rules: list[RewriteRule], h: int) -> str:
    """The source of the matcher m<h> of the head of `rules`, the h-th, and
    of its rules' builders."""
    kids = [f"k{i}" for i in range(len(rules[0].lhs) - 1)]
    builds: list[str] = []
    matcher = [f"def m{h}(kids):"]
    if kids:
        matcher.append(f"    {_items(kids)}= kids")
    for i, (rule, tests, binds) in enumerate(_left_sides(rules, kids)):
        params = dict(zip(binds, (f"v{n}" for n in range(len(binds)))))
        builds.append(f"def b{h}_{i}(mk, {_items(params.values())}):")
        builds.append(f"    return {fold_term(rule.rhs, params.__getitem__, _mk_node)}")
        matcher.append(f"    if {' and '.join(tests) or 'True'}:")
        matcher.append(f"        return b{h}_{i}, ({_items(binds.values())}), r{h}_{i}")
    return "\n".join(builds + matcher)


def _deferred(namespace: dict, functions: dict, head: str, name: str, filename: str,
              write: Callable[..., str], *args) -> Callable:
    """The stand-in for `head`'s generated function `name`: its first call
    writes the source that defines `name`, `write(*args)`, and compiles it
    into `namespace`, which rebinds `name` there, enters the function for
    `head` in `functions`, and forwards the call, so every later call runs
    the function itself.  A call that generated code looked the stand-in up
    for before that (``f(f(x))`` loads the outer `f` before the inner call)
    only forwards."""
    def compile_on_first_call(*call_args):
        function = functions[head]
        if function is compile_on_first_call:
            exec(compile(write(*args), filename, "exec"), namespace)
            function = functions[head] = namespace[name]
        return function(*call_args)
    return compile_on_first_call


def _mk_node(head: str, kids: list[str]) -> str:
    return f"mk({head!r}, ({_items(kids)}))"


# The innermost evaluator is one generated module per rule set, written and
# compiled a head at a time: the prelude below and the node makers c<n> at
# once, each head's function f<h> on the first call that reaches it
# (`_deferred`), so the compiler's time and memory go only to the heads a
# reduction calls.  A
# reduction's state is the module's globals (step count, budget, the table's
# `get` and `setdefault`), bound by `evaluate` at the start of the reduction,
# so the engine runs one reduction at a time (`engine._INNERMOST`).
# Every entry goes to `table`, which outlives the reduction; sharing it
# across reductions is sound by these invariants:
#   * A key is one int, ``tag << 64 n | id(k0) << 64 (n - 1) | ... | id(k(n-1))``
#     for a head applied to n kids, with the head's `tag` (at least 1) and
#     every id below 2**64, so distinct heads, arities or kids never share a
#     key.  Tags come from one registry per process, so two rule sets given
#     one dict agree.  A fall-through node and its call have one key, and
#     share one entry.
#   * Ids stay valid: every id in a table key belongs to a node that the same
#     table keeps alive.  Each argument of a call or node is a value that
#     this reduction made, whatever the input's sorts: a result stored in
#     `table`, a node entered there, or a subterm of one.  The functions of
#     `unmemoized_heads` store no call, and make a normal form that no rule
#     matches through c<n>, never as a bare tuple that a later key could name.
#   * Insertion order is topological: a call's kids and its result, and a
#     node's kids, are entered before the entry that names them, and
#     `setdefault` never reorders.  So every first part of `table` keeps
#     alive every id its keys name, and the engine may replace a full table
#     by its first half.
#   * One table per reduction: `evaluate` binds it before any call, and every
#     entry of the reduction, the nullary values included, is read from and
#     written to that dict alone.
#   * No duplicate nodes: table entries are inserted with `setdefault`, and
#     the value it returns is the one used, so two reductions on one table
#     (two rule sets given one dict) never make two canonical nodes for one key.
_EVALUATION = """\
class Exhausted(Exception):
    pass
def evaluate(order, limit, table):
    global {state}
    budget, steps = limit, 0
    table_get, table_put = table.get, table.setdefault
{nullary}
    values = []
    try:
        for node in reversed(order):
            split = len(values) + 1 - len(node)
            kids = values[split:]
            del values[split:]
            head = node[0]
            defined = calls(head)
            if defined is not None:
                values.append(defined(*kids))
            else:
                key = tag(head)
                for kid in kids:
                    key = key << 64 | id(kid)
                values.append((table_get(key) or table_put(key, ((head, *kids), 0)))[0])
        result = values[0]
    except Exhausted:
        result = None
    table_get = table_put = None  # a table the rule set replaces is freed
    return result, steps
def replay(hit):
    global steps
    result, cost = hit
    if steps + cost > budget:
        steps = budget
        raise Exhausted
    steps += cost
    return result
def tick():
    global steps
    if steps >= budget:
        raise Exhausted
    steps += 1
"""


_tags: dict[str, int] = {}
_fresh_tag = count(1).__next__


def tag(head: str) -> int:
    """The head's tag in table keys: a positive int, one per head string,
    the same for every rule set in the process.  Drawn from one counter
    and entered with `setdefault`, so two heads never share a tag, even
    when two threads enter them at once."""
    return _tags.get(head) or _tags.setdefault(head, _fresh_tag())


def compile_evaluator(by_head: dict[str, list[RewriteRule]]) -> Callable:
    namespace: dict[str, object] = {"tag": tag}
    prelude, nullary = _evaluator_prelude(by_head)
    exec(compile(prelude, "<compiled evaluator>", "exec"), namespace)
    functions: dict[str, Callable] = {}
    namespace["calls"] = functions.get
    defined = {head: f"f{h}" for h, head in enumerate(by_head)}
    unmemoized = unmemoized_heads(by_head)
    for head, name in defined.items():
        namespace[name] = functions[head] = _deferred(
            namespace, functions, head, name, "<compiled evaluator>",
            _evaluator_part, by_head[head], defined, nullary, head not in unmemoized)
    return namespace["evaluate"]


def unmemoized_heads(by_head: dict[str, list[RewriteRule]]) -> set[str]:
    """The defined heads whose evaluator functions keep no table entry:
    selectors, whose right sides are each a variable or a nullary
    constructor (one test and one step cost less than a lookup), and
    caller-keyed heads, called only in rules of other, memoized heads with
    every variable of the left side below constructors alone (nodes are
    hash-consed, so such a key fixes the caller's, which is looked up first)."""
    def call(head: str, kids: list[set[str]]) -> set[str]:  # variables below constructors
        below = set().union(*kids)
        if head not in by_head:
            return below
        # `rule` is the rule whose right side is being folded
        callers.setdefault(head, []).append((rule.lhs[0], below >= term_vars(rule.lhs)))
        return set()

    callers: dict[str, list[tuple[str, bool]]] = {}
    for rules in by_head.values():
        for rule in rules:
            fold_term(rule.rhs, lambda name: {name}, call)
    selectors = {head for head, rules in by_head.items() if all(
        is_pvar(r.rhs) or len(r.rhs) == 1 and r.rhs[0] not in by_head for r in rules)}
    keyed = {callee for callee, found in callers.items() if callee not in selectors
             and all(head != callee and carried for head, carried in found)}
    return selectors | {callee for callee in keyed
                        if not any(head in keyed for head, _ in callers[callee])}


# One function per defined head (f<h>), one per constructor arity (c<n>, the
# head its first argument and the head's part of the key, ``tag << 64 n``,
# its second), and one value per nullary constructor that a right side
# builds (n<i>, bound per reduction).  Symbol text reaches the source only as
# repr() literals, and a pattern variable is its source expression in the
# arguments, such as k1[2].

def _evaluator_prelude(by_head: dict[str, list[RewriteRule]]) -> tuple[str, dict[str, str]]:
    """`_EVALUATION` and the node makers c<n>, one per arity of a
    constructor that a right side builds or of a defined head (whose
    arguments may match no rule), and each nullary constructor that a right
    side builds with its name n<i>, which `_EVALUATION` binds per reduction."""
    arities = {len(rules[0].lhs) - 1 for rules in by_head.values()}
    nullary: dict[str, str] = {}
    for rules in by_head.values():
        for rule in rules:
            for term in reversed(preorder(rule.rhs)):  # post-order
                if term[0] != PVAR_HEAD and term[0] not in by_head:
                    arities.add(len(term) - 1)
                    if len(term) == 1:
                        nullary.setdefault(term[0], f"n{len(nullary)}")
    lines = []
    for n in sorted(arities):
        kids = [f"k{i}" for i in range(n)]
        lines += [f"def c{n}(head, base, {_items(kids)}):",
                  _lookup("base", kids),
                  f"    return (hit or table_put(key, ((head, {_items(kids)}), 0)))[0]"]
    state = ", ".join(["budget", "steps", "table_get", "table_put", *nullary.values()])
    bind = "\n".join(f"    {name} = c0({head!r}, {_key_base(head, 0)})"
                     for head, name in nullary.items())
    return _EVALUATION.format(state=state, nullary=bind) + "\n".join(lines) + "\n", nullary


def _evaluator_part(rules: list[RewriteRule], defined: dict[str, str], nullary: dict[str, str],
                   memo: bool) -> str:
    """The source of the function of the head of `rules`, its name in
    `defined`, which keeps its calls in the table if `memo`."""
    head = rules[0].lhs[0]
    kids = [f"k{i}" for i in range(len(rules[0].lhs) - 1)]

    def node(head: str, kids: list[str]) -> str:
        if head in defined:
            return f"{defined[head]}({', '.join(kids)})"
        return nullary[head] if not kids else _construct(head, kids)

    lines = [f"def {defined[head]}({', '.join(kids)}):"]
    if memo:
        lines += [_lookup(_key_base(head, len(kids)), kids),
                  "    if hit:",
                  "        return replay(hit)",
                  "    start = steps"]
    value = "result =" if memo else "return"
    branch = "if"
    for rule, tests, binds in _left_sides(rules, kids):
        lines += [f"    {branch} {' and '.join(tests) or 'True'}:",
                  "        tick()",
                  f"        {value} {fold_term(rule.rhs, binds.__getitem__, node)}"]
        branch = "elif"
    if tests:  # arguments that no rule matches make a normal form, a node
        lines += ["    else:",
                  f"        {value} {_construct(head, kids)}"]
    if memo:
        lines += ["    return table_put(key, (result, steps - start))[0]"]
    return "\n".join(lines) + "\n"


def _key_base(head: str, n: int) -> str:  # a constant once compiled
    return f"{tag(head)} << {64 * n}"


def _construct(head: str, kids: list[str]) -> str:
    return f"c{len(kids)}({head!r}, {_key_base(head, len(kids))}, {_items(kids)})"


def _lookup(base: str, kids: list[str]) -> str:
    ids = "".join(f" | id({k}) << {64 * (len(kids) - i)}" for i, k in enumerate(kids, 1))
    return f"    hit = table_get(key := {base}{ids.removesuffix(' << 0')})"


def _compile_pattern(pat: RTerm, src: str, tests: list[str], binds: dict[str, str]) -> None:
    """Append to `tests` the conditions under which the term at expression
    `src` matches `pat`, and record in `binds` each new variable's source."""
    # top-down, so not a fold: a node's source expression extends its parent's
    if pat[0] == PVAR_HEAD:
        if pat[1] in binds:
            tests.append(f"{src} == {binds[pat[1]]}")
        else:
            binds[pat[1]] = src
        return
    if len(pat) == 1:
        tests.append(f"{src} == {pat!r}")
        return
    tests.append(f"len({src}) == {len(pat)} and {src}[0] == {pat[0]!r}")
    for i, child in enumerate(pat[1:], 1):
        _compile_pattern(child, f"{src}[{i}]", tests, binds)

