"""Reference oracles that the tests check the library against.

The program runs none of this.  Each oracle computes its answer a plainer
way than the library does, so a test that compares the two checks the
library against code it does not share: one valuation at a time, or a list
of values per variable, where the library evaluates packed lanes, every atom
where it reasons about antichains, an interpretive matcher where it compiles
one, structural rules where it normalizes, and a parser that lexes with one
regular expression and builds every node where the library's splits words
and shares leaves.  The serializations of a fuzz report are checked against
`dataclasses.asdict` of frozen dataclasses of the same fields, which is how
the report records were once defined and serialized.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import asdict, dataclass
from itertools import islice, product
from typing import Iterator, Optional

from levelcanon import IMax, Max, Succ, Zero, eval_level, level_vars
from levelcanon.harness import DiffReport, Failure, harness_names
from levelcanon.levels import Level, Var, VarId, ZERO, fold_level
from levelcanon.normalize import Repr
from levelcanon.parser import (
    _BAD_RE, _BINARY, _LEVEL_START, _LEXEME_RE, KEYWORDS, MAX_NESTING, MAX_NUMERAL, NameTable,
    ParseError, _error,
)
from levelcanon.printer import print_atom
from levelcanon.rewrite.terms import PVAR_HEAD, RewriteRule, RTerm, fold_term
from levelcanon.sublevels import SubA, SubB, SubLevel, eval_sub, imax_sub, leq_sub, succ_sub


# --- the fuzz report's serialization -------------------------------------

@dataclass(frozen=True)
class _FailureFields:
    level: str
    other: Optional[str]
    phase: str
    witness: Optional[dict[str, int]]


@dataclass(frozen=True)
class _ReportFields:
    cases_run: int
    failures: tuple[_FailureFields, ...]
    step_stats: dict[str, int]


def _failure_fields(failure: Failure) -> _FailureFields:
    return _FailureFields(failure.level, failure.other, failure.phase, failure.witness)


def failure_json(failure: Failure) -> dict:
    """`Failure.to_json`'s reference: `asdict` of the failure's fields."""
    return asdict(_failure_fields(failure))


def report_json(report: DiffReport) -> str:
    """`DiffReport.to_json`'s reference: compact JSON of `asdict` of the
    report's fields, its failures included."""
    fields = _ReportFields(report.cases_run, tuple(map(_failure_fields, report.failures)),
                           report.step_stats)
    return json.dumps(asdict(fields), separators=(",", ":"))


# --- levels and their grids ----------------------------------------------

def up(t: Level, n: int) -> Level:
    """`t` under a run of n successors."""
    for _ in range(n):
        t = Succ(t)
    return t


def valuations_on(vids: tuple[VarId, ...], bound: int) -> Iterator[dict[VarId, int]]:
    """All valuations of `vids` with values in {0..bound}; ValueError if bound < 0.

    The order is lexicographic in ascending variable id, the first variable
    slowest: the grid order of `find_counterexample_leq`.
    """
    if bound < 0:
        raise ValueError(f"grid bound {bound} is negative")
    return (dict(zip(vids, point)) for point in product(range(bound + 1), repeat=len(vids)))


def grid(vids: tuple[VarId, ...], bound: int) -> tuple[list[dict[VarId, int]], dict]:
    """The points of `valuations_on(vids, bound)`, and a column per variable:
    its values at those points, in order."""
    points = list(valuations_on(vids, bound))
    return points, {v: [point[v] for point in points] for v in vids}


def _column_succ(column: list[int], n: int) -> list[int]:
    return [v + n for v in column]


def _column_max(a: list[int], b: list[int]) -> list[int]:
    return [i if i > j else j for i, j in zip(a, b)]


def _column_imax(a: list[int], b: list[int]) -> list[int]:
    return [0 if j == 0 else i if i > j else j for i, j in zip(a, b)]


def column_level(t: Level, columns: dict[VarId, list[int]], width: int) -> list[int]:
    """`t`'s values at `width` points, `columns` mapping each variable to
    its values at those points: one fold over lists of values."""
    return fold_level(t, [0] * width, columns.__getitem__, _column_succ, _column_max,
                      _column_imax)


def column_repr(r: Repr, columns: dict[VarId, list[int]], width: int) -> list[int]:
    """`r`'s values at `width` points, as for `column_level`: one pass over
    the atoms, each zeroed wherever a variable of its set is 0."""
    column = [0] * width
    for u in r:
        values = [u[2]] * width if u[0] else [n + u[3] for n in columns[u[2]]]
        for y in u[1]:
            values = [v if g else 0 for v, g in zip(values, columns[y])]
        column = _column_max(column, values)
    return column


def first_witness(t1: Level, t2: Level, bound: int) -> Optional[dict[VarId, int]]:
    """The first point of the {0..bound} grid, in `valuations_on` order,
    where t1's value exceeds t2's, one valuation at a time; None if none."""
    vids = tuple(sorted(level_vars(t1) | level_vars(t2)))
    for sigma in valuations_on(vids, bound):
        if eval_level(t1, sigma) > eval_level(t2, sigma):
            return sigma
    return None


# --- atoms and antichains ------------------------------------------------

def enumerate_sublevels(max_vars: int, max_shift: int) -> list[SubLevel]:
    """Every valid sublevel over variable ids 0..max_vars-1 with shift <= max_shift.

    Counts: A-atoms number max_vars * 2^(max_vars-1) * (max_shift+1), B-atoms
    2^max_vars * max_shift; (2,2) gives 20 atoms, (3,3) gives 72.
    """
    vids = range(max_vars)
    subsets = [tuple(v for v in vids if mask >> v & 1) for mask in range(1 << max_vars)]
    out: list[SubLevel] = []
    for varset in subsets:
        for x in varset:
            out.extend(SubA(varset, x, s) for s in range(max_shift + 1))
        out.extend(SubB(varset, s) for s in range(1, max_shift + 1))
    return out


def exhaustive_sublevel_suite(max_vars: int, max_shift: int, bound: int) -> DiffReport:
    """Check leq_sub against exhaustive grid evaluation on every ordered pair."""
    atoms = enumerate_sublevels(max_vars, max_shift)
    names = harness_names(max_vars)
    points = list(valuations_on(tuple(range(max_vars)), bound))
    vectors = [tuple(eval_sub(u, sigma) for sigma in points) for u in atoms]
    failures: list[Failure] = []
    pairs = 0
    for i, u in enumerate(atoms):
        for j, v in enumerate(atoms):
            pairs += 1
            semantic = all(a <= b for a, b in zip(vectors[i], vectors[j]))
            if semantic != leq_sub(u, v):
                failures.append(Failure(print_atom(u, names), print_atom(v, names),
                                        "compare", None))
    return DiffReport(pairs, tuple(failures))


def antichains(atoms: list, most: int) -> list[tuple]:
    """Every set of at most `most` of `atoms` that leq_sub finds pairwise
    incomparable, each in the order of `atoms`."""
    found = []

    def extend(chain: tuple, start: int) -> None:
        found.append(chain)
        if len(chain) < most:
            for i in range(start, len(atoms)):
                u = atoms[i]
                if not any(leq_sub(u, v) or leq_sub(v, u) for v in chain):
                    extend((*chain, u), i + 1)
    extend((), 0)
    return found


def maximal(atoms) -> Repr:
    """The representation of the max of some atoms: the ones no other atom
    dominates, sorted."""
    atoms = set(atoms)
    return Repr(tuple(sorted(u for u in atoms
                             if not any(v != u and leq_sub(u, v) for v in atoms))))


def reference_imax(r1: Repr, r2: Repr) -> Repr:
    """imax(r1, r2) by its naive statement: r2, and every u of r1 under
    every v of r2, with the dominated atoms left out."""
    if not r1 or not r2:
        return r2
    return maximal([*r2, *(imax_sub(u, v) for u in r1 for v in r2)])


def wrong_merges(reprs: list[Repr]) -> Iterator[tuple]:
    """The cases where `succ_repr(r, 1 | 2)`, `max_repr` or `imax_repr` on
    `reprs` is not the one merge of all the atoms its naive statement names
    (`maximal`), as (operation, its arguments), the successors first.  The
    operations are read from their module at each call, so a patched
    binding is the one checked."""
    ops = importlib.import_module("levelcanon.normalize")
    for r in reprs:
        for n in (1, 2):
            if ops.succ_repr(r, n) != maximal([*(succ_sub(u, n) for u in r), SubB((), n)]):
                yield "succ", r, n
    for r1, r2 in product(reprs, repeat=2):
        if ops.max_repr(r1, r2) != maximal([*r1, *r2]):
            yield "max", r1, r2
        if ops.imax_repr(r1, r2) != reference_imax(r1, r2):
            yield "imax", r1, r2


# --- rewrite terms -------------------------------------------------------

def match_args(pats: tuple, kids: tuple, env: dict[str, RTerm]) -> bool:
    """Extend `env` so that each pattern of `pats` instantiates to the term at
    the same position of `kids`; False if some pair does not match.

    A repeated pattern variable only matches syntactically equal arguments.
    """
    # not a fold: a paired walk over pattern and term, up to the first mismatch
    for pat, kid in zip(pats, kids):
        stack = [(pat, kid)]
        while stack:
            p, t = stack.pop()
            if p[0] == PVAR_HEAD:
                name = p[1]
                bound = env.get(name)
                if bound is None:
                    env[name] = t
                elif bound != t:
                    return False
            elif p[0] != t[0] or len(p) != len(t):
                return False
            else:
                stack.extend(zip(p[1:], t[1:]))
    return True


def match(pattern: RTerm, term: RTerm) -> Optional[dict[str, RTerm]]:
    """Bindings sigma with pattern[sigma] = term, or None."""
    env: dict[str, RTerm] = {}
    return env if match_args((pattern,), (term,), env) else None


def subst_template(template: RTerm, env: dict[str, RTerm]) -> RTerm:
    return fold_term(template, env.__getitem__, lambda head, kids: (head, *kids))


def is_left_linear(rule: RewriteRule) -> bool:
    names: list[str] = []
    fold_term(rule.lhs, names.append, lambda head, kids: None)
    return len(names) == len(set(names))


# --- structural comparison -----------------------------------------------

def _offset(t: Level) -> tuple[Level, int]:
    """`t` as a level under a run of successors, and the run's length."""
    n = 0
    while type(t) is Succ:
        t, n = t.child, n + 1
    return t, n


def structural_geq(u: Level, v: Level) -> bool:
    """A sound, incomplete proof that u >= v at every valuation, by the rules
    of Lean 4's `Level.geq`, applied to the levels as written.  Each rule
    holds by a one-line argument, with no atoms:

    - equal levels have equal values;
    - every value is at least 0;
    - u >= max(v1, v2) when u >= v1 and u >= v2;
    - max(u1, u2) >= v when u1 >= v or u2 >= v;
    - u >= imax(v1, v2) when u >= v1 and u >= v2, since imax <= max;
    - imax(u1, u2) >= v when u2 >= v, since imax(u1, u2) >= u2;
    - s(u) >= s(v) when u >= v;
    - s^k(w) >= s^j(w), and s^k(w) >= s^j(0), when k >= j.

    As in Lean, the first rule that applies decides, so a False proves
    nothing.
    """
    if u == v or type(v) is Zero:
        return True
    if type(v) is Max:
        return structural_geq(u, v.left) and structural_geq(u, v.right)
    if type(u) is Max:
        return structural_geq(u.left, v) or structural_geq(u.right, v)
    if type(v) is IMax:
        return structural_geq(u, v.left) and structural_geq(u, v.right)
    if type(u) is IMax:
        return structural_geq(u.right, v)
    if type(u) is Succ and type(v) is Succ:
        return structural_geq(u.child, v.child)
    (base_u, k), (base_v, j) = _offset(u), _offset(v)
    return (base_u == base_v or type(base_v) is Zero) and k >= j


# --- the parser ----------------------------------------------------------
# `parse_level` as it read before it shared leaves: `_LEXEME_RE` lexes the
# whole text, and every variable and numeral is a new node

def _error_at(text: str, index: int, message: str,
              expected: frozenset[str] = frozenset()) -> ParseError:
    """The error at the `index`-th lexeme, whose offset is found only now."""
    offset = next(islice(_LEXEME_RE.finditer(text), index, None)).start(1)
    return _error(text, offset, message, expected)


def _unexpected(text: str, lexemes: list[str], index: int,
                expected: frozenset[str]) -> ParseError:
    return _error_at(text, index, f"unexpected {lexemes[index] or 'end of input'}", expected)


def _numeral(text: str, lexemes: list[str], index: int) -> Level:
    digits = lexemes[index]
    # the length first: int() refuses text longer than the interpreter's limit
    significant = digits.lstrip("0") or "0"
    n = int(significant) if len(significant) <= len(str(MAX_NUMERAL)) else None
    if n is None or n > MAX_NUMERAL:
        # a numeral longer than the limit's text is named by its length
        shown = digits if len(digits) <= len(str(MAX_NUMERAL)) else f"of {len(digits)} digits"
        raise _error_at(text, index, f"numeral {shown} too large (limit {MAX_NUMERAL})")
    t: Level = ZERO
    for _ in range(n):
        t = Succ(t)
    return t


def reference_parse_level(text: str, names: NameTable) -> Level:
    """Parse a level expression, interning new variables into `names`.

    A character outside the grammar is reported first, wherever it stands.
    The lexemes are then read left to right with an explicit stack of the
    open `s`, `max` and `imax`: each entry is the constructor and, once its
    comma is read, the left side.
    """
    bad = _BAD_RE.search(text)
    if bad:
        raise _error(text, bad.start(), f"unexpected character {bad[0]!r}")
    lexemes = _LEXEME_RE.findall(text)
    stack: list[list] = []
    i = 0
    while True:
        # a level starts at lexeme i
        lex = lexemes[i]
        if lex in KEYWORDS:
            if len(stack) == MAX_NESTING:
                raise _error_at(text, i, f"nesting deeper than {MAX_NESTING}")
            if lexemes[i + 1] != "(":
                raise _unexpected(text, lexemes, i + 1, frozenset({"("}))
            stack.append([_BINARY.get(lex, Succ), None])
            i += 2
            continue
        if lex in "(),":  # punctuation, or "" at the end of input
            raise _unexpected(text, lexemes, i, _LEVEL_START)
        # digits sort before letters and "_"
        t = _numeral(text, lexemes, i) if lex[0] <= "9" else Var(names.intern(lex))
        i += 1
        # close every node the level completes, up to the next right side
        while stack:
            make, left = stack[-1]
            want = ")" if make is Succ or left is not None else ","
            if lexemes[i] != want:
                raise _unexpected(text, lexemes, i, frozenset({want}))
            i += 1
            if want == ",":
                stack[-1][1] = t
                break
            t = Succ(t) if make is Succ else make(left, t)
            stack.pop()
        else:
            if lexemes[i]:
                raise _unexpected(text, lexemes, i, frozenset({"EOF"}))
            return t
