"""Concrete syntax for levels.

Grammar::

    level := "0" | NAT | "s" "(" level ")"
           | "max" "(" level "," level ")" | "imax" "(" level "," level ")"
           | IDENT

NAT literals desugar to successor towers of at most ``MAX_NUMERAL``; IDENT is
``[A-Za-z_][A-Za-z0-9_]*`` excluding the keywords ``s``, ``max`` and ``imax``.
Whitespace is free.  At most ``MAX_NESTING`` of ``s``, ``max`` and ``imax`` may
be open along one path.  Levels are immutable, so every parse returns the same
node for a variable of id below 64 and the same tower for a numeral 0-15.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice

from .levels import IMax, Level, Max, Succ, Var, ZERO, VarId

KEYWORDS = ("s", "max", "imax")

# towers above this would be pathological to build as linked nodes
MAX_NUMERAL = 10_000

# most s/max/imax open along one path: an input limit, as the numeral's is;
# the parser keeps its own stack and would take any depth
MAX_NESTING = 500


class NameTable:
    """Bijection between variable names and dense ids in first-appearance order."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> VarId:
        vid = self._ids.get(name)
        if vid is None:
            vid = len(self._names)
            self._ids[name] = vid
            self._names.append(name)
        return vid

    def name_of(self, vid: VarId) -> str:
        return self._names[vid]

    def __len__(self) -> int:
        return len(self._names)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        detail = f"{message} at line {line}, column {col}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected

    def __reduce__(self) -> tuple:
        return type(self), (self.message, self.line, self.col, self.expected)


# the first character no lexeme can hold
_BAD_RE = re.compile(r"[^ \t\r\n0-9A-Za-z_(),]")

# one lexeme per match, after whitespace: a numeral, a name or keyword,
# punctuation, or the empty end of input; the lexer of the error path
_LEXEME_RE = re.compile(r"[ \t\r\n]*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|[(),]|\Z)")

# what may start a level
_LEVEL_START = frozenset({"NAT", "IDENT", *KEYWORDS})

_BINARY = {"max": Max, "imax": IMax}

# the leaves every parse shares: one node per small variable id, and the
# numerals "0" to "15" as one successor tower
_VARS = tuple(map(Var, range(64)))
_NUMERALS = {str(n): t for n, t in
             enumerate(accumulate(range(15), lambda t, _: Succ(t), initial=ZERO))}


def _error(text: str, offset: int, message: str,
           expected: frozenset[str] = frozenset()) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1,
                      expected)


def _error_at(text: str, index: int, message: str,
              expected: frozenset[str] = frozenset()) -> ParseError:
    """The error at the `index`-th lexeme, which `_LEXEME_RE` finds only now;
    a `{}` in `message` stands for that lexeme."""
    lexeme = next(islice(_LEXEME_RE.finditer(text), index, None))
    return _error(text, lexeme.start(1), message.format(lexeme[1] or "end of input"),
                  expected)


def _unexpected(text: str, index: int, expected: frozenset[str]) -> ParseError:
    return _error_at(text, index, "unexpected {}", expected)


def _numeral(text: str, lexemes: list[str], index: int) -> Level:
    digits = lexemes[index]
    if not digits.isdigit():  # a name glued to the numeral ("2x") is a lexeme of its own
        name = digits.lstrip("0123456789")
        digits = digits[:-len(name)]
        lexemes[index:index + 1] = digits, name
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


def parse_level(text: str, names: NameTable) -> Level:
    """Parse a level expression, interning new variables into `names`.

    A character outside the grammar is reported first, wherever it stands.
    The words between whitespace and punctuation are then read left to right
    with an explicit stack of the open `s`, `max` and `imax`: each entry is
    the constructor and, once its comma is read, the left side.
    """
    bad = _BAD_RE.search(text)
    if bad:
        raise _error(text, bad.start(), f"unexpected character {bad[0]!r}")
    lexemes = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    lexemes.append("")
    stack: list[list] = []
    i = 0
    while True:
        # a level starts at lexeme i
        lex = lexemes[i]
        if lex in KEYWORDS:
            if len(stack) == MAX_NESTING:
                raise _error_at(text, i, f"nesting deeper than {MAX_NESTING}")
            if lexemes[i + 1] != "(":
                raise _unexpected(text, i + 1, frozenset({"("}))
            stack.append([_BINARY.get(lex, Succ), None])
            i += 2
            continue
        if lex in "(),":  # punctuation, or "" at the end of input
            raise _unexpected(text, i, _LEVEL_START)
        if lex[0] <= "9":  # digits sort before letters and "_"
            t = _NUMERALS.get(lex) or _numeral(text, lexemes, i)
        else:
            t = _VARS[vid] if (vid := names.intern(lex)) < len(_VARS) else Var(vid)
        i += 1
        # close every node the level completes, up to the next right side
        while stack:
            make, left = stack[-1]
            want = ")" if make is Succ or left is not None else ","
            if lexemes[i] != want:
                raise _unexpected(text, i, frozenset({want}))
            i += 1
            if want == ",":
                stack[-1][1] = t
                break
            t = Succ(t) if make is Succ else make(left, t)
            stack.pop()
        else:
            if lexemes[i]:
                raise _unexpected(text, i, frozenset({"EOF"}))
            return t
