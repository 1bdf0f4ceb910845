"""Concrete syntax for levels.

Grammar::

    level := "0" | NAT | "s" "(" level ")"
           | "max" "(" level "," level ")" | "imax" "(" level "," level ")"
           | IDENT

NAT literals desugar to successor towers of at most ``MAX_NUMERAL``; IDENT is
``[A-Za-z_][A-Za-z0-9_]*`` excluding the keywords ``s``, ``max`` and ``imax``.
Whitespace is free.  At most ``MAX_NESTING`` of ``s``, ``max`` and ``imax`` may
be open along one path.
"""

from __future__ import annotations

import re

from .levels import IMax, Level, Max, Succ, Var, ZERO, VarId

KEYWORDS = ("s", "max", "imax")

# towers above this would be pathological to build as linked nodes
MAX_NUMERAL = 10_000

# most s/max/imax open along one path: the parser recurses once per open
# level, and stays under the default recursion limit here
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

    def id_of(self, name: str) -> VarId:
        return self._ids[name]

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
        self.line = line
        self.col = col
        self.expected = expected


# one token per match: whitespace, then a numeral, a keyword or punctuation (its
# own kind), a name, the end of input or, in error, any other character
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<NAT>[0-9]+)"
    rf"|(?P<FIXED>(?:{'|'.join(KEYWORDS)})(?![A-Za-z0-9_])|[(),])"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<EOF>\Z)|(?P<BAD>.))", re.S)

_Token = tuple[str, str, int]  # kind, text, offset


def _error(text: str, offset: int, message: str,
           expected: frozenset[str] = frozenset()) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1,
                      expected)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind, lexeme, pos = m.lastgroup, m[m.lastgroup], m.end()
        if kind == "BAD":
            raise _error(text, pos - 1, f"unexpected character {lexeme!r}")
        tokens.append((lexeme if kind == "FIXED" else kind, lexeme, pos - len(lexeme)))
        if kind == "EOF":
            return tokens


class _Parser:
    def __init__(self, text: str, names: NameTable):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names

    def expect(self, kind: str) -> None:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.fail(tok, frozenset({kind}))
        self.pos += 1

    def fail(self, tok: _Token, expected: frozenset[str]):
        shown = tok[1] if tok[0] != "EOF" else "end of input"
        raise _error(self.text, tok[2], f"unexpected {shown}", expected)

    def level(self, depth: int = 0) -> Level:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "NAT":
            self.pos += 1
            # the length first: int() refuses text longer than the interpreter's limit
            digits = tok[1].lstrip("0") or "0"
            n = int(digits) if len(digits) <= len(str(MAX_NUMERAL)) else None
            if n is None or n > MAX_NUMERAL:
                # a numeral longer than the limit's text is named by its length
                shown = (tok[1] if len(tok[1]) <= len(str(MAX_NUMERAL))
                         else f"of {len(tok[1])} digits")
                raise _error(self.text, tok[2], f"numeral {shown} too large (limit {MAX_NUMERAL})")
            t: Level = ZERO
            for _ in range(n):
                t = Succ(t)
            return t
        if kind in KEYWORDS:
            if depth == MAX_NESTING:
                raise _error(self.text, tok[2], f"nesting deeper than {MAX_NESTING}")
            self.pos += 1
            self.expect("(")
            left = self.level(depth + 1)
            if kind == "s":
                self.expect(")")
                return Succ(left)
            self.expect(",")
            right = self.level(depth + 1)
            self.expect(")")
            return Max(left, right) if kind == "max" else IMax(left, right)
        if kind == "IDENT":
            self.pos += 1
            return Var(self.names.intern(tok[1]))
        self.fail(tok, frozenset({"NAT", "IDENT", "s", "max", "imax"}))

    def parse(self) -> Level:
        t = self.level()
        self.expect("EOF")
        return t


def parse_level(text: str, names: NameTable) -> Level:
    """Parse a level expression, interning new variables into `names`."""
    return _Parser(text, names).parse()
