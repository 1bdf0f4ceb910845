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
from dataclasses import dataclass

from .levels import IMax, Level, Max, Succ, Var, ZERO, VarId

KEYWORDS = ("s", "max", "imax")

# towers above this would be pathological to build as linked nodes
MAX_NUMERAL = 10_000

# most s/max/imax open along one path: the parser and the layers after it
# recurse once per level, and stay under the default recursion limit here
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


@dataclass(frozen=True)
class _Token:
    kind: str  # NAT | IDENT | KEYWORD | punctuation | EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[(),]")
_SPACE_RE = re.compile(r"[ \t\r\n]+")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        ws = _SPACE_RE.match(text, pos)
        if ws:
            chunk = ws.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = ws.start() + chunk.rfind("\n") + 1
            pos = ws.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group()
        if lexeme[0].isdigit():
            kind = "NAT"
        elif lexeme in KEYWORDS:
            kind = lexeme
        elif lexeme[0] in "(),":
            kind = lexeme
        else:
            kind = "IDENT"
        tokens.append(_Token(kind, lexeme, line, col))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], names: NameTable):
        self.tokens = tokens
        self.pos = 0
        self.names = names

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expect(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.fail(tok, frozenset({kind}))
        self.pos += 1
        return tok

    def fail(self, tok: _Token, expected: frozenset[str]):
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(f"unexpected {shown}", tok.line, tok.col, expected)

    def level(self, depth: int = 0) -> Level:
        tok = self.peek()
        if tok.kind == "NAT":
            self.pos += 1
            n = int(tok.text)
            if n > MAX_NUMERAL:
                raise ParseError(f"numeral {tok.text} too large (limit {MAX_NUMERAL})",
                                 tok.line, tok.col)
            t: Level = ZERO
            for _ in range(n):
                t = Succ(t)
            return t
        if tok.kind in ("s", "max", "imax"):
            if depth == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", tok.line, tok.col)
            self.pos += 1
            self.expect("(")
            left = self.level(depth + 1)
            if tok.kind == "s":
                self.expect(")")
                return Succ(left)
            self.expect(",")
            right = self.level(depth + 1)
            self.expect(")")
            return Max(left, right) if tok.kind == "max" else IMax(left, right)
        if tok.kind == "IDENT":
            self.pos += 1
            return Var(self.names.intern(tok.text))
        self.fail(tok, frozenset({"NAT", "IDENT", "s", "max", "imax"}))

    def parse(self) -> Level:
        t = self.level()
        self.expect("EOF")
        return t


def parse_level(text: str, names: NameTable) -> Level:
    """Parse a level expression, interning new variables into `names`."""
    return _Parser(_tokenize(text), names).parse()
