"""`parse_level` against the parser it replaced, input by input.

`oracles.reference_parse_level` lexes the whole text with `_LEXEME_RE` and
builds every node.  `parse_level` splits words with `str.split`, splits a
numeral glued to a name only when it reads it, and shares its leaves.  On
40,000 seeded texts the two must agree on the level's `level_repr`,
the names interned, and every error's message, line, column and expected
set.  `test_golden_parse.py` says only *that* an outcome changed; this test
names the input.

The texts are drawn from a token alphabet that reaches where the two lexers
differ: numerals glued to names (`2x`, `0_`, `9z9`), tokens joined with no
space between them, keywords without their `(`, numerals at and past the
limit, and line breaks and tabs.  One text in 20 starts from a name table
that already holds 62 names, so its variables take the ids on both sides of
the shared ones' bound (64).
"""

from __future__ import annotations

import copy
import pickle
import random
from functools import cache

from oracles import reference_parse_level, up

from levelcanon import Max, Succ, Var, ZERO
from levelcanon.parser import MAX_NUMERAL, NameTable, ParseError, parse_level
from levelcanon.printer import level_repr

LEAVES = ("0", "1", "2", "7", "15", "16", "00", "015", "0015", "9" * 40, "x", "y", "z9",
          "_", "_a", "x1", "2x", "0_", "9z9", "15y", "16_1")
# a tower of MAX_NUMERAL nodes takes milliseconds to build, so only one text
# in LIMIT_EVERY has one of these in place of one of its leaves
LIMITS = (str(MAX_NUMERAL), str(MAX_NUMERAL + 1), f"{MAX_NUMERAL + 1}x")
LIMIT_EVERY = 1_000
WORDS = (*LEAVES, "s", "max", "imax", "(", ")", ",", "@")
# the space before each token; "" glues it to the token before
SPACES = (" ", " ", " ", "", "", "\n", "\t", "  ", "\r\n")
PRESET = tuple(f"p{k}" for k in range(62))
TEXTS = 40_000


@cache
def texts() -> tuple[str, ...]:
    """The seeded texts: random levels' tokens, each with up to two edits
    (insert a token, drop one, or cut the rest), joined by random spaces."""
    draw = random.Random("parse").random
    pick = lambda seq: seq[int(draw() * len(seq))]

    def level(depth: int, out: list[str]) -> None:
        k = draw()
        if depth == 0 or k < 0.4:
            out.append(pick(LEAVES))
            return
        if k < 0.55:  # a head and one side: mostly s
            out += pick(("s", "s", "max", "imax")), "("
        else:  # a head and two sides: mostly max or imax
            out += pick(("max", "imax", "imax", "s")), "("
            level(depth - 1, out)
            out.append(",")
        level(depth - 1, out)
        out.append(")")

    found = []
    for index in range(TEXTS):
        out: list[str] = []
        level(1 + index % 5, out)
        if index % LIMIT_EVERY == 0:
            out[pick([k for k, token in enumerate(out) if token in LEAVES])] = pick(LIMITS)
        for _ in range(int(draw() * 3)):
            pos, kind = int(draw() * (len(out) + 1)), draw()
            if kind < 1 / 3:
                out.insert(pos, pick(WORDS))
            elif kind < 2 / 3:
                del out[pos:pos + 1]
            else:
                del out[pos:]
        found.append("".join(pick(SPACES) + token for token in out) + pick(SPACES))
    return tuple(found)


def outcome(parse, text: str, preset: bool) -> tuple:
    """What `parse` makes of `text`: the level's repr or the error's parts,
    and the names it interned."""
    names = NameTable()
    for name in PRESET if preset else ():
        names.intern(name)
    try:
        got = level_repr(parse(text, names))
    except ParseError as e:
        got = (e.message, e.line, e.col, sorted(e.expected), str(e))
    return got, [names.name_of(i) for i in range(len(names))]


def first_difference():
    """The first text on which `parse_level` and the reference disagree, with
    both outcomes (the reference's first); None when they never do."""
    for index, text in enumerate(texts()):
        preset = index % 20 == 0
        want, got = outcome(reference_parse_level, text, preset), outcome(parse_level, text, preset)
        if got != want:
            return text, want, got
    return None


def test_parse_level_agrees_with_the_reference_parser():
    assert first_difference() is None


def test_the_texts_reach_both_outcomes_and_every_word():
    parsed = sum(isinstance(outcome(parse_level, t, False)[0], str) for t in texts()[:5_000])
    assert 500 < parsed < 4_500
    joined = "".join(texts())
    assert all(word in joined for word in (*WORDS, *LIMITS))
    assert all(space in joined for space in ("\n", "\t", "2x ", "max x"))


# --- shared leaves ---------------------------------------------------------

def test_a_parse_shares_its_variables_and_small_numerals():
    t = parse_level("max(x, imax(x, 3))", NameTable())
    assert t.left is t.right.left
    assert t.right.right is parse_level("3", NameTable())
    assert parse_level("s(2)", NameTable()).child is parse_level("2", NameTable())
    assert parse_level("0", NameTable()) is ZERO
    assert parse_level("15", NameTable()) == up(ZERO, 15)


def test_ids_below_64_and_numerals_up_to_15_are_shared():
    names = NameTable()
    for k in range(63):
        names.intern(f"p{k}")
    assert parse_level("v63", names) is parse_level("v63", names) == Var(63)
    assert parse_level("v64", names) is not parse_level("v64", names)
    assert parse_level("v64", names) == Var(64)
    for text, n in (("16", 16), ("015", 15)):
        first, second = parse_level(text, NameTable()), parse_level(text, NameTable())
        assert first is not second and first == second == up(ZERO, n)
    assert parse_level("015", NameTable()) is not parse_level("15", NameTable())
    assert parse_level("00", NameTable()) is ZERO  # a tower of no successors


def test_a_level_with_shared_leaves_hashes_compares_and_round_trips():
    text = "max(imax(x, 3), max(s(x), max(3, y)))"
    t = parse_level(text, NameTable())
    fresh = reference_parse_level(text, NameTable())
    assert t.left.left is t.right.left.child and t.left.right is t.right.right.left
    assert t == fresh and hash(t) == hash(fresh)
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert copied == t and hash(copied) == hash(t)
        assert level_repr(copied) == level_repr(t)
    assert Max(t, t) == Max(fresh, fresh)
    assert type(t.right.left) is Succ
