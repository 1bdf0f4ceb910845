"""The rule reader against `oracles.reference_read_rules`, which lexes with a
regular expression and reads the text once per call: on `RULE_TEXT` under
both flags, and on seeded malformed variants of it, both give the same
signature and rules, or raise the same exception type with the same message.

The reference reader does not check declarations.  Where a declaration's
name or a sort is not one word, or its name is declared already, and the
reference reads every line above it, the reader raises `ValueError` naming
that line instead (`expected_outcome`)."""

from __future__ import annotations

import random
import re

import pytest
from oracles import _reference_logical_lines, reference_read_rules

from levelcanon.rewrite import rules
from levelcanon.rewrite.rules import read_rules

SORTS = ("bool", "nat", "natset", "sublevel", "sublevelset", "level")
KINDS = ("drop", "duplicate", "replace", "parenthesis", "sort")
VARIANTS_PER_KIND = 40


def _edit(text: str, start: int, end: int, new: str) -> str:
    return text[:start] + new + text[end:]


def malformed_variant(kind: str, rng: random.Random) -> str:
    """`RULE_TEXT` with one seeded edit of `kind`: a token dropped,
    duplicated or replaced by another of the text's tokens, a parenthesis
    dropped, or one sort of a declaration renamed."""
    text = rules.RULE_TEXT
    if kind == "sort":
        spots = [(line.start() + m.start(), line.start() + m.end())
                 for line in re.finditer(r"(?m)^\w+ : .*$", text)
                 for m in re.finditer(r"\w+", line.group()) if m.group() in SORTS]
        start, end = rng.choice(spots)
        return _edit(text, start, end, rng.choice([s for s in SORTS + ("sort",)
                                                   if s != text[start:end]]))
    tokens = [m.span() for m in re.finditer(r"[()]|[^\s()]+", text)
              if kind != "parenthesis" or m.group() in "()"]
    start, end = rng.choice(tokens)
    if kind in ("drop", "parenthesis"):
        return _edit(text, start, end, "")
    if kind == "duplicate":
        return _edit(text, start, end, text[start:end] + " " + text[start:end])
    other = text[slice(*rng.choice(tokens))]
    return _edit(text, start, end, other)


def outcome(read, text: str, paper_literal: bool):
    """`read(text, paper_literal)` as its signature items in order and its
    rules, or the type and message of what it raised."""
    try:
        signature, rule_list = read(text, paper_literal)
    except Exception as error:  # any type: a reader that raises another differs
        return type(error).__name__, str(error)
    return list(signature.items()), rule_list


def expected_outcome(text: str, paper_literal: bool):
    """The reader's outcome on `text` as the reference reader and the
    declaration check give it: the reference's outcome, unless a logical
    line declares a name or sort of more than one word, or a name declared
    above it, and the reference reads the lines above that one; then the
    reader's `ValueError` for that line."""
    lines = _reference_logical_lines(text, paper_literal)
    declared = set()
    for i, line in enumerate(lines):
        name, colon, sorts = line.partition(" : ")
        if " --> " in line or not colon:
            continue
        if name not in declared and all(w.isidentifier() for w in (name, *sorts.split(" -> "))):
            declared.add(name)
            continue
        above = outcome(reference_read_rules, "\n".join(lines[:i]), paper_literal)
        return above if isinstance(above[0], str) else (
            "ValueError", f"not a new symbol and its sorts, one word each: {line!r}")
    return outcome(reference_read_rules, text, paper_literal)


def _brief(found) -> str:
    return f"{found[0]}: {found[1]}" if isinstance(found[0], str) else f"{len(found[1])} rules"


def cases() -> list[tuple[str, bool, str]]:
    """(kind, flag, text): `RULE_TEXT` under both flags, then each seeded
    variant under one flag, alternating."""
    rng = random.Random(43)
    return [("text", False, rules.RULE_TEXT), ("text", True, rules.RULE_TEXT)] + [
        (kind, i % 2 == 1, malformed_variant(kind, rng))
        for kind in KINDS for i in range(VARIANTS_PER_KIND)]


def reader_difference_check():
    """The reader against `expected_outcome` on each of `cases()`: the first
    (kind, flag, expected outcome, reader's outcome) that differ, briefly."""
    for kind, paper_literal, text in cases():
        want = expected_outcome(text, paper_literal)
        got = outcome(read_rules, text, paper_literal)
        if got != want:
            return kind, paper_literal, _brief(want), _brief(got)
    return None


def test_the_reader_agrees_with_the_reference_reader():
    assert reader_difference_check() is None


def test_the_variants_reach_every_kind_of_outcome():
    # so the agreement above covers reading, sort errors and the rest
    found = {}
    for _, paper_literal, text in cases()[2:]:
        got = outcome(read_rules, text, paper_literal)
        key = got[0] if isinstance(got[0], str) else "read"
        found[key] = found.get(key, 0) + 1
    assert found.keys() == {"read", "ValueError", "SortError"}, found
    assert min(found.values()) >= 20, found


@pytest.mark.parametrize("rule, error", [
    # the left side's sort error (a nat where `not` takes a bool) waits for
    # a syntax error of the right side, and for `RewriteRule`'s errors
    ("not zeroN --> not (true", ("ValueError", "unbalanced '(' in rule 'not zeroN --> not (true'")),
    ("not zeroN --> y", ("ValueError", "right-hand side introduces variables ['y']")),
    ("not zeroN --> true", ("SortError", "zeroN has sort nat, expected bool")),
    # a group that opens its parent's takes the parent's arguments: `(and
    # true) true` is `and true true`, checked once it is complete
    ("not ((and true) true) --> true", None),
    ("not ((not) true) --> true", None),
])
def test_errors_come_in_the_reference_order(rule, error):
    text = "true : bool\nzeroN : nat\nnot : bool -> bool\nand : bool -> bool -> bool\n" + rule
    want = outcome(reference_read_rules, text, False)
    assert outcome(read_rules, text, False) == want
    assert (want if isinstance(want[0], str) else None) == error
