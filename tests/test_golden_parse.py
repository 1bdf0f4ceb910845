"""Golden parse outcomes: one sha256 over what `parse_level` makes of a seeded
corpus, so that a change to how the parser reads text cannot change a level it
builds, the names it interns, or a byte of an error it reports.

The corpus is the printed text of generated levels, seeded single-character
edits of those texts, and the inputs at the parser's limits.  An outcome is
the level's `level_repr` and the interned names, or the error's message, line,
column and sorted expected set.

The hash was taken by running this corpus through the recursive-descent
parser that tokenized its input first, before the parser read a level in one
pass.
"""

from __future__ import annotations

import hashlib
import random

from levelcanon.harness import GenConfig, gen_level, harness_names
from levelcanon.parser import MAX_NESTING, MAX_NUMERAL, NameTable, ParseError, parse_level
from levelcanon.printer import level_repr, print_level

# what an edit inserts: characters outside the grammar, a form feed, a line
# break, the keywords, and a numeral one past the limit
INSERTS = ("@", "é", "\f", "\r\n", "s", "max", "imax", str(MAX_NUMERAL + 1),
           "(", ")", ",", " ", "x1", "0")

LIMITS = (
    "", "max",
    "s(" * (MAX_NESTING + 1) + "0" + ")" * (MAX_NESTING + 1),
    "s(" * MAX_NESTING + "0" + ")" * MAX_NESTING,
    "9" * 5_000,
    "\n\n  max(x,\r\n  y) )",
)

GOLDEN = "9f2ecb9522a94597fb30b5840c1256c078937e503ab045b733a5667d89f3f1ba"


def _edit(text: str, rng: random.Random) -> str:
    pos = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:pos] + rng.choice(INSERTS) + text[pos:]
    if kind == 1:
        return text[:pos] + text[pos + 1:]
    return text[:pos]


def corpus():
    for cfg in (GenConfig(seed=12, max_size=50, num_vars=4), GenConfig(seed=13, max_size=8)):
        names = harness_names(cfg.num_vars)
        for index in range(300):
            text = print_level(gen_level(cfg, index), names)
            yield text
            rng = random.Random(f"{cfg.seed}:{index}:edit")
            for _ in range(4):
                yield _edit(text, rng)
    yield from LIMITS


def outcome(text: str) -> str:
    names = NameTable()
    try:
        t = parse_level(text, names)
    except ParseError as e:
        return repr((str(e), e.line, e.col, sorted(e.expected)))
    return repr((level_repr(t), [names.name_of(i) for i in range(len(names))]))


def test_parse_outcomes_match_their_golden_hash():
    digest = hashlib.sha256()
    for text in corpus():
        digest.update(f"{text!r}\t{outcome(text)}\n".encode())
    assert digest.hexdigest() == GOLDEN
