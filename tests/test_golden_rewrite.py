"""Golden positional reductions: the sha256 of every report's result, step
count and budget flag, with its full trace, for the strategies that walk the
term by position (outermost, random, and innermost with a trace), so that a
change to how the positional loop finds and applies redexes cannot move a
step of any reduction order.

Each hash covers a prefix of the `GenConfig(seed=808, max_size=12)` stream
at budgets 7 and 10**6; random runs draw with the level's index as seed.
The hashes were taken while the loop still kept its redex data in a table
keyed by node id.
"""

from __future__ import annotations

import hashlib

import pytest

from levelcanon.harness import GenConfig, gen_level
from levelcanon.rewrite import builtin_ruleset, encode_level, reduce

LEVELS = 50
GOLDEN = [
    (False, "outermost",
     "898e34d3f5ac6a53ada02655c9cd9a2fba73b37b8562e7ad436309b9bc647cfc"),
    (False, "random",
     "5af4203b029aa53d181531fc6efdcdaa9b353332a54f85a0ec07f878880bc3ff"),
    (False, "innermost",
     "6f23714150f094fcf5755f8d7d0735d2739286d6939a0f3cc8432bd8b7c4474e"),
    (True, "outermost",
     "145654f84309950eabd09bda6fe8423c9d135b8d6b11c6abd9b0949e76e6342e"),
    (True, "random",
     "dd945eabc29e39ecab44dabd2a5341bd7b175317fc9c781867f9a61264a90d4d"),
    (True, "innermost",
     "6821864cb2e82cc52a83f1e921e3660809bd71888b2d19ad912a4537844e0082"),
]


def _digest(paper_literal: bool, strategy: str) -> str:
    rules = builtin_ruleset(paper_literal=paper_literal)
    cfg = GenConfig(seed=808, max_size=12)
    h = hashlib.sha256()
    for i in range(LEVELS):
        term = encode_level(gen_level(cfg, i))
        for budget in (7, 10**6):
            trace = []
            report = reduce(term, rules, strategy, budget, seed=i,
                            trace=lambda step, pos, rule: trace.append((step, pos, rule.lhs, rule.rhs)))
            h.update(repr((report.result, report.steps, report.budget_exhausted, trace)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("paper_literal, strategy, digest", GOLDEN,
                         ids=[f"{'literal' if p else 'default'}-{s}" for p, s, _ in GOLDEN])
def test_positional_reductions_match_their_golden_hash(paper_literal, strategy, digest):
    assert _digest(paper_literal, strategy) == digest
