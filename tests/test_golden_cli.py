"""Golden CLI outputs: the sha256 of stdout and the exit code of commands
that print the rule text, so that a change to how the rules are written down
cannot change a byte of what `export` prints or of a rewrite trace.

The hashes were taken with `python -m levelcanon ARGS | sha256sum` while the
rules were still built by Python calls, before `rules.RULE_TEXT` held them.
"""

from __future__ import annotations

import hashlib

import pytest

from levelcanon.cli import run_cli

QUERY = "imax(x,s(y))"
GOLDEN = [
    (["export"], "b3fa65ad68128116f539e22bcd9ace06d9f9824b77329d48e21b5f68ab0ccac7"),
    (["export", "--paper-literal-rules"],
     "d4976a98a0dc9af89eec274e87abccb68909b82d697e38ed9e5b71983493803a"),
    (["export", QUERY], "d0853b38a234da7615affd19205fd0d02547b83f7df61f93c6356237b005d775"),
    (["export", QUERY, "--paper-literal-rules"],
     "c70743ea7e373c038c85d2ff2d8ce50c58cc5bcc38a8bca75e491cfec7ee5642"),
    (["rewrite", QUERY, "--trace", "--strategy", "innermost"],
     "567c2f2496d6c947523c88957b566bfb2317ff8ce46893fb684b4216e6f23be1"),
    (["rewrite", QUERY, "--trace", "--strategy", "innermost", "--paper-literal-rules"],
     "22a275ee6330f11f62eaeeb9747a58555180f7a78be42b9dd1074cad370a669c"),
    (["rewrite", QUERY, "--trace", "--strategy", "outermost"],
     "14dfc69637f94795bede0c67e011fe945c313dd01f89aa419b3f8805ee1b54e0"),
    (["rewrite", QUERY, "--trace", "--strategy", "outermost", "--paper-literal-rules"],
     "b18581ae4eb289b024eccd890a708ce5549d4878a897b8e1e69bbef954c03417"),
    (["rewrite", QUERY, "--trace", "--strategy", "random"],
     "0ce30d175a05ca9d6a9ae757d1821e45d9b788892efb4f9eb4e02aff8bb950c3"),
    (["rewrite", QUERY, "--trace", "--strategy", "random", "--paper-literal-rules"],
     "11677f1289aded1b8f5b84f53eaf41588b6757734cf76f300b4d3878aef407f7"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_matches_its_golden_hash(argv, digest, capsys):
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
