"""Golden decision outcomes: one sha256 over what the decision layer makes of
a seeded corpus, so that a change to how atoms are stored or compared cannot
change a representation, its printed text or JSON, a comparison verdict, or
a substitution.

The corpus is 1,000 generated levels from each of two generator streams, one
of large levels and one of small ones.  An outcome is `print_repr` and
`print_repr_json` of the level's representation, the `leq_repr` (both ways)
and `eq_repr` verdicts against the next level of the stream, and the printed
`subst_repr` of each generator variable at the values 0, 1 and 2.

The hash was taken by running this corpus through the normalizer whose atoms
were frozen dataclasses, before atoms became tagged tuples.
"""

from __future__ import annotations

import hashlib

from levelcanon.harness import GenConfig, gen_level, harness_names
from levelcanon.normalize import eq_repr, leq_repr, normalize, subst_repr
from levelcanon.printer import print_repr, print_repr_json

STREAMS = (GenConfig(seed=707, max_size=50), GenConfig(seed=808, max_size=12))
LEVELS_PER_STREAM = 1_000

GOLDEN = "ef8e9c58d5e1caa10bc215aae374201ac8771385cd43499638d5bc950a2fb14a"


def outcomes():
    for cfg in STREAMS:
        names = harness_names(cfg.num_vars)
        reprs = [normalize(gen_level(cfg, index)) for index in range(LEVELS_PER_STREAM + 1)]
        for r, other in zip(reprs, reprs[1:]):
            substs = [print_repr(subst_repr(r, y, n), names)
                      for y in range(cfg.num_vars) for n in range(3)]
            yield repr((print_repr(r, names), print_repr_json(r, names),
                        leq_repr(r, other), leq_repr(other, r), eq_repr(r, other), substs))


def test_decision_outcomes_match_their_golden_hash():
    digest = hashlib.sha256()
    for line in outcomes():
        digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == GOLDEN
