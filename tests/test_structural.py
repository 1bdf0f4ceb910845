"""Evidence for a true `<=` that needs no atom theory.

`oracles.structural_geq` proves u >= v by the structural rules a kernel uses
(Lean 4's `Level.geq`), each sound by a one-line argument, with no
normalization.  The grid oracle can refute a "true" but never confirm one
whose counterexamples lie past its bound; a structural proof confirms it.
The rules are incomplete, so the stream's count of proved pairs is pinned:
a change to either side shows.  So is the count after `oracles.prenormalize`,
the atom-free rewriting that Lean runs before its comparison.
"""

from __future__ import annotations

from oracles import prenormalize, structural_geq

from levelcanon import (
    IMax, Max, Succ, default_grid_bound, find_counterexample_leq, leq_repr, level_size,
)
from levelcanon import harness
from levelcanon.normalize import normalize


def stream(count: int) -> list[tuple]:
    """For each of the first `count` levels t of the fuzz stream (707/50) and
    its fuzz partner t2: (t, t2), (t2, t), and five pairs lhs <= rhs that a
    law makes true."""
    cfg = harness.GenConfig(seed=707, max_size=50)
    pairs = []
    for index in range(count):
        t = harness.gen_level(cfg, index)
        t2 = harness._pair_for(level_size(t), harness._digest(t), 3)
        pairs += [(t, t2), (t2, t),
                  (t, Max(t2, t)),
                  (IMax(t2, t), Max(t2, t)),
                  (Max(t, t2), Max(t2, t)),
                  (Succ(IMax(t2, t)), Max(Succ(t), IMax(Succ(t2), t))),
                  (IMax(t, Max(t2, t)), Max(IMax(t, t2), IMax(t, t)))]
    return pairs


def test_prenormalization_keeps_the_representation():
    for pair in stream(2_000):
        for t in pair:
            assert normalize(prenormalize(t)) == normalize(t), t


def test_structural_proofs_are_sound_and_agree_with_the_normalizer():
    proved = true = partner_proved = partner_true = 0
    pre_proved = partner_pre_proved = lost = 0
    for k, (lhs, rhs) in enumerate(stream(2_000)):
        claimed = leq_repr(normalize(lhs), normalize(rhs))
        before = structural_geq(rhs, lhs)
        after = structural_geq(prenormalize(rhs), prenormalize(lhs))
        if before or after:
            # a structural proof with a grid witness is a prover bug
            assert find_counterexample_leq(lhs, rhs, default_grid_bound(lhs, rhs)) is None, \
                (lhs, rhs)
            assert claimed, (lhs, rhs)
        proved += before
        partner_proved += before and k % 7 < 2
        pre_proved += after
        partner_pre_proved += after and k % 7 < 2
        lost += before and not after
        true += claimed
        partner_true += claimed and k % 7 < 2
    # about three in five true pairs have a structural proof; of the random
    # partner pairs alone, two in three
    assert (proved, true) == (6_376, 11_159)
    assert (partner_proved, partner_true) == (770, 1_159)
    # after prenormalization 136 more pairs are proved and 51 fewer: a max
    # whose arguments were flattened can no longer cover both sides of an
    # imax with one argument
    assert (pre_proved, true) == (6_461, 11_159)
    assert (partner_pre_proved, partner_true) == (819, 1_159)
    assert lost == 51
