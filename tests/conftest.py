from __future__ import annotations

import hypothesis.strategies as st

from levelcanon import IMax, Max, Succ, Var, ZERO


def level_strategy(num_vars: int = 3, max_leaves: int = 10):
    leaves = st.just(ZERO) | st.integers(0, num_vars - 1).map(Var)
    return st.recursive(
        leaves,
        lambda ch: st.builds(Succ, ch) | st.builds(Max, ch, ch) | st.builds(IMax, ch, ch),
        max_leaves=max_leaves,
    )


# one step of a deep chain: the level so far, wrapped with a leaf
_WRAPS = (
    lambda t, leaf: Succ(t),
    lambda t, leaf: Max(t, leaf),
    lambda t, leaf: Max(leaf, t),
    lambda t, leaf: IMax(t, leaf),
    lambda t, leaf: IMax(leaf, t),
)


def _chain(base, steps, depth):
    t = base
    for i in range(depth):
        wrap, leaf = steps[i % len(steps)]
        t = wrap(t, leaf)
    return t


def deep_level_strategy(num_vars: int = 3, min_depth: int = 1_200, max_depth: int = 3_000):
    """Chains deeper than the default recursion limit, built iteratively: a
    short list of (constructor, leaf) steps, repeated up to a drawn depth.

    Hypothesis draws the pattern, not every step, because a list of
    thousands of draws is too large an input for it to generate or shrink.
    """
    leaves = st.just(ZERO) | st.integers(0, num_vars - 1).map(Var)
    steps = st.lists(st.tuples(st.sampled_from(_WRAPS), leaves), min_size=1, max_size=12)
    return st.builds(_chain, leaves, steps, st.integers(min_depth, max_depth))
