"""Translation of levels and representations into engine terms.

Variable ids become unary numerals (the deep encoding), representations
become ``maxS`` of a cons-list of atoms sorted by the storage order.  The
encoding emits constructor normal forms directly, so a finished reduction
can be compared against ``encode_repr(normalize(t))`` syntactically.
"""

from __future__ import annotations

from .. import _late_names
from ..levels import Level, fold_level
from ..normalize import Repr, normalize
from ..sublevels import SubA, SubLevel, VarSet
from .rules import default_rules
from .terms import RTerm, app

# the engine loads on the first reduction, not with the codec; the reductions
# call `reduce` through `_codec`, this module, so a binding patched on it is
# the one that runs
_codec = _late_names(globals(), {"reduce": ".engine"})

_ZERO_N = app("zeroN")
_ZERO_L = app("zeroL")
_NIL_N = app("nilN")
_NIL_SL = app("nilSL")


def encode_nat(n: int) -> RTerm:
    if n < 0:
        raise ValueError("negative natural")
    t = _ZERO_N
    for _ in range(n):
        t = app("succN", t)
    return t


def encode_varset(varset: VarSet) -> RTerm:
    t = _NIL_N
    for vid in reversed(varset):
        t = app("consN", encode_nat(vid), t)
    return t


def encode_sub(u: SubLevel) -> RTerm:
    if isinstance(u, SubA):
        return app("A", encode_varset(u.varset), encode_nat(u.var), encode_nat(u.shift))
    return app("B", encode_varset(u.varset), encode_nat(u.shift))


def encode_repr(r: Repr) -> RTerm:
    t = _NIL_SL
    for atom in reversed(r):
        t = app("consSL", encode_sub(atom), t)
    return app("maxS", t)


def encode_level(t: Level) -> RTerm:
    """The term of `t`: ``zeroL``, ``varL`` of a numeral, ``succL``,
    ``maxL`` and ``ruleL`` (imax), built by `fold_level`, so a level of any
    depth, a large numeral included, encodes without recursion."""
    return fold_level(t, _ZERO_L, lambda vid: app("varL", encode_nat(vid)), _succ_l_times,
                      lambda a, b: app("maxL", a, b), lambda a, b: app("ruleL", a, b))


def _succ_l_times(term: RTerm, n: int) -> RTerm:
    for _ in range(n):
        term = app("succL", term)
    return term


def soundness_report(t: Level) -> tuple[bool, ReductionReport, Repr]:
    """Whether the rewrite path reaches exactly the normalizer's answer
    within 10**6 steps, with the underlying reduction report (step counts)
    and that answer, `normalize(t)`."""
    report = _codec.reduce(encode_level(t), default_rules())
    r = normalize(t)
    ok = not report.budget_exhausted and report.result == encode_repr(r)
    return ok, report, r


def confluence_runs(t: Level, strategies: int, seed: int, budget: int) -> list[ReductionReport]:
    """One reduction per sampled strategy: innermost, outermost, then seeded
    random-position runs.  Step counts stay available for reporting."""
    if strategies < 2:
        raise ValueError("need at least two strategies to compare")
    rules = default_rules()
    term = encode_level(t)
    runs = [_codec.reduce(term, rules, "innermost", budget),
            _codec.reduce(term, rules, "outermost", budget)]
    for i in range(strategies - 2):
        runs.append(_codec.reduce(term, rules, "random", budget, seed=seed + i))
    return runs
