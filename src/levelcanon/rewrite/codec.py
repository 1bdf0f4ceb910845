"""Translation between levels/representations and engine terms.

Variable ids become unary numerals (the deep encoding), representations
become ``maxS`` of a cons-list of atoms sorted by the storage order.  The
encoding emits constructor normal forms directly, so a finished reduction
can be compared against ``encode_repr(normalize(t))`` syntactically.
"""

from __future__ import annotations

from ..levels import Level, fold_level
from ..normalize import Repr, normalize
from ..sublevels import SubA, SubB, SubLevel, VarSet
from .engine import ReductionReport, reduce
from .rules import default_rules
from .terms import RTerm, app

_ZERO_N = app("zeroN")
_ZERO_L = app("zeroL")
_NIL_N = app("nilN")
_NIL_SL = app("nilSL")


class DecodeError(ValueError):
    """The term is not the image of a valid representation."""


def encode_nat(n: int) -> RTerm:
    if n < 0:
        raise ValueError("negative natural")
    t = _ZERO_N
    for _ in range(n):
        t = app("succN", t)
    return t


# the decoders are loops, not folds: each walks one spine, up to a node off the image
def decode_nat(t: RTerm) -> int:
    n = 0
    while t[0] == "succN":
        n += 1
        t = t[1]
    if t != _ZERO_N:
        raise DecodeError(f"not a numeral: {t!r}")
    return n


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


def _decode_varset(t: RTerm) -> VarSet:
    out = []
    while t[0] == "consN":
        out.append(decode_nat(t[1]))
        t = t[2]
    if t != _NIL_N:
        raise DecodeError(f"not a variable-set term: {t!r}")
    return tuple(out)


def _decode_sub(t: RTerm) -> SubLevel:
    try:
        if t[0] == "A":
            return SubA(_decode_varset(t[1]), decode_nat(t[2]), decode_nat(t[3]))
        if t[0] == "B":
            return SubB(_decode_varset(t[1]), decode_nat(t[2]))
    except ValueError as exc:
        raise DecodeError(str(exc)) from exc
    raise DecodeError(f"not a sublevel atom: {t!r}")


def decode_repr(term: RTerm) -> Repr:
    """Inverse of encode_repr on its image; DecodeError off the image."""
    if term[0] != "maxS":
        raise DecodeError(f"not a maxS image: {term!r}")
    atoms = []
    t = term[1]
    while t[0] == "consSL":
        atoms.append(_decode_sub(t[1]))
        t = t[2]
    if t != _NIL_SL:
        raise DecodeError(f"not a sublevel-set term: {t!r}")
    try:
        return Repr(tuple(atoms))
    except ValueError as exc:
        raise DecodeError(str(exc)) from exc


def soundness_report(t: Level, budget: int = 1_000_000) -> tuple[bool, ReductionReport]:
    """Whether the rewrite path reaches exactly the normalizer's answer,
    with the underlying reduction report (step counts)."""
    report = reduce(encode_level(t), default_rules(), budget=budget)
    ok = not report.budget_exhausted and report.result == encode_repr(normalize(t))
    return ok, report


def confluence_runs(t: Level, strategies: int, seed: int, budget: int) -> list[ReductionReport]:
    """One reduction per sampled strategy: innermost, outermost, then seeded
    random-position runs.  Step counts stay available for reporting."""
    if strategies < 2:
        raise ValueError("need at least two strategies to compare")
    rules = default_rules()
    term = encode_level(t)
    runs = [reduce(term, rules, "innermost", budget),
            reduce(term, rules, "outermost", budget)]
    for i in range(strategies - 2):
        runs.append(reduce(term, rules, "random", budget, seed=seed + i))
    return runs


def sample_confluence(t: Level, strategies: int = 5, seed: int = 0,
                      budget: int = 1_000_000) -> bool:
    """True iff all sampled strategies reach the same normal form in budget."""
    runs = confluence_runs(t, strategies, seed, budget)
    if any(r.budget_exhausted for r in runs):
        return False
    first = runs[0].result
    return all(r.result == first for r in runs[1:])
