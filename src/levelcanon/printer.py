"""Canonical text and JSON output for levels and representations."""

from __future__ import annotations

import json

from .levels import Level, fold_level
from .normalize import Repr
from .parser import NameTable
from .sublevels import SubA, SubLevel


def _join(rope) -> str:
    """The text of a rope: a string, or a tuple of ropes.

    The printing folds build ropes and join them once at the end: pasting
    strings at every node would copy them once per level.  One explicit stack
    flattens a rope of any depth.
    """
    parts = []
    stack = [rope]
    while stack:
        part = stack.pop()
        if type(part) is str:
            parts.append(part)
        else:
            stack += reversed(part)
    return "".join(parts)


def print_level(t: Level, names: NameTable) -> str:
    """Canonical text in the input grammar; parsing it back yields `t`."""
    return _join(fold_level(t, "0", names.name_of, lambda core, n: ("s(" * n, core, ")" * n),
                            lambda a, b: ("max(", a, ", ", b, ")"),
                            lambda a, b: ("imax(", a, ", ", b, ")")))


def level_repr(t: Level) -> str:
    """The constructor calls that build `t`, as `Max(left=Var(vid=0), right=Zero())`;
    `repr` of a level is this text."""
    return _join(fold_level(t, "Zero()", lambda vid: f"Var(vid={vid!r})",
                            lambda core, n: ("Succ(child=" * n, core, ")" * n),
                            lambda a, b: ("Max(left=", a, ", right=", b, ")"),
                            lambda a, b: ("IMax(left=", a, ", right=", b, ")")))


def print_atom(u: SubLevel, names: NameTable) -> str:
    """`A{set}(var)+shift` or `B{set}+shift`."""
    members = ",".join(names.name_of(v) for v in u.varset)
    if isinstance(u, SubA):
        return f"A{{{members}}}({names.name_of(u.var)})+{u.shift}"
    return f"B{{{members}}}+{u.shift}"


def print_repr(r: Repr, names: NameTable) -> str:
    """`max{atom, ...}` with atoms in storage order; `max{}` when empty."""
    return "max{" + ", ".join(print_atom(u, names) for u in r) + "}"


def print_repr_json(r: Repr, names: NameTable) -> str:
    atoms = []
    for u in r:
        entry: dict = {"kind": "A" if isinstance(u, SubA) else "B",
                       "set": [names.name_of(v) for v in u.varset]}
        if isinstance(u, SubA):
            entry["var"] = names.name_of(u.var)
        entry["shift"] = u.shift
        atoms.append(entry)
    return json.dumps({"atoms": atoms}, separators=(",", ":"))
