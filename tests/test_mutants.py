"""A standing catalogue of mutants: every check keeps its teeth.

Each row is a one-line change to a library function, installed with
`monkeypatch` at the name its caller binds, and the library-level check that
must kill it, with the first witness that check names.  A row that stops
being killed means a check lost what it once caught; a changed witness means
the check or the program changed, and both deserve a look.

Equivalent mutants are listed with the reason they cannot be told apart from
the program, and are asserted to survive: if one is killed, the code changed
meaning (Budd & Angluin, Acta Informatica 1982).

Add a row when a change shows that a new check has teeth.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest
from conftest import GEN_STREAM_SHA256, gen_stream_sha256, oracle_sweep

from levelcanon import IMax, Max, Succ, Var, ZERO, levels
from levelcanon.harness import GenConfig, run_fuzz
from levelcanon.normalize import Repr
from levelcanon.sublevels import leq_sub, succ_sub


# --- checks: each returns None when the program passes it ---------------

def fuzz_check():
    """`run_fuzz(GenConfig(seed=0), 200)`: (failures, the first one)."""
    report = run_fuzz(GenConfig(seed=0), 200)
    return None if report.ok else (len(report.failures), report.failures[0].to_json())


def stream_check():
    """`gen_level`'s stream hash against its pin: the hash read instead."""
    got = gen_stream_sha256()
    return None if got == GEN_STREAM_SHA256 else got[:16]


def oracle_check():
    """The grid oracle against the first `valuations_on` witness, over bounds
    0..10 and 0..5 variables: the first disagreement."""
    return oracle_sweep()[2]


# --- mutants -------------------------------------------------------------

def leq_sub_b_under_a_without_plus_one(u, v):
    if u[0] and not v[0]:
        return u[2] <= v[3] and v[4] <= u[3]
    return leq_sub(u, v)


def leq_sub_b_under_b_without_the_subset_test(u, v):
    if u[0] and v[0]:
        return u[2] <= v[2]
    return leq_sub(u, v)


def leq_sub_a_under_a_ignoring_the_variable(u, v):
    if not u[0] and not v[0]:
        return u[3] <= v[3] and v[4] <= u[4]
    return leq_sub(u, v)


def succ_repr_without_the_floor(r, n):
    return Repr(tuple(succ_sub(u, n) for u in r)) if n else r


def below_by_remainder(rng, n):
    return rng.getrandbits(n.bit_length()) % n


def below_rejecting_above_n_less_one(rng, n):
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r > n - 1:
        r = rng.getrandbits(k)
    return r


def layout_keyed_without_width():
    """`levels._layout` with a cache that keys a layout by its grid's side
    and variable count alone, keeping the lane width first asked for."""
    table = {}
    build = levels._layout.__wrapped__
    return lambda side, width, count: table.setdefault((side, count),
                                                       build(side, width, count))


class Mutant(NamedTuple):
    name: str
    target: str  # the binding the mutant replaces
    make: Callable[[], Callable]  # a fresh mutant
    check: Callable[[], object]
    witness: object  # what the check names first; None: it survives


KILLED = [
    Mutant("B <= A without + 1", "levelcanon.normalize.leq_sub",
           lambda: leq_sub_b_under_a_without_plus_one, fuzz_check,
           (8, {"level": "imax(max(x2, s(x2)), max(x2, imax(x0, x1)))", "other": None,
                "phase": "rewrite", "witness": None})),
    Mutant("B <= B without the subset test", "levelcanon.normalize.leq_sub",
           lambda: leq_sub_b_under_b_without_the_subset_test, fuzz_check,
           (5, {"level": "s(s(max(s(x0), max(imax(0, imax(s(s(x2)), x1)), "
                         "max(max(x2, x2), imax(x2, x2))))))",
                "other": None, "phase": "eval", "witness": {"x0": 0, "x1": 0, "x2": 0}})),
    Mutant("A <= A ignoring the variable", "levelcanon.normalize.leq_sub",
           lambda: leq_sub_a_under_a_ignoring_the_variable, fuzz_check,
           (35, {"level": "max(imax(max(x2, x1), x1), x0)", "other": None, "phase": "eval",
                 "witness": {"x0": 1, "x1": 2, "x2": 5}})),
    Mutant("succ_repr without the floor", "levelcanon.normalize.succ_repr",
           lambda: succ_repr_without_the_floor, fuzz_check,
           (124, {"level": "s(x1)", "other": None, "phase": "eval", "witness": {"x1": 0}})),
    Mutant("_below as getrandbits(k) % n", "levelcanon.harness._below",
           lambda: below_by_remainder, stream_check, "5042fb149de4b7f9"),
    # bound 1, one variable: the layout built for lanes of 3 bits serves lanes of 4
    Mutant("layout cache keyed without width", "levelcanon.levels._layout",
           layout_keyed_without_width, oracle_check,
           (1, 1, Max(Succ(Succ(Succ(ZERO))), IMax(Var(0), Var(0))), Succ(Var(0)),
            {0: 1}, {0: 0})),
]

# (mutant, why it cannot be told apart)
EQUIVALENT = [
    (Mutant("_below rejecting r > n - 1", "levelcanon.harness._below",
            lambda: below_rejecting_above_n_less_one, stream_check, None),
     "on ints, r > n - 1 holds exactly when r >= n"),
]


@pytest.mark.parametrize("row", KILLED, ids=[row.name for row in KILLED])
def test_the_check_kills_the_mutant_and_names_its_first_witness(row, monkeypatch):
    monkeypatch.setattr(row.target, row.make())
    assert row.check() == row.witness


@pytest.mark.parametrize("row, reason", EQUIVALENT, ids=[row.name for row, _ in EQUIVALENT])
def test_an_equivalent_mutant_survives(row, reason, monkeypatch):
    monkeypatch.setattr(row.target, row.make())
    assert row.check() is None, reason
