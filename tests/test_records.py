"""The library's records behave as the frozen dataclasses they once were.

`harness.GenConfig`, `Failure` and `DiffReport` and `rewrite.terms.Symbol`
and `RewriteRule` are pinned on what a frozen dataclass of their fields
gave: positional and keyword construction with the same defaults, the
constructors' ValueErrors, `==`, `hash` (that of the tuple of the fields)
and the ``Name(field=value, ...)`` `repr`, AttributeError on assigning or
deleting an attribute, pickling at every protocol, `copy.deepcopy`, and the
serialization of a fuzz report, against `dataclasses.asdict`
(`oracles.failure_json`, `oracles.report_json`).

The `*_check` functions return None when the library passes them; the
mutant catalogue (`test_mutants`) runs them too.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from oracles import failure_json, report_json

from levelcanon.harness import DiffReport, Failure, GenConfig
from levelcanon.rewrite.terms import RewriteRule, Symbol, app, pvar

FIELDS = {
    GenConfig: ("seed", "max_size", "num_vars"),
    Failure: ("level", "other", "phase", "witness"),
    DiffReport: ("cases_run", "failures", "step_stats"),
    Symbol: ("name", "args", "result"),
    RewriteRule: ("lhs", "rhs"),
}


def samples() -> list[tuple[object, str]]:
    """Fresh records of every class, each with its `repr` text."""
    failure = Failure("max(x0, s(x1))", "x1", "compare", {"x0": 0, "x1": 2})
    return [
        (GenConfig(), "GenConfig(seed=0, max_size=50, num_vars=3)"),
        (GenConfig(7, 20), "GenConfig(seed=7, max_size=20, num_vars=3)"),
        (GenConfig(num_vars=0, seed=-1, max_size=1), "GenConfig(seed=-1, max_size=1, num_vars=0)"),
        (Failure("x0", None, "eval", None),
         "Failure(level='x0', other=None, phase='eval', witness=None)"),
        (failure, "Failure(level='max(x0, s(x1))', other='x1', phase='compare', "
                  "witness={'x0': 0, 'x1': 2})"),
        (DiffReport(3, ()), "DiffReport(cases_run=3, failures=(), step_stats={})"),
        (DiffReport(9, (failure, Failure("0", None, "budget", None)), {"min": 1, "max": 7}),
         "DiffReport(cases_run=9, failures=(Failure(level='max(x0, s(x1))', other='x1', "
         "phase='compare', witness={'x0': 0, 'x1': 2}), Failure(level='0', other=None, "
         "phase='budget', witness=None)), step_stats={'min': 1, 'max': 7})"),
        (Symbol("consN", ("nat", "natset"), "natset"),
         "Symbol(name='consN', args=('nat', 'natset'), result='natset')"),
        (RewriteRule(app("not", app("true")), app("false")),
         "RewriteRule(lhs=('not', ('true',)), rhs=('false',))"),
        (RewriteRule(app("f", pvar("x"), pvar("y")), pvar("x")),
         "RewriteRule(lhs=('f', ('$', 'x'), ('$', 'y')), rhs=('$', 'x'))"),
    ]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


# --- checks: each returns None when the library passes it ----------------

INVALID = (
    ("GenConfig(max_size=0)", lambda: GenConfig(max_size=0), "max_size must be at least 1"),
    ("GenConfig(3, -5)", lambda: GenConfig(3, -5), "max_size must be at least 1"),
    ("GenConfig(num_vars=-1)", lambda: GenConfig(num_vars=-1), "num_vars must be a natural"),
    ("RewriteRule(pvar('x'), ...)", lambda: RewriteRule(pvar("x"), app("zeroN")),
     "rule left-hand side must not be a bare pattern variable"),
    ("RewriteRule(..., pvar('y'))", lambda: RewriteRule(app("not", pvar("x")), pvar("y")),
     "right-hand side introduces variables ['y']"),
)


def validation_check():
    """Each invalid construction of `INVALID`: the first that does not raise
    its ValueError, with what it built or the message it raised."""
    for text, build, message in INVALID:
        try:
            built = build()
        except ValueError as exc:
            if str(exc) != message:
                return text, str(exc)
        else:
            return text, repr(built)
    return None


def witness_copy_check():
    """A failure's witness after the dict that `Failure.to_json` returned
    is changed: the witness, when that changed it."""
    failure = Failure("x0", None, "eval", {"x0": 1})
    failure.to_json()["witness"]["x0"] = 2
    return None if failure.witness == {"x0": 1} else failure.witness


def default_stats_check():
    """A report's default `step_stats` after another report's default one
    is changed: the stats, when that changed them."""
    DiffReport(1, ()).step_stats["total"] = 5
    stats = DiffReport(1, ()).step_stats
    return None if stats == {} else stats


# --- pins ----------------------------------------------------------------

def test_construction_is_positional_or_by_keyword_with_the_defaults():
    assert GenConfig() == GenConfig(0, 50, 3) == GenConfig(seed=0, max_size=50, num_vars=3)
    assert _fields(GenConfig(seed=11, max_size=4)) == (11, 4, 3)
    assert _fields(GenConfig(5)) == (5, 50, 3)
    # as perfbench builds them
    assert _fields(Failure("x0", None, "eval", None)) == ("x0", None, "eval", None)
    assert Failure(level="a", other="b", phase="compare", witness={}) == Failure("a", "b",
                                                                                 "compare", {})
    assert _fields(DiffReport(4, ())) == (4, (), {})
    assert DiffReport(cases_run=4, failures=(), step_stats={"min": 0}).step_stats == {"min": 0}
    assert _fields(Symbol(name="true", args=(), result="bool")) == ("true", (), "bool")
    assert _fields(RewriteRule(rhs=app("false"), lhs=app("not", app("true")))) == (
        ("not", ("true",)), ("false",))
    assert Symbol("and", ("bool", "bool"), "bool").arity == 2
    assert DiffReport(1, ()).ok and not DiffReport(1, (Failure("0", None, "eval", None),)).ok
    for build in (lambda: Failure("x0"), lambda: DiffReport(1), lambda: Symbol("f", ()),
                  lambda: RewriteRule(app("f")), lambda: GenConfig(1, 2, 3, 4),
                  lambda: GenConfig(size=3), lambda: Failure("x0", None, "eval", None, None)):
        with pytest.raises(TypeError):
            build()


def test_the_constructors_raise_their_value_errors():
    # GenConfig(max_size=0) must raise: gen_level's _below(rng, 0) would loop forever
    assert validation_check() is None


def test_equality_hash_and_repr_are_the_dataclass_ones():
    for (record, text), (again, _) in zip(samples(), samples()):
        assert record == again and not record != again
        assert repr(record) == text
        try:
            expected = hash(_fields(record))
        except TypeError:
            # a dict field: unhashable, as the dataclass was
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == expected
    assert GenConfig(1) != GenConfig(2)
    assert Failure("x0", None, "eval", {"x0": 1}) != Failure("x0", None, "eval", {"x0": 2})
    assert DiffReport(1, (), {"max": 1}) != DiffReport(1, ())
    assert str(RewriteRule(app("not", app("true")), app("false"))) == "not true --> false"


def test_records_are_immutable():
    for record, _ in samples():
        for name in (*FIELDS[type(record)], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_records_pickle_at_every_protocol_and_deep_copy():
    for record, text in samples():
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.deepcopy(record), copy.copy(record)]
        for other in copies:
            assert type(other) is type(record) and other == record and repr(other) == text
    failure = samples()[4][0]
    assert copy.deepcopy(failure).witness is not failure.witness


def test_the_fuzz_report_serializes_as_asdict_did():
    for record, _ in samples():
        if isinstance(record, Failure):
            assert record.to_json() == failure_json(record)
        elif isinstance(record, DiffReport):
            assert record.to_json() == report_json(record)
            assert [f.to_json() for f in record.failures] == [failure_json(f)
                                                              for f in record.failures]
    assert witness_copy_check() is None


def test_a_default_step_stats_is_each_reports_own():
    assert default_stats_check() is None
    assert DiffReport(0, ()).step_stats is not DiffReport(0, ()).step_stats
