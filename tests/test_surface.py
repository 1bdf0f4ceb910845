from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import levelcanon
from levelcanon import IMax, Max, Succ, Var, ZERO, Repr, repr_var
from levelcanon.cli import run_cli
from levelcanon.export import export_framework
from levelcanon.harness import GenConfig, gen_level, harness_names
from levelcanon.normalize import normalize
from levelcanon.parser import MAX_NESTING, NameTable, ParseError, parse_level
from levelcanon.printer import print_level, print_repr, print_repr_json
from levelcanon.rewrite import encode_repr, term_to_str


def _names(*vars_in_order: str) -> NameTable:
    table = NameTable()
    for name in vars_in_order:
        table.intern(name)
    return table


def test_parse_examples():
    names = NameTable()
    t = parse_level("max(imax(x, s(y)), 0)", names)
    assert t == Max(IMax(Var(0), Succ(Var(1))), ZERO)
    assert parse_level("3", names) == Succ(Succ(Succ(ZERO)))
    assert parse_level("  max ( x ,\n y )", NameTable()) == Max(Var(0), Var(1))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_level("imax(x", NameTable())
    assert err.value.col == 7 and err.value.line == 1
    assert err.value.expected == frozenset({","})
    with pytest.raises(ParseError) as err:
        parse_level("imax(x,", NameTable())
    assert err.value.col == 8
    with pytest.raises(ParseError) as err:
        parse_level("max(x | y)", NameTable())
    assert err.value.col == 7


_LEVEL_START = {"NAT", "IDENT", "s", "max", "imax"}


# message, line, column and expected set of each error, as the parser reported
# them when it tokenized with two regex matches per token
@pytest.mark.parametrize("text, message, line, col, expected", [
    ("max(x,\n\ty@)", "unexpected character '@' at line 2, column 3", 2, 3, set()),
    ("max(x,\r\n  y@)", "unexpected character '@' at line 2, column 4", 2, 4, set()),
    ("max(x,\n", "unexpected end of input at line 2, column 1 "
     "(expected IDENT, NAT, imax, max, s)", 2, 1, _LEVEL_START),
    ("max(x y)", "unexpected y at line 1, column 7 (expected ,)", 1, 7, {","}),
    ("max(x y)@", "unexpected character '@' at line 1, column 9", 1, 9, set()),
    ("max(x,\n 10001)", "numeral 10001 too large (limit 10000) at line 2, column 2",
     2, 2, set()),
    ("s(" * 501 + "x" + ")" * 501, "nesting deeper than 500 at line 1, column 1001",
     1, 1001, set()),
    ("s(" * 501 + "@", "unexpected character '@' at line 1, column 1003", 1, 1003, set()),
    ("", "unexpected end of input at line 1, column 1 "
     "(expected IDENT, NAT, imax, max, s)", 1, 1, _LEVEL_START),
    ("max", "unexpected end of input at line 1, column 4 (expected ()", 1, 4, {"("}),
    ("imax(x,\n\n  s(y)))", "unexpected ) at line 3, column 8 (expected EOF)",
     3, 8, {"EOF"}),
])
def test_parse_error_reports(text, message, line, col, expected):
    with pytest.raises(ParseError) as err:
        parse_level(text, NameTable())
    assert (str(err.value), err.value.line, err.value.col) == (message, line, col)
    assert err.value.expected == expected


def test_parse_errors_pickle_and_copy():
    for text in ("max(x y)", "max(x,\n", "max(x,\n 10001)"):
        with pytest.raises(ParseError) as err:
            parse_level(text, NameTable())
        e = err.value
        copies = [pickle.loads(pickle.dumps(e, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies + [copy.copy(e), copy.deepcopy(e)]:
            assert type(c) is ParseError
            assert (c.args, c.line, c.col, c.expected) == (e.args, e.line, e.col, e.expected)


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_level("s", NameTable())
    names = NameTable()
    assert parse_level("smax", names) == Var(0)
    assert names.name_of(0) == "smax"


def test_name_table_is_dense_and_bijective():
    names = NameTable()
    parse_level("max(b, max(a, b))", names)
    assert names.name_of(0) == "b" and names.name_of(1) == "a"
    assert len(names) == 2
    # a name already in the table keeps its id
    assert names.intern("b") == 0 and names.intern("a") == 1
    assert len(names) == 2


def test_print_level_examples():
    names = _names("x")
    assert print_level(ZERO, names) == "0"
    assert print_level(Succ(Var(0)), names) == "s(x)"
    assert print_level(Max(Var(0), IMax(Var(0), ZERO)), names) == "max(x, imax(x, 0))"


def test_print_parse_roundtrip():
    cfg = GenConfig(seed=100, max_size=30)
    names = harness_names(cfg.num_vars)
    for i in range(1000):
        t = gen_level(cfg, i)
        assert parse_level(print_level(t, names), names) == t


def test_print_repr_examples():
    names = _names("x")
    assert print_repr(Repr(), names) == "max{}"
    assert print_repr(repr_var(0), names) == "max{A{x}(x)+0}"
    names2 = _names("x", "y")
    r = normalize(Max(Succ(Var(0)), Var(1)))
    assert print_repr(r, names2) == "max{A{x}(x)+1, A{y}(y)+0, B{}+1}"


def test_print_repr_json():
    names = _names("x")
    assert print_repr_json(Repr(), names) == '{"atoms":[]}'
    assert print_repr_json(normalize(Succ(ZERO)), names) == \
        '{"atoms":[{"kind":"B","set":[],"shift":1}]}'
    cfg = GenConfig(seed=2, max_size=16)
    harness = harness_names(cfg.num_vars)
    for i in range(200):
        payload = json.loads(print_repr_json(normalize(gen_level(cfg, i)), harness))
        assert isinstance(payload["atoms"], list)


def test_print_repr_injective_on_sample():
    cfg = GenConfig(seed=77, max_size=16)
    names = harness_names(cfg.num_vars)
    by_text = {}
    for i in range(300):
        r = normalize(gen_level(cfg, i))
        text = print_repr(r, names)
        assert by_text.setdefault(text, r) == r
    assert len(by_text) == len(set(by_text.values()))


def test_export_framework():
    out = export_framework()
    assert "zeroL --> maxS nilSL" in out.splitlines()
    assert out == export_framework()  # deterministic bytes
    names = NameTable()
    query = export_framework(parse_level("x", names))
    assert query.rstrip("\n").endswith("varL zeroN")
    assert "leqSL : sublevel -> sublevel -> bool" in query.splitlines()


def test_cli_eq_and_leq(capsys):
    assert run_cli(["eq", "imax(x,x)", "x"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert run_cli(["leq", "s(x)", "x"]) == 1
    assert capsys.readouterr().out == "false\n"


def test_cli_normalize_agrees_on_equivalent_inputs(capsys):
    assert run_cli(["normalize", "max(imax(x,y),imax(y,x))"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["normalize", "max(x,y)"]) == 0
    assert capsys.readouterr().out == first


def test_cli_normalize_json(capsys):
    assert run_cli(["normalize", "s(0)", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "atoms": [{"kind": "B", "set": [], "shift": 1}]}


def test_cli_subst_and_eval(capsys):
    assert run_cli(["subst", "max(imax(x,y), z)", "x=0", "z=2"]) == 0
    assert capsys.readouterr().out == "max{A{y}(y)+0, B{}+2}\n"
    assert run_cli(["eval", "imax(s(y), s(x))", "--val", "x=0,y=1"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert run_cli(["eval", "x", "--val", "y=1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_eval_names_an_unbound_variable(capsys):
    assert run_cli(["eval", "max(x,y)", "--val", "x=1"]) == 2
    assert capsys.readouterr() == ("", "error: variable y is not bound in the valuation\n")


@pytest.mark.parametrize("argv", [
    ["eval", "x", "--val", "x=1,x=2"],
    ["eval", "max(x,y)", "--val", "x=1, y=0,x=1"],
    ["subst", "x", "x=0", "x=1"],
    ["subst", "max(x,y)", "y=2", "x=0", "x=0"],
])
def test_cli_rejects_a_variable_bound_twice(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", "error: variable x is bound twice\n")


def test_cli_rewrite(capsys):
    assert run_cli(["rewrite", "imax(x,x)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "maxS (consSL (A (consN zeroN nilN) zeroN zeroN) nilSL)"
    assert out[1].startswith("steps: ")
    assert run_cli(["rewrite", "0", "--strategy", "outermost", "--trace"]) == 0
    trace_out = capsys.readouterr().out.splitlines()
    assert trace_out[0].startswith("0\troot\tzeroL --> ")


def test_cli_rewrite_deep_numeral(capsys):
    # the encoded level is a 900-deep successor tower
    assert run_cli(["rewrite", "max(900,x)"]) == 0
    out = capsys.readouterr().out.splitlines()
    expected = encode_repr(normalize(parse_level("max(900,x)", NameTable())))
    assert out == [term_to_str(expected), "steps: 18911"]


def test_cli_rewrite_literal_flag_diverges(capsys):
    assert run_cli(["rewrite", "s(x)"]) == 0
    default = capsys.readouterr().out
    assert run_cli(["rewrite", "s(x)", "--paper-literal-rules"]) == 0
    literal = capsys.readouterr().out
    assert default != literal


def test_cli_parse_error_exit_code(capsys):
    assert run_cli(["normalize", "imax(x"]) == 2
    err = capsys.readouterr().err
    assert "column 7" in err
    assert run_cli(["bogus-subcommand"]) == 2
    capsys.readouterr()


def _nested_max(depth: int) -> str:
    return "max(" * depth + "x" + ",y)" * depth


def test_parse_nesting_limit():
    assert MAX_NESTING == 500
    t = parse_level(_nested_max(500), NameTable())
    for _ in range(500):
        assert isinstance(t, Max)
        t = t.left
    assert t == Var(0)
    assert parse_level("s(" * 500 + "x" + ")" * 500, NameTable()) is not None
    for text in (_nested_max(501), "s(" * 501 + "x" + ")" * 501,
                 "imax(y," * 250 + "s(" * 251 + "x" + ")" * 501):
        with pytest.raises(ParseError, match="nesting deeper than 500"):
            parse_level(text, NameTable())


@pytest.mark.parametrize("argv, out", [
    (["normalize", _nested_max(500)], "max{A{x}(x)+0, A{y}(y)+0}\n"),
    (["eq", _nested_max(500), "max(x,y)"], "true\n"),
    (["eval", _nested_max(500), "--val", "x=3,y=1"], "3\n"),
])
def test_cli_completes_at_the_nesting_limit(argv, out, capsys):
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == out


def test_cli_rejects_nesting_beyond_the_limit(capsys):
    # the limit is one of the input syntax: past it, a parse error and exit 2
    for depth in (501, 1500):
        assert run_cli(["normalize", _nested_max(depth)]) == 2
        assert "nesting deeper than 500" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["subst", "x", "x=\u00b2"],
                                  ["eval", "x", "--val", "x=\u00b2"]])
def test_cli_rejects_non_ascii_digits(argv, capsys):
    # U+00B2 (superscript two) passes str.isdigit but is no NAT
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: expected NAME=NAT")


# the interpreter converts at most 4,300 digits between int and text
LONG = "9" * 5000
PRINTABLE = "9" * 4300
TOO_MANY_DIGITS = ("error: a number has more than 4300 digits, "
                   "the interpreter's limit for integer text\n")


@pytest.mark.parametrize("argv", [["normalize", LONG], ["leq", "x", LONG]])
def test_cli_rejects_a_numeral_longer_than_integer_text(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == ("error: numeral of 5000 digits too large (limit 10000) "
                                       "at line 1, column 1\n")


def test_cli_reads_a_zero_padded_numeral_of_any_length(capsys):
    assert run_cli(["normalize", "0" * 4999 + "7"]) == 0
    assert capsys.readouterr().out == "max{B{}+7}\n"


@pytest.mark.parametrize("argv", [["eval", "x", "--val", "x=" + LONG],
                                  ["subst", "x", "x=" + LONG]])
def test_cli_rejects_a_binding_longer_than_integer_text(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == TOO_MANY_DIGITS


@pytest.mark.parametrize("argv", [["eval", "s(x)", "--val", "x=" + PRINTABLE],
                                  ["subst", "s(x)", "x=" + PRINTABLE]])
def test_cli_rejects_a_result_longer_than_integer_text(argv, capsys):
    # the binding converts, but its successor has 4,301 digits
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == TOO_MANY_DIGITS


@pytest.mark.parametrize("argv, out", [
    (["eval", "x", "--val", "x=" + PRINTABLE], PRINTABLE + "\n"),
    (["subst", "x", "x=" + PRINTABLE], "max{B{}+" + PRINTABLE + "}\n"),
])
def test_cli_prints_a_result_at_the_integer_text_limit(argv, out, capsys):
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == out


def _run_levelcanon(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(levelcanon.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "levelcanon", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    proc = _run_levelcanon("eq", "imax(x,x)", "x")
    assert (proc.returncode, proc.stdout) == (0, "true\n")


# the encoding of the numeral 10000: a 10000-deep successor tower
_TEN_THOUSAND = "succL (" * 9999 + "succL zeroL" + ")" * 9999


def test_cli_export_deep_numeral():
    # run as a process: the default recursion limit is the one that matters
    proc = _run_levelcanon("export", "10000")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("# query\n" + _TEN_THOUSAND + "\n")


def test_cli_rewrite_deep_numeral_out_of_budget():
    proc = _run_levelcanon("rewrite", "max(10000,x)", "--max-steps", "10")
    assert proc.returncode == 0
    assert proc.stdout == f"maxL ({_TEN_THOUSAND}) (varL zeroN)\nsteps: 10\n"
    assert "step budget exhausted" in proc.stderr


# the innermost rewrites of long numerals, pinned before the evaluator changes:
# sha256 of stdout and the step count, taken with `python -m levelcanon rewrite`
DEEP_GOLDEN = [
    ("10000", 209_984, "6f04c154424983454808829a60b858a462caf38ae7a82f887d187189af61180e"),
    ("max(10000,9999)", 439_958,
     "f146a01e8d734f28e947562bb5b3713baeaac40a53f2cc6eb33d060b307dbf18"),
    ("imax(10000,s(x))", 230_185,
     "aaf055bc45223f44c60584585ffe6b002e5245cc2294e01c6212be153dc775a6"),
]


@pytest.mark.parametrize("level, steps, digest", DEEP_GOLDEN, ids=[g[0] for g in DEEP_GOLDEN])
def test_cli_rewrite_deep_numeral_matches_its_golden_hash(level, steps, digest):
    proc = _run_levelcanon("rewrite", level)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: constant depth exceeds 64; unary numerals will blow up\n"
    assert proc.stdout.splitlines()[1] == f"steps: {steps}"
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def _shallower(out: str, layers: int) -> str:
    """Output of a rewrite of max(N + layers, x) as it reads for max(N, x): the
    tower's top `layers` successors and their path prefixes taken out."""
    return (out.replace("\t" + "0." * layers, "\t")
            .replace("succL (" * layers, "", 1).replace(")" * layers, "", 1))


@pytest.mark.parametrize("flags", [["--strategy", "outermost"],
                                   ["--strategy", "random", "--seed", "5"],
                                   ["--trace"],
                                   ["--strategy", "random", "--trace"]])
def test_cli_rewrite_deep_numeral_positional(flags):
    # the position scans take the same steps on a 9,900 layers deeper tower,
    # with every redex 9,900 levels further down
    deep = _run_levelcanon("rewrite", "max(10000,x)", "--max-steps", "10", *flags)
    shallow = _run_levelcanon("rewrite", "max(100,x)", "--max-steps", "10", *flags)
    assert (deep.returncode, shallow.returncode) == (0, 0)
    assert deep.stderr == shallow.stderr
    assert "step budget exhausted" in deep.stderr
    assert shallow.stdout.endswith("\nsteps: 10\n")
    assert _shallower(deep.stdout, 9_900) == shallow.stdout


def test_cli_export_and_fuzz(capsys):
    assert run_cli(["export"]) == 0
    assert "# rules" in capsys.readouterr().out
    assert run_cli(["fuzz", "--cases", "10", "--size", "10", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cases_run"] == 10 and report["failures"] == []
    # the oracle grid is fixed by the levels; there is no option to shrink it
    assert run_cli(["fuzz", "--cases", "1", "--bound", "0"]) == 2
    capsys.readouterr()


def test_cli_verdicts_agree_with_the_oracle(capsys):
    from levelcanon import default_grid_bound, find_counterexample_leq
    from levelcanon.printer import print_level

    cfg = GenConfig(seed=55, max_size=10)
    names = harness_names(cfg.num_vars)
    for i in range(30):
        t1, t2 = gen_level(cfg, 2 * i), gen_level(cfg, 2 * i + 1)
        code = run_cli(["leq", print_level(t1, names), print_level(t2, names)])
        out = capsys.readouterr().out
        witness = find_counterexample_leq(t1, t2, default_grid_bound(t1, t2))
        assert (code == 0) == (witness is None)
        assert out == ("true\n" if witness is None else "false\n")
