"""Command-line interface.

Exit codes: 0 for success (and for a true leq/eq verdict), 1 for a false
verdict or a fuzz run with failures, 2 for usage or parse errors, 3 for an
internal invariant violation.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import _late_names
from .levels import UnboundVariableError, VarId, const_depth, eval_level
from .normalize import eq_repr, leq_repr, normalize, subst_repr
from .parser import KEYWORDS, NameTable, ParseError, parse_level
from .printer import print_repr, print_repr_json

UNARY_WARN_DEPTH = 64

# `rewrite.engine.STRATEGIES`, spelled out so that building the argument
# parser does not load the engine; a test pins the two equal
STRATEGIES = ("innermost", "outermost", "random")

# The names that only `rewrite`, `export` and `fuzz` use, and the modules
# they come from.  They are module attributes resolved on first access, so a
# decision command's process never imports the rewrite engine or the
# harness; the three commands call them through `_cli`, this module, so a
# binding patched on it is the one that runs.
_cli = _late_names(globals(), {
    "export_framework": ".rewrite.rules",
    "encode_level": ".rewrite.codec",
    "reduce": ".rewrite.engine",
    "builtin_ruleset": ".rewrite.rules",
    "term_to_str": ".rewrite.terms",
    "GenConfig": ".harness",
    "run_fuzz": ".harness",
})


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="levelcanon",
                                  description="decide equality, inequality and "
                                              "normal forms of max/imax universe levels")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the minimal representation")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("leq", help="decide EXPR1 <= EXPR2 (exit 0 true, 1 false)")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("eq", help="decide EXPR1 = EXPR2 (exit 0 true, 1 false)")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = sub.add_parser("subst", help="normalize, then substitute naturals for variables")
    p.add_argument("expr")
    p.add_argument("bindings", nargs="+", metavar="x=NAT")

    p = sub.add_parser("eval", help="evaluate under a full valuation")
    p.add_argument("expr")
    p.add_argument("--val", required=True, metavar="x=NAT,...")

    p = sub.add_parser("rewrite", help="run the rewrite engine on the encoded level")
    p.add_argument("expr")
    p.add_argument("--strategy", choices=STRATEGIES, default="innermost")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paper-literal-rules", action="store_true",
                   help="use the published rule forms verbatim, including their "
                        "known discrepancies")

    p = sub.add_parser("export", help="dump the rewrite system, optionally with a query")
    p.add_argument("expr", nargs="?")
    p.add_argument("--paper-literal-rules", action="store_true")

    p = sub.add_parser("fuzz", help="run the differential harness")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=50)

    return top


def _parse_binding(text: str) -> tuple[str, int]:
    name, _, value = text.partition("=")
    if not (name.isascii() and name.isidentifier() and name not in KEYWORDS
            and value.isascii() and value.isdigit()):
        raise ParseError(f"expected NAME=NAT, got {text!r}", 1, 1)
    return name, _int_text(int, value.lstrip("0") or "0")


def _parse_bindings(texts, names: NameTable) -> dict[VarId, int]:
    """The valuation that the NAME=NAT `texts` give, by variable id in their
    order; a name bound twice is a usage error."""
    sigma = {}
    for text in texts:
        name, value = _parse_binding(text)
        vid = names.intern(name)
        if vid in sigma:
            raise UsageError(f"variable {name} is bound twice")
        sigma[vid] = value
    return sigma


def _int_text(convert, *args):
    """`convert(*args)`, which turns integers into text or back; a number with
    more digits than the interpreter converts is a usage error."""
    try:
        return convert(*args)
    except ValueError:
        raise UsageError(f"a number has more than {sys.get_int_max_str_digits()} digits, "
                         "the interpreter's limit for integer text") from None


def run_cli(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(args)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


def _dispatch(args: argparse.Namespace) -> int:
    names = NameTable()
    if args.command == "normalize":
        r = normalize(parse_level(args.expr, names))
        print(print_repr_json(r, names) if args.json else print_repr(r, names))
        return 0

    if args.command in ("leq", "eq"):
        r1 = normalize(parse_level(args.expr1, names))
        r2 = normalize(parse_level(args.expr2, names))
        verdict = leq_repr(r1, r2) if args.command == "leq" else eq_repr(r1, r2)
        print("true" if verdict else "false")
        return 0 if verdict else 1

    if args.command == "subst":
        r = normalize(parse_level(args.expr, names))
        for vid, value in _parse_bindings(args.bindings, names).items():
            r = subst_repr(r, vid, value)
        print(_int_text(print_repr, r, names))
        return 0

    if args.command == "eval":
        t = parse_level(args.expr, names)
        sigma = _parse_bindings((binding.strip() for binding in args.val.split(",")), names)
        try:
            value = eval_level(t, sigma)
        except UnboundVariableError as exc:
            raise UsageError(f"variable {names.name_of(exc.vid)} is not bound "
                             "in the valuation") from None
        print(_int_text(str, value))
        return 0

    if args.command == "rewrite":
        if args.max_steps < 1:
            raise UsageError("--max-steps must be positive")
        t = parse_level(args.expr, names)
        if const_depth(t) > UNARY_WARN_DEPTH:
            print(f"warning: constant depth exceeds {UNARY_WARN_DEPTH}; "
                  "unary numerals will blow up", file=sys.stderr)
        trace = None
        if args.trace:
            def trace(step, pos, rule):
                print(f"{step}\t{'.'.join(map(str, pos)) or 'root'}\t{rule}")
        report = _cli.reduce(_cli.encode_level(t), _cli.builtin_ruleset(args.paper_literal_rules),
                             args.strategy, args.max_steps, args.seed, trace)
        if report.budget_exhausted:
            print("warning: step budget exhausted before a normal form",
                  file=sys.stderr)
        print(_cli.term_to_str(report.result))
        print(f"steps: {report.steps}")
        return 0

    if args.command == "export":
        query = None if args.expr is None else _cli.encode_level(parse_level(args.expr, names))
        sys.stdout.write(_cli.export_framework(query, args.paper_literal_rules))
        return 0

    if args.command == "fuzz":
        if args.size < 1 or args.cases < 0:
            raise UsageError("--size must be positive and --cases non-negative")
        report = _cli.run_fuzz(_cli.GenConfig(seed=args.seed, max_size=args.size), args.cases)
        print(report.to_json())
        return 0 if report.ok else 1

    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    """The `levelcanon` process entry: runs the command line and exits the
    interpreter with its code.  Library callers use `run_cli`, which returns
    the code and leaves the collector as it found it."""
    code = run_cli(sys.argv[1:])
    # the process ends here: what it built moves to the collector's permanent
    # generation, which the interpreter's shutdown collections skip
    gc.freeze()
    sys.exit(code)
