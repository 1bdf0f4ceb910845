"""The CLI's exit-code contract on 1,000 seeded commands, run in process
through `run_cli`: every command ends with exit 0, 1 or 2, prints no
traceback, and leaves the interpreter's recursion limit as it found it.

The commands cover every subcommand, on grammar texts (generated levels,
printed) and on strings of random tokens, with bindings of bad names and of
5,000-digit values, and with bad flags.  A step budget keeps each rewrite
short, and a fuzz run is at most a few small cases.
"""

from __future__ import annotations

import io
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

from levelcanon.cli import STRATEGIES, run_cli
from levelcanon.harness import GenConfig, gen_level, harness_names
from levelcanon.printer import print_level

COMMANDS = 1_000
SUBCOMMANDS = ("normalize", "leq", "eq", "subst", "eval", "rewrite", "export", "fuzz")
TOKENS = ("max", "imax", "s", "(", "(", ")", ")", ",", ",", " ", "\n", "x0", "x1", "y", "_a",
          "z9", "0", "1", "15", "2x", "007", "10001", "@", "max(", "s(")
NAMES = ("x0", "x1", "x2", "y", "_a", "", "1x", "x y", "x-1", "max")
VALUES = ("0", "1", "7", "007", "", "-1", "x", "9" * 5_000)
BAD_FLAGS = (["--bogus"], ["--json", "--json"], ["--max-steps", "0"], ["--max-steps", "-3"],
             ["--max-steps", "x"], ["--strategy", "sideways"], ["--cases", "-1"],
             ["--size", "0"], ["--seed", "1.5"], ["--val"], ["-h"])
NAMES_3 = harness_names(3)


def _expr(rng: random.Random) -> str:
    if rng.random() < 0.6:
        cfg = GenConfig(seed=rng.getrandbits(16), max_size=1 + rng.randrange(12))
        return print_level(gen_level(cfg, 0), NAMES_3)
    return "".join(rng.choice(TOKENS) for _ in range(rng.randrange(12)))


def _binding(rng: random.Random) -> str:
    return f"{rng.choice(NAMES)}={rng.choice(VALUES)}"


def command(rng: random.Random) -> list[str]:
    """One seeded command line, the subcommand first."""
    sub = rng.choice(SUBCOMMANDS)
    if sub == "normalize":
        argv = [sub, _expr(rng)] + (["--json"] if rng.random() < 0.3 else [])
    elif sub == "export":
        argv = [sub] + [_expr(rng)] * (rng.random() < 0.7)
        argv += ["--paper-literal-rules"] * (rng.random() < 0.3)
    elif sub in ("leq", "eq"):
        argv = [sub, _expr(rng), _expr(rng)]
    elif sub == "subst":
        argv = [sub, _expr(rng), *(_binding(rng) for _ in range(1 + rng.randrange(3)))]
    elif sub == "eval":
        bindings = (_binding(rng) for _ in range(rng.randrange(4)))
        argv = [sub, _expr(rng), "--val", ",".join(bindings)]
    elif sub == "rewrite":
        argv = [sub, _expr(rng), "--strategy", rng.choice(STRATEGIES), "--max-steps",
                str(rng.choice((1, 10, 100, 1_000))), "--seed", str(rng.randrange(9))]
        argv += rng.choice(([], ["--trace"], ["--paper-literal-rules"]))
    else:
        argv = [sub, "--cases", str(rng.randrange(3)), "--size", str(1 + rng.randrange(8)),
                "--seed", str(rng.randrange(100))]
    if rng.random() < 0.15:
        argv += rng.choice(BAD_FLAGS)
    return argv


def run(argv: list[str]) -> tuple[object, str, int]:
    """`run_cli(argv)`'s exit code, or the traceback of what it raised; all
    it printed; and the recursion limit it left."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        try:
            code: object = run_cli(argv)
        except Exception:
            code = traceback.format_exc()
    return code, out.getvalue(), sys.getrecursionlimit()


def test_every_command_keeps_the_exit_code_contract():
    rng = random.Random(36)
    codes = {sub: set() for sub in SUBCOMMANDS}
    for _ in range(COMMANDS):
        argv = command(rng)
        before = sys.getrecursionlimit()
        code, printed, after = run(argv)
        assert code in (0, 1, 2) and "Traceback" not in printed and after == before, (
            argv, code, printed[-300:], before, after)
        codes[argv[0]].add(code)
    # each subcommand succeeded and refused something, and each decision
    # also answered no
    assert all({0, 2} <= seen for seen in codes.values()), codes
    assert 1 in codes["leq"] and 1 in codes["eq"]
