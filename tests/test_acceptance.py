"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is seeded; all tolerances are exact equality.
"""

from __future__ import annotations

import random

from oracles import exhaustive_sublevel_suite

from levelcanon import (
    IMax, Level, Max, Succ, Var, Zero, ZERO,
    eq_repr, eval_level, eval_repr, find_counterexample_leq, level_vars, subst_repr,
)
from levelcanon.normalize import normalize
from levelcanon.cli import run_cli
from levelcanon.harness import GenConfig, gen_level, run_fuzz
from levelcanon.rewrite import confluence_runs

x, y = Var(0), Var(1)

BUDGET = 1_000_000


def _report(num: int, ok: bool, label: str) -> bool:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {label}")
    return ok


def _random_sigma(rng: random.Random, vids, top: int) -> dict[int, int]:
    # zero-heavy draw: the impredicative cases all live at zero
    return {v: rng.choice((0, 0, 1, 1, 2, top - 1, top)) for v in vids}


def _random_columns(rng: random.Random, vids, top: int, width: int) -> dict[int, list[int]]:
    # `width` draws of `_random_sigma`, in its order, as one column per variable
    draws = [rng.choice((0, 0, 1, 1, 2, top - 1, top)) for _ in range(width * len(vids))]
    return {v: draws[i::len(vids)] for i, v in enumerate(vids)}


def test_criterion_1_paper_equivalences():
    pairs = [
        (IMax(x, x), x),
        (Max(IMax(x, y), x), Max(x, y)),
        (Max(Succ(x), x), Succ(x)),
        (Max(x, x), x),
        (IMax(x, Succ(y)), Max(x, Succ(y))),
        (Max(IMax(x, y), IMax(y, x)), Max(x, y)),
    ]
    ok = all(eq_repr(normalize(lhs), normalize(rhs)) for lhs, rhs in pairs)
    assert _report(1, ok, "listed level equivalences are representation identities")


def test_criterion_2_paper_non_equivalence():
    t1, t2 = Succ(IMax(y, x)), IMax(Succ(y), Succ(x))
    distinct = not eq_repr(normalize(t1), normalize(t2))
    witness = find_counterexample_leq(t2, t1, 3)
    ok = (distinct and witness == {0: 0, 1: 1}
          and eval_level(t2, witness) > eval_level(t1, witness))
    assert _report(2, ok, "successor does not commute with imax; witness x=0,y=1")


def test_criterion_3_semantic_law_suite():
    rng = random.Random(2026_03)
    cfg = GenConfig(seed=303, max_size=8)
    laws = [
        ("imax-max-right", lambda u, v, w: [(IMax(u, Max(v, w)), Max(IMax(u, v), IMax(u, w)))]),
        ("imax-max-left", lambda u, v, w: [(IMax(Max(u, v), w), Max(IMax(u, w), IMax(v, w)))]),
        ("imax-imax-right", lambda u, v, w: [(IMax(u, IMax(v, w)), Max(IMax(u, w), IMax(v, w)))]),
        ("imax-zero-succ", lambda u, v, w: [(IMax(u, ZERO), ZERO),
                                            (IMax(u, Succ(v)), Max(u, Succ(v)))]),
        ("succ-imax", lambda u, v, w: [(Succ(IMax(v, w)), Max(Succ(w), IMax(Succ(v), w)))]),
    ]
    ok = True
    for name, build in laws:
        for case in range(1000):
            u = gen_level(cfg, case * 31)
            v = gen_level(cfg, case * 31 + 1)
            w = gen_level(cfg, case * 31 + 2)
            for lhs, rhs in build(u, v, w):
                vids = tuple(sorted(level_vars(lhs) | level_vars(rhs)))
                columns = _random_columns(rng, vids, 5, 50)
                left, right = eval_level(lhs, columns, 50), eval_level(rhs, columns, 50)
                if left != right:
                    ok = False
                    k = next(k for k in range(50) if left[k] != right[k])
                    sigma = {vid: columns[vid][k] for vid in vids}
                    print(f"  law {name} fails at {sigma} on {lhs} vs {rhs}")
                if not ok:
                    break
            if not ok:
                break
    assert _report(3, ok, "five distribution laws on 1000 triples x 50 valuations each")


def test_criterion_4_normalization_soundness():
    rng = random.Random(2026_04)
    cfg = GenConfig(seed=404, max_size=50)
    ok = True
    for case in range(1000):
        t = gen_level(cfg, case)
        r = normalize(t)
        sigma = _random_sigma(rng, tuple(sorted(level_vars(t))), 6)
        if eval_repr(r, sigma) != eval_level(t, sigma):
            ok = False
            print(f"  soundness fails on {t} at {sigma}")
            break
    assert _report(4, ok, "eval of the representation equals eval of the level, 1000 cases")


def test_criterion_5_comparison_completeness():
    report = exhaustive_sublevel_suite(3, 3, 6)
    ok = report.ok and report.cases_run == 72 * 72
    assert _report(5, ok, f"exhaustive atom comparison on {report.cases_run} ordered pairs")


def _equivalence_step(t: Level, rng: random.Random) -> Level:
    """One random semantic-preserving rewrite from the distribution laws."""
    spots = _positions(t)
    rng.shuffle(spots)
    for path in spots:
        node = _get(t, path)
        candidates = _law_images(node, rng)
        if candidates:
            return _put(t, path, rng.choice(candidates))
    return t


def _positions(t: Level, path=()) -> list[tuple[int, ...]]:
    out = [path]
    match t:
        case Succ(c):
            out.extend(_positions(c, path + (0,)))
        case Max(a, b) | IMax(a, b):
            out.extend(_positions(a, path + (0,)))
            out.extend(_positions(b, path + (1,)))
    return out


def _get(t: Level, path) -> Level:
    for i in path:
        match t:
            case Succ(c):
                t = c
            case Max(a, b) | IMax(a, b):
                t = (a, b)[i]
    return t


def _put(t: Level, path, sub: Level) -> Level:
    if not path:
        return sub
    head, rest = path[0], path[1:]
    match t:
        case Succ(c):
            return Succ(_put(c, rest, sub))
        case Max(a, b):
            return Max(_put(a, rest, sub), b) if head == 0 else Max(a, _put(b, rest, sub))
        case IMax(a, b):
            return IMax(_put(a, rest, sub), b) if head == 0 else IMax(a, _put(b, rest, sub))
    raise AssertionError("path into a leaf")


def _law_images(node: Level, rng: random.Random) -> list[Level]:
    out: list[Level] = []
    match node:
        case IMax(u, Max(v, w)):
            out.append(Max(IMax(u, v), IMax(u, w)))
        case IMax(Max(u, v), w):
            out.append(Max(IMax(u, w), IMax(v, w)))
        case IMax(u, IMax(v, w)):
            out.append(Max(IMax(u, w), IMax(v, w)))
    match node:
        case IMax(u, Zero()):
            out.append(ZERO)
        case IMax(u, Succ(v)):
            out.append(Max(u, Succ(v)))
        case Max(u, Succ(v)):
            out.append(IMax(u, Succ(v)))
        case Succ(IMax(v, w)):
            out.append(Max(Succ(w), IMax(Succ(v), w)))
        case Max(Succ(w1), IMax(Succ(v), w2)) if w1 == w2:
            out.append(Succ(IMax(v, w2)))
        case Zero():
            out.append(IMax(Var(rng.randrange(3)), ZERO))
    match node:
        case Max(IMax(u1, v), IMax(u2, w)) if u1 == u2:
            out.append(IMax(u1, Max(v, w)))
        case Max(IMax(u, w1), IMax(v, w2)) if w1 == w2:
            out.append(IMax(Max(u, v), w1))
    return out


def test_criterion_6_uniqueness():
    rng = random.Random(2026_06)
    cfg = GenConfig(seed=606, max_size=12)
    ok = True

    checked = 0
    index = 0
    while checked < 500:
        t1 = gen_level(cfg, index * 2)
        t2 = gen_level(cfg, index * 2 + 1)
        index += 1
        r1, r2 = normalize(t1), normalize(t2)
        if eq_repr(r1, r2):
            continue
        checked += 1
        shift = max((u.shift for r in (r1, r2) for u in r.atoms), default=0)
        bound = shift + 3
        if (find_counterexample_leq(t1, t2, bound) is None
                and find_counterexample_leq(t2, t1, bound) is None):
            ok = False
            print(f"  no distinguishing valuation for {t1} vs {t2} at bound {bound}")
            break

    transformed = 0
    for case in range(500):
        t = gen_level(cfg, 10_000 + case)
        variant = t
        for _ in range(rng.randint(1, 5)):
            variant = _equivalence_step(variant, rng)
        transformed += 1
        if not eq_repr(normalize(t), normalize(variant)):
            ok = False
            print(f"  law-transformed level changed representation: {t} vs {variant}")
            break
    ok = ok and checked == 500 and transformed == 500
    assert _report(6, ok, "500 distinct pairs got witnesses; 500 law-rewritten pairs stayed equal")


def test_criterion_7_rewrite_path_soundness():
    report = run_fuzz(GenConfig(seed=707, max_size=50), cases=1000)
    ok = report.ok and report.step_stats["max"] < BUDGET
    print(f"  rewrite step counts: {report.step_stats}")
    assert _report(7, ok, "1000 levels: rewrite path equals normalizer, no budget exhaustion")


def test_criterion_8_confluence_sampling():
    cfg = GenConfig(seed=808, max_size=12)
    # each level's innermost, outermost and three random runs reach one
    # normal form within the budget
    ok = all(not any(r.budget_exhausted for r in runs) and len({r.result for r in runs}) == 1
             for runs in (confluence_runs(gen_level(cfg, i), 5, i, BUDGET) for i in range(200)))
    assert _report(8, ok, "200 levels x 5 strategies reach identical normal forms")


def test_criterion_9_substitution():
    rng = random.Random(2026_09)
    cfg = GenConfig(seed=909, max_size=20)
    ok = True
    for case in range(500):
        t = gen_level(cfg, case)
        vids = sorted(level_vars(t))
        target = rng.choice(vids) if vids else rng.randrange(3)
        n = rng.randint(0, 4)
        rest = [v for v in vids if v != target]
        sigma = {v: rng.randint(0, 4) for v in rest}
        substituted = subst_repr(normalize(t), target, n)
        extended = dict(sigma)
        extended[target] = n
        if eval_repr(substituted, sigma) != eval_level(t, extended):
            ok = False
            print(f"  substitution mismatch on {t}, {target}:={n}, {sigma}")
            break
    assert _report(9, ok, "substitute-then-eval equals eval-then-extend, 500 cases")


def test_criterion_10_cli_contract(capsys):
    ok = True

    code = run_cli(["eq", "imax(x,x)", "x"])
    out = capsys.readouterr().out
    ok &= code == 0 and out == "true\n"

    code = run_cli(["leq", "s(x)", "x"])
    out = capsys.readouterr().out
    ok &= code == 1 and out == "false\n"

    code1 = run_cli(["normalize", "max(imax(x,y),imax(y,x))"])
    out1 = capsys.readouterr().out
    code2 = run_cli(["normalize", "max(x,y)"])
    out2 = capsys.readouterr().out
    ok &= code1 == 0 and code2 == 0 and out1 == out2

    with capsys.disabled():
        assert _report(10, ok, "worked CLI examples are byte-exact with specified exit codes")
