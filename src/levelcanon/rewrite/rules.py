"""Signature and rule set of the level rewrite system.

The system normalizes an encoded level to ``maxS`` of a sorted set of
sublevel atoms, using only first-order, left-linear rules over booleans,
unary naturals, sorted sets, sublevels and levels.

``builtin_ruleset(paper_literal=True)`` swaps four rules for their original
published forms, which are retained for discrepancy demonstrations only:

  * the variable rule with the A-atom arguments in the order (set, 0, x),
  * successor as the pointwise shift without the constant B({},1) floor,
  * set insertion (maxHelper) that stops after dropping one dominated atom,
  * substitution (evalS) that collapses the guard set to {} on the
    substituted A-atom.

Each literal form disagrees with the sublevel semantics on some valuation;
the default forms are the ones the soundness suite cross-checks.
"""

from __future__ import annotations

from .terms import (
    BOOL, LEVEL, NAT, NATSET, SLSET, SUBLEVEL,
    RewriteRule, RTerm, RuleSet, Symbol, app, pvar,
)

_SYMBOLS: list[Symbol] = [
    # booleans
    Symbol("true", (), BOOL),
    Symbol("false", (), BOOL),
    Symbol("and", (BOOL, BOOL), BOOL),
    Symbol("or", (BOOL, BOOL), BOOL),
    Symbol("not", (BOOL,), BOOL),
    # if-then-else, one symbol per result sort that the rules need
    Symbol("iteL", (BOOL, LEVEL, LEVEL), LEVEL),
    Symbol("iteNS", (BOOL, NATSET, NATSET), NATSET),
    Symbol("iteSLS", (BOOL, SLSET, SLSET), SLSET),
    # unary naturals
    Symbol("zeroN", (), NAT),
    Symbol("succN", (NAT,), NAT),
    Symbol("plus", (NAT, NAT), NAT),
    Symbol("maxN", (NAT, NAT), NAT),
    Symbol("leqN", (NAT, NAT), BOOL),
    Symbol("eqN", (NAT, NAT), BOOL),
    Symbol("ltN", (NAT, NAT), BOOL),
    # sorted sets of naturals (cons appears only in patterns and normal forms)
    Symbol("nilN", (), NATSET),
    Symbol("consN", (NAT, NATSET), NATSET),
    Symbol("addN", (NATSET, NAT), NATSET),
    Symbol("unionN", (NATSET, NATSET), NATSET),
    Symbol("memN", (NAT, NATSET), BOOL),
    Symbol("subsetN", (NATSET, NATSET), BOOL),
    Symbol("eqSetN", (NATSET, NATSET), BOOL),
    Symbol("ordSetN", (NATSET, NATSET), BOOL),
    Symbol("ltSetN", (NATSET, NATSET), BOOL),
    Symbol("delN", (NATSET, NAT), NATSET),
    # sublevels and their orders
    Symbol("A", (NATSET, NAT, NAT), SUBLEVEL),
    Symbol("B", (NATSET, NAT), SUBLEVEL),
    Symbol("ordSL", (SUBLEVEL, SUBLEVEL), BOOL),
    Symbol("ltSL", (SUBLEVEL, SUBLEVEL), BOOL),
    Symbol("eqSL", (SUBLEVEL, SUBLEVEL), BOOL),
    Symbol("leqSL", (SUBLEVEL, SUBLEVEL), BOOL),
    # sorted sets of sublevels
    Symbol("nilSL", (), SLSET),
    Symbol("consSL", (SUBLEVEL, SLSET), SLSET),
    Symbol("addSL", (SLSET, SUBLEVEL), SLSET),
    Symbol("succSL", (SLSET,), SLSET),
    Symbol("maxHelper", (SLSET, SUBLEVEL), SLSET),
    Symbol("maxHelperGo", (BOOL, BOOL, SUBLEVEL, SLSET, SUBLEVEL), SLSET),
    # levels and the representation embedder
    Symbol("zeroL", (), LEVEL),
    Symbol("succL", (LEVEL,), LEVEL),
    Symbol("maxL", (LEVEL, LEVEL), LEVEL),
    Symbol("ruleL", (LEVEL, LEVEL), LEVEL),
    Symbol("varL", (NAT,), LEVEL),
    Symbol("maxS", (SLSET,), LEVEL),
    Symbol("ruleHelper", (SUBLEVEL, LEVEL), LEVEL),
    Symbol("ruleSL", (SUBLEVEL, SUBLEVEL), LEVEL),
    Symbol("evalS", (SUBLEVEL, NAT, NAT), LEVEL),
    Symbol("evalL", (LEVEL, NAT, NAT), LEVEL),
]

SIGNATURE: dict[str, Symbol] = {sym.name: sym for sym in _SYMBOLS}


def _pv(names: str) -> list[RTerm]:
    return [pvar(n) for n in names.split()]

TRUE = app("true")
FALSE = app("false")
ZN = app("zeroN")
NILN = app("nilN")
NILSL = app("nilSL")


def _sn(t: RTerm) -> RTerm:
    return app("succN", t)


def _singleton_sl(atom: RTerm) -> RTerm:
    return app("maxS", app("addSL", NILSL, atom))


_BUILT: dict[bool, RuleSet] = {}


def builtin_ruleset(paper_literal: bool = False) -> RuleSet:
    """The full rule set, built once per flag.  The left-hand-side heads are
    the defined symbols; every other symbol is a free constructor."""
    rules = _BUILT.get(paper_literal)
    if rules is None:
        rules = _BUILT[paper_literal] = RuleSet(_emit_rules(paper_literal))
    return rules


def _emit_rules(paper_literal: bool) -> list[RewriteRule]:
    """The rules in emission order (basic tools first, then the sublevel
    orders, the level translation rules, comparison, successor, maximum,
    rule and substitution groups)."""
    b, c, n, m, x, y, s, k = _pv("b c n m x y s k")
    e, f, q, r, u, v, t = _pv("e f q r u v t")

    rules: list[RewriteRule] = []
    add = lambda lhs, rhs: rules.append(RewriteRule(lhs, rhs))

    # booleans
    add(app("and", TRUE, b), b)
    add(app("and", FALSE, b), FALSE)
    add(app("or", TRUE, b), TRUE)
    add(app("or", FALSE, b), b)
    add(app("not", TRUE), FALSE)
    add(app("not", FALSE), TRUE)

    # if-then-else per result sort
    for ite in ("iteL", "iteNS", "iteSLS"):
        add(app(ite, TRUE, u, v), u)
        add(app(ite, FALSE, u, v), v)

    # unary naturals
    add(app("plus", n, ZN), n)
    add(app("plus", n, _sn(m)), _sn(app("plus", n, m)))
    add(app("maxN", ZN, m), m)
    add(app("maxN", _sn(n), ZN), _sn(n))
    add(app("maxN", _sn(n), _sn(m)), _sn(app("maxN", n, m)))
    add(app("leqN", ZN, m), TRUE)
    add(app("leqN", _sn(n), ZN), FALSE)
    add(app("leqN", _sn(n), _sn(m)), app("leqN", n, m))
    add(app("eqN", ZN, ZN), TRUE)
    add(app("eqN", ZN, _sn(m)), FALSE)
    add(app("eqN", _sn(n), ZN), FALSE)
    add(app("eqN", _sn(n), _sn(m)), app("eqN", n, m))
    add(app("ltN", n, ZN), FALSE)
    add(app("ltN", ZN, _sn(m)), TRUE)
    add(app("ltN", _sn(n), _sn(m)), app("ltN", n, m))

    # sorted sets of naturals
    add(app("addN", NILN, x), app("consN", x, NILN))
    add(app("addN", app("consN", y, q), x),
        app("iteNS", app("ltN", x, y),
            app("consN", x, app("consN", y, q)),
            app("iteNS", app("eqN", x, y),
                app("consN", y, q),
                app("consN", y, app("addN", q, x)))))
    add(app("unionN", NILN, f), f)
    add(app("unionN", app("consN", x, q), f), app("addN", app("unionN", q, f), x))
    add(app("memN", x, NILN), FALSE)
    add(app("memN", x, app("consN", y, q)), app("or", app("eqN", x, y), app("memN", x, q)))
    add(app("subsetN", NILN, e), TRUE)
    add(app("subsetN", app("consN", x, q), e),
        app("and", app("memN", x, e), app("subsetN", q, e)))
    add(app("eqSetN", NILN, NILN), TRUE)
    add(app("eqSetN", NILN, app("consN", y, r)), FALSE)
    add(app("eqSetN", app("consN", x, q), NILN), FALSE)
    add(app("eqSetN", app("consN", x, q), app("consN", y, r)),
        app("and", app("eqN", x, y), app("eqSetN", q, r)))
    add(app("ordSetN", NILN, f), TRUE)
    add(app("ordSetN", app("consN", x, q), NILN), FALSE)
    add(app("ordSetN", app("consN", x, q), app("consN", y, r)),
        app("or", app("ltN", x, y), app("and", app("eqN", x, y), app("ordSetN", q, r))))
    add(app("ltSetN", e, f), app("and", app("ordSetN", e, f), app("not", app("eqSetN", e, f))))
    add(app("delN", NILN, y), NILN)
    add(app("delN", app("consN", x, q), y),
        app("iteNS", app("eqN", x, y), q, app("consN", x, app("delN", q, y))))

    # sublevel syntactic equality and the storage total order
    add(app("eqSL", app("A", e, x, s), app("A", f, y, k)),
        app("and", app("eqSetN", e, f), app("and", app("eqN", x, y), app("eqN", s, k))))
    add(app("eqSL", app("A", e, x, s), app("B", f, k)), FALSE)
    add(app("eqSL", app("B", e, s), app("A", f, y, k)), FALSE)
    add(app("eqSL", app("B", e, s), app("B", f, k)),
        app("and", app("eqSetN", e, f), app("eqN", s, k)))
    add(app("ltSL", u, v), app("and", app("ordSL", u, v), app("not", app("eqSL", u, v))))
    add(app("ordSL", app("A", e, x, s), app("B", f, k)), TRUE)
    # the published order omits the B-versus-A case; totality needs it
    add(app("ordSL", app("B", e, s), app("A", f, y, k)), FALSE)
    add(app("ordSL", app("A", e, x, s), app("A", f, y, k)),
        app("or", app("ltSetN", e, f),
            app("and", app("eqSetN", e, f),
                app("or", app("ltN", x, y),
                    app("and", app("eqN", x, y), app("leqN", s, k))))))
    add(app("ordSL", app("B", e, s), app("B", f, k)),
        app("or", app("ltSetN", e, f), app("and", app("eqSetN", e, f), app("leqN", s, k))))

    # sorted sets of sublevels
    add(app("addSL", NILSL, u), app("consSL", u, NILSL))
    add(app("addSL", app("consSL", v, q), u),
        app("iteSLS", app("ltSL", u, v),
            app("consSL", u, app("consSL", v, q)),
            app("iteSLS", app("eqSL", u, v),
                app("consSL", v, q),
                app("consSL", v, app("addSL", q, u)))))

    # zero and variable translation rules
    add(app("zeroL",), app("maxS", NILSL))
    if paper_literal:
        add(app("varL", x), _singleton_sl(app("A", app("addN", NILN, x), ZN, x)))
    else:
        add(app("varL", x), _singleton_sl(app("A", app("addN", NILN, x), x, ZN)))

    # sublevel comparison, one rule per theorem case
    add(app("leqSL", app("A", e, x, s), app("B", f, k)), FALSE)
    add(app("leqSL", app("B", e, s), app("B", f, k)),
        app("and", app("subsetN", f, e), app("leqN", s, k)))
    add(app("leqSL", app("B", e, _sn(s)), app("A", f, y, k)),
        app("and", app("subsetN", f, e), app("leqN", s, k)))
    add(app("leqSL", app("A", e, x, s), app("A", f, y, k)),
        app("and", app("subsetN", f, e), app("and", app("eqN", x, y), app("leqN", s, k))))

    # successor
    add(app("succSL", NILSL), NILSL)
    add(app("succSL", app("consSL", app("B", e, s), q)),
        app("addSL", app("succSL", q), app("B", e, _sn(s))))
    add(app("succSL", app("consSL", app("A", e, x, s), q)),
        app("addSL", app("succSL", q), app("A", e, x, _sn(s))))
    floor = app("B", NILN, _sn(ZN))  # B({}, 1)
    if paper_literal:
        add(app("succL", app("maxS", NILSL)), _singleton_sl(floor))
        add(app("succL", app("maxS", app("consSL", u, q))),
            app("maxS", app("succSL", app("consSL", u, q))))
    else:
        # pointwise shift alone loses the constant floor: an A-atom vanishes
        # where a set variable is 0 while the successor is at least 1 there
        add(app("succL", app("maxS", e)),
            app("maxL", _singleton_sl(floor), app("maxS", app("succSL", e))))

    # maximum: insert the second set's atoms one by one
    add(app("maxL", app("maxS", e), app("maxS", NILSL)), app("maxS", e))
    add(app("maxL", app("maxS", e), app("maxS", app("consSL", u, f))),
        app("maxL", app("maxS", app("maxHelper", e, u)), app("maxS", f)))
    add(app("maxHelper", NILSL, v), app("addSL", NILSL, v))
    if paper_literal:
        # published form: stops scanning after the first dominated atom
        add(app("maxHelper", app("consSL", u, e), v),
            app("iteSLS", app("leqSL", v, u),
                app("addSL", e, u),
                app("iteSLS", app("leqSL", u, v),
                    app("addSL", e, v),
                    app("addSL", app("maxHelper", e, v), u))))
    else:
        # dispatch on both comparisons so the single recursive call sits in
        # each branch once; the inserted atom may dominate several atoms
        add(app("maxHelper", app("consSL", u, e), v),
            app("maxHelperGo", app("leqSL", v, u), app("leqSL", u, v), u, e, v))
        add(app("maxHelperGo", TRUE, b, u, e, v), app("addSL", e, u))
        add(app("maxHelperGo", FALSE, TRUE, u, e, v), app("maxHelper", e, v))
        add(app("maxHelperGo", FALSE, FALSE, u, e, v),
            app("addSL", app("maxHelper", e, v), u))

    # rule (impredicative max): distribute over both atom sets
    add(app("ruleL", app("maxS", NILSL), t), t)
    add(app("ruleL", app("maxS", app("consSL", u, q)), t),
        app("maxL", app("ruleHelper", u, t), app("ruleL", app("maxS", q), t)))
    add(app("ruleHelper", u, app("maxS", NILSL)), app("maxS", NILSL))
    add(app("ruleHelper", u, app("maxS", app("consSL", v, q))),
        app("maxL", app("ruleSL", u, v), app("ruleHelper", u, app("maxS", q))))
    add(app("ruleSL", app("A", e, x, s), app("B", f, k)),
        app("maxL", _singleton_sl(app("A", app("unionN", e, f), x, s)),
            _singleton_sl(app("B", f, k))))
    add(app("ruleSL", app("B", e, s), app("B", f, k)),
        app("maxL", _singleton_sl(app("B", app("unionN", e, f), s)),
            _singleton_sl(app("B", f, k))))
    add(app("ruleSL", app("B", e, s), app("A", f, y, k)),
        app("maxL", _singleton_sl(app("B", app("unionN", e, f), s)),
            _singleton_sl(app("A", f, y, k))))
    add(app("ruleSL", app("A", e, x, s), app("A", f, y, k)),
        app("maxL", _singleton_sl(app("A", app("unionN", e, f), x, s)),
            _singleton_sl(app("A", f, y, k))))

    # substitution of a constant for a variable
    add(app("evalS", app("B", e, s), y, n),
        app("iteL", app("and", app("memN", y, e), app("eqN", n, ZN)),
            app("maxS", NILSL),
            _singleton_sl(app("B", app("delN", e, y), s))))
    if paper_literal:
        # published form drops the remaining guard set on the A-atom
        add(app("evalS", app("A", e, x, s), y, n),
            app("iteL", app("and", app("memN", y, e), app("eqN", n, ZN)),
                app("maxS", NILSL),
                app("iteL", app("eqN", x, y),
                    _singleton_sl(app("B", NILN, app("plus", s, n))),
                    _singleton_sl(app("A", app("delN", e, y), x, s)))))
    else:
        add(app("evalS", app("A", e, x, s), y, n),
            app("iteL", app("and", app("memN", y, e), app("eqN", n, ZN)),
                app("maxS", NILSL),
                app("iteL", app("eqN", x, y),
                    _singleton_sl(app("B", app("delN", e, y), app("plus", s, n))),
                    _singleton_sl(app("A", app("delN", e, y), x, s)))))
    add(app("evalL", app("maxS", NILSL), y, n), app("maxS", NILSL))
    add(app("evalL", app("maxS", app("consSL", u, q)), y, n),
        app("maxL", app("evalS", u, y, n), app("evalL", app("maxS", q), y, n)))

    return rules


def default_rules() -> RuleSet:
    return builtin_ruleset(False)


def rule_dump(rules: RuleSet) -> str:
    """One rule per line, ``lhs --> rhs``."""
    return "\n".join(str(r) for r in rules)
