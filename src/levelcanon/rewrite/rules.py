"""Signature and rule set of the level rewrite system, read from one text.

The system normalizes an encoded level to ``maxS`` of a sorted set of
sublevel atoms, using only first-order, left-linear rules over booleans,
unary naturals, sorted sets, sublevels and levels.

``RULE_TEXT`` is the system in the syntax that ``levelcanon export`` prints:
``name : s -> ... -> s`` declares a symbol and ``lhs --> rhs`` is a rule,
tried in text order.  A term is a head followed by its arguments, compound
arguments in parentheses; a declared name is a symbol, any other name a
pattern variable.  ``#`` starts a comment; an indented line continues the
line above.  A rule tagged ``[paper]`` is an original published form and
replaces the ``[default]`` rules beside it in ``builtin_ruleset(True)``:

  * the variable rule with the A-atom arguments in the order (set, 0, x),
  * successor as the pointwise shift without the constant B({},1) floor,
  * set insertion (maxHelper) that stops after dropping one dominated atom,
  * substitution (evalS) that collapses the guard set to {} on the
    substituted A-atom.

Each published form disagrees with the sublevel semantics on some valuation
and is retained for discrepancy demonstrations only; the default forms are
the ones the soundness suite cross-checks.
"""

from __future__ import annotations

import re

from .terms import RewriteRule, RTerm, RuleSet, Symbol, pvar

RULE_TEXT = """\
# booleans
true : bool
false : bool
and : bool -> bool -> bool
or : bool -> bool -> bool
not : bool -> bool
# if-then-else, one symbol per result sort that the rules need
iteL : bool -> level -> level -> level
iteNS : bool -> natset -> natset -> natset
iteSLS : bool -> sublevelset -> sublevelset -> sublevelset
# unary naturals
zeroN : nat
succN : nat -> nat
plus : nat -> nat -> nat
maxN : nat -> nat -> nat
leqN : nat -> nat -> bool
eqN : nat -> nat -> bool
ltN : nat -> nat -> bool
# sorted sets of naturals (cons appears only in patterns and normal forms)
nilN : natset
consN : nat -> natset -> natset
addN : natset -> nat -> natset
unionN : natset -> natset -> natset
memN : nat -> natset -> bool
subsetN : natset -> natset -> bool
eqSetN : natset -> natset -> bool
ordSetN : natset -> natset -> bool
ltSetN : natset -> natset -> bool
delN : natset -> nat -> natset
# sublevels and their orders
A : natset -> nat -> nat -> sublevel
B : natset -> nat -> sublevel
ordSL : sublevel -> sublevel -> bool
ltSL : sublevel -> sublevel -> bool
eqSL : sublevel -> sublevel -> bool
leqSL : sublevel -> sublevel -> bool
# sorted sets of sublevels
nilSL : sublevelset
consSL : sublevel -> sublevelset -> sublevelset
addSL : sublevelset -> sublevel -> sublevelset
succSL : sublevelset -> sublevelset
maxHelper : sublevelset -> sublevel -> sublevelset
maxHelperGo : bool -> bool -> sublevel -> sublevelset -> sublevel -> sublevelset
# levels and the representation embedder
zeroL : level
succL : level -> level
maxL : level -> level -> level
ruleL : level -> level -> level
varL : nat -> level
maxS : sublevelset -> level
ruleHelper : sublevel -> level -> level
ruleSL : sublevel -> sublevel -> level
evalS : sublevel -> nat -> nat -> level
evalL : level -> nat -> nat -> level

# booleans
and true b --> b
and false b --> false
or true b --> true
or false b --> b
not true --> false
not false --> true

# if-then-else per result sort
iteL true u v --> u
iteL false u v --> v
iteNS true u v --> u
iteNS false u v --> v
iteSLS true u v --> u
iteSLS false u v --> v

# unary naturals
plus n zeroN --> n
plus n (succN m) --> succN (plus n m)
maxN zeroN m --> m
maxN (succN n) zeroN --> succN n
maxN (succN n) (succN m) --> succN (maxN n m)
leqN zeroN m --> true
leqN (succN n) zeroN --> false
leqN (succN n) (succN m) --> leqN n m
eqN zeroN zeroN --> true
eqN zeroN (succN m) --> false
eqN (succN n) zeroN --> false
eqN (succN n) (succN m) --> eqN n m
ltN n zeroN --> false
ltN zeroN (succN m) --> true
ltN (succN n) (succN m) --> ltN n m

# sorted sets of naturals
addN nilN x --> consN x nilN
addN (consN y q) x --> iteNS (ltN x y) (consN x (consN y q))
    (iteNS (eqN x y) (consN y q) (consN y (addN q x)))
unionN nilN f --> f
unionN (consN x q) f --> addN (unionN q f) x
memN x nilN --> false
memN x (consN y q) --> or (eqN x y) (memN x q)
subsetN nilN e --> true
subsetN (consN x q) e --> and (memN x e) (subsetN q e)
eqSetN nilN nilN --> true
eqSetN nilN (consN y r) --> false
eqSetN (consN x q) nilN --> false
eqSetN (consN x q) (consN y r) --> and (eqN x y) (eqSetN q r)
ordSetN nilN f --> true
ordSetN (consN x q) nilN --> false
ordSetN (consN x q) (consN y r) --> or (ltN x y) (and (eqN x y) (ordSetN q r))
ltSetN e f --> and (ordSetN e f) (not (eqSetN e f))
delN nilN y --> nilN
delN (consN x q) y --> iteNS (eqN x y) q (consN x (delN q y))

# sublevel syntactic equality and the storage total order
eqSL (A e x s) (A f y k) --> and (eqSetN e f) (and (eqN x y) (eqN s k))
eqSL (A e x s) (B f k) --> false
eqSL (B e s) (A f y k) --> false
eqSL (B e s) (B f k) --> and (eqSetN e f) (eqN s k)
ltSL u v --> and (ordSL u v) (not (eqSL u v))
ordSL (A e x s) (B f k) --> true
# the published order omits the B-versus-A case; totality needs it
ordSL (B e s) (A f y k) --> false
ordSL (A e x s) (A f y k) --> or (ltSetN e f)
    (and (eqSetN e f) (or (ltN x y) (and (eqN x y) (leqN s k))))
ordSL (B e s) (B f k) --> or (ltSetN e f) (and (eqSetN e f) (leqN s k))

# sorted sets of sublevels
addSL nilSL u --> consSL u nilSL
addSL (consSL v q) u --> iteSLS (ltSL u v) (consSL u (consSL v q))
    (iteSLS (eqSL u v) (consSL v q) (consSL v (addSL q u)))

# zero and variable translation rules
zeroL --> maxS nilSL
[default] varL x --> maxS (addSL nilSL (A (addN nilN x) x zeroN))
[paper] varL x --> maxS (addSL nilSL (A (addN nilN x) zeroN x))

# sublevel comparison, one rule per theorem case
leqSL (A e x s) (B f k) --> false
leqSL (B e s) (B f k) --> and (subsetN f e) (leqN s k)
leqSL (B e (succN s)) (A f y k) --> and (subsetN f e) (leqN s k)
leqSL (A e x s) (A f y k) --> and (subsetN f e) (and (eqN x y) (leqN s k))

# successor; B nilN (succN zeroN) is the constant floor B({}, 1)
succSL nilSL --> nilSL
succSL (consSL (B e s) q) --> addSL (succSL q) (B e (succN s))
succSL (consSL (A e x s) q) --> addSL (succSL q) (A e x (succN s))
# pointwise shift alone loses the constant floor: an A-atom vanishes
# where a set variable is 0 while the successor is at least 1 there
[default] succL (maxS e) --> maxL (maxS (addSL nilSL (B nilN (succN zeroN))))
    (maxS (succSL e))
[paper] succL (maxS nilSL) --> maxS (addSL nilSL (B nilN (succN zeroN)))
[paper] succL (maxS (consSL u q)) --> maxS (succSL (consSL u q))

# maximum: insert the second set's atoms one by one
maxL (maxS e) (maxS nilSL) --> maxS e
maxL (maxS e) (maxS (consSL u f)) --> maxL (maxS (maxHelper e u)) (maxS f)
maxHelper nilSL v --> addSL nilSL v
# dispatch on both comparisons so the single recursive call sits in
# each branch once; the inserted atom may dominate several atoms
[default] maxHelper (consSL u e) v --> maxHelperGo (leqSL v u) (leqSL u v) u e v
[default] maxHelperGo true b u e v --> addSL e u
[default] maxHelperGo false true u e v --> maxHelper e v
[default] maxHelperGo false false u e v --> addSL (maxHelper e v) u
# published form: stops scanning after the first dominated atom
[paper] maxHelper (consSL u e) v --> iteSLS (leqSL v u) (addSL e u)
    (iteSLS (leqSL u v) (addSL e v) (addSL (maxHelper e v) u))

# rule (impredicative max): distribute over both atom sets
ruleL (maxS nilSL) t --> t
ruleL (maxS (consSL u q)) t --> maxL (ruleHelper u t) (ruleL (maxS q) t)
ruleHelper u (maxS nilSL) --> maxS nilSL
ruleHelper u (maxS (consSL v q)) --> maxL (ruleSL u v) (ruleHelper u (maxS q))
ruleSL (A e x s) (B f k) --> maxL (maxS (addSL nilSL (A (unionN e f) x s)))
    (maxS (addSL nilSL (B f k)))
ruleSL (B e s) (B f k) --> maxL (maxS (addSL nilSL (B (unionN e f) s)))
    (maxS (addSL nilSL (B f k)))
ruleSL (B e s) (A f y k) --> maxL (maxS (addSL nilSL (B (unionN e f) s)))
    (maxS (addSL nilSL (A f y k)))
ruleSL (A e x s) (A f y k) --> maxL (maxS (addSL nilSL (A (unionN e f) x s)))
    (maxS (addSL nilSL (A f y k)))

# substitution of a constant for a variable
evalS (B e s) y n --> iteL (and (memN y e) (eqN n zeroN)) (maxS nilSL)
    (maxS (addSL nilSL (B (delN e y) s)))
[default] evalS (A e x s) y n --> iteL (and (memN y e) (eqN n zeroN)) (maxS nilSL)
    (iteL (eqN x y) (maxS (addSL nilSL (B (delN e y) (plus s n))))
        (maxS (addSL nilSL (A (delN e y) x s))))
# published form drops the remaining guard set on the A-atom
[paper] evalS (A e x s) y n --> iteL (and (memN y e) (eqN n zeroN)) (maxS nilSL)
    (iteL (eqN x y) (maxS (addSL nilSL (B nilN (plus s n))))
        (maxS (addSL nilSL (A (delN e y) x s))))
evalL (maxS nilSL) y n --> maxS nilSL
evalL (maxS (consSL u q)) y n --> maxL (evalS u y n) (evalL (maxS q) y n)
"""

_TOKEN = re.compile(r"[()]|[^\s()]+")


def _logical_lines(text: str, paper_literal: bool) -> list[str]:
    """The non-blank lines of `text` without comments, each joined with the
    indented lines under it, and without the lines tagged for the other flag."""
    other = "default" if paper_literal else "paper"
    text = re.sub(r"\n[ \t]+", " ", re.sub(r"#.*", "", text))
    text = re.sub(rf"(?m)^\[{other}\] .*|^\[\w+\] ", "", text)
    return [line for line in map(str.strip, text.splitlines()) if line]


def read_rules(text: str, paper_literal: bool = False,
               ) -> tuple[dict[str, Symbol], list[RewriteRule]]:
    """The symbols that `text` declares, by name in declaration order, and its
    rules in text order (with the published forms if `paper_literal`)."""
    signature: dict[str, Symbol] = {}
    rules: list[RewriteRule] = []
    for line in _logical_lines(text, paper_literal):
        lhs, arrow, rhs = line.partition(" --> ")
        if arrow:
            rules.append(RewriteRule(_read_term(lhs, signature), _read_term(rhs, signature)))
        else:
            name, colon, sorts = line.partition(" : ")
            if not colon:
                raise ValueError(f"neither a declaration nor a rule: {line!r}")
            *args, result = sorts.split(" -> ")
            signature[name] = Symbol(name, tuple(args), result)
    return signature, rules


def _read_term(text: str, signature: dict[str, Symbol]) -> RTerm:
    # the side is read as one parenthesized group: one open list per
    # unclosed parenthesis, and a closed list is a head (a nullary
    # application or a variable) followed by its arguments
    stack: list[list[RTerm]] = [[]]
    for tok in _TOKEN.findall(f"({text})"):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            head, *args = stack.pop()
            stack[-1].append(head + tuple(args))
        else:
            stack[-1].append((tok,) if tok in signature else pvar(tok))
    (term,), = stack
    return term


# the declaration lines, which `export` prints as they stand
DECLARATIONS: list[str] = [line for line in _logical_lines(RULE_TEXT, False)
                           if " --> " not in line]
SIGNATURE: dict[str, Symbol] = read_rules("\n".join(DECLARATIONS))[0]

_BUILT: dict[bool, RuleSet] = {}


def builtin_ruleset(paper_literal: bool = False) -> RuleSet:
    """The rules of `RULE_TEXT`, read once per flag.  The left-hand-side heads
    are the defined symbols; every other symbol is a free constructor."""
    rules = _BUILT.get(paper_literal)
    if rules is None:
        rules = _BUILT[paper_literal] = RuleSet(read_rules(RULE_TEXT, paper_literal)[1])
    return rules


def default_rules() -> RuleSet:
    return builtin_ruleset(False)


def rule_dump(rules: RuleSet) -> str:
    """One rule per line, ``lhs --> rhs``."""
    return "\n".join(str(r) for r in rules)
