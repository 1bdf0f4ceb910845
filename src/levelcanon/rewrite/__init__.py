"""First-order rewrite interpreter for the level algebra."""

from .terms import (
    RTerm, RewriteRule, RuleSet, SortError, Symbol, app, check_rule_sorts, fold_term,
    infer_sort, is_pvar, pvar, term_to_str, term_vars,
)
from .rules import SIGNATURE, builtin_ruleset, default_rules, rule_dump
from .engine import STRATEGIES, ReductionReport, Strategy, reduce
from .codec import (
    confluence_runs, encode_level, encode_nat, encode_repr, encode_sub, encode_varset,
    soundness_report,
)
