"""First-order rewrite interpreter for the level algebra; the names of the
codec and of the engine resolve on first access, so building the rules loads
neither, and only a reduction loads the engine."""

from .. import _late_names
from .terms import (
    RTerm, RewriteRule, RuleSet, SortError, Symbol, app, check_rule_sorts, fold_term,
    infer_sort, is_pvar, pvar, term_to_str, term_vars,
)
from .rules import SIGNATURE, builtin_ruleset, default_rules, rule_dump

_late_names(globals(), {
    **dict.fromkeys(("confluence_runs", "encode_level", "encode_nat", "encode_repr", "encode_sub",
                     "encode_varset", "soundness_report"), ".codec"),
    **dict.fromkeys(("STRATEGIES", "ReductionReport", "Strategy", "reduce"), ".engine"),
})
