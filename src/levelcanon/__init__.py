"""Decision procedures for max/imax universe levels.

The package normalizes level expressions into their unique minimal
representation, decides <= and = on levels, and independently executes the
same algebra as a first-order term rewrite system for cross-checking.
"""

from .levels import (
    IMax, Level, Max, Succ, UnboundVariableError, Valuation, Var, VarId, Zero,
    ZERO, const_depth, default_grid_bound, eval_level, find_counterexample_leq,
    fold_level, imax_nat, level_size, level_vars,
)
from .sublevels import (
    SubA, SubB, SubLevel, VarSet, eval_sub, imax_sub, leq_sub, set_delete, succ_sub,
)
from .normalize import (
    Repr, ReprInvariantError, eq_repr, eval_repr, imax_repr, insert_sub,
    leq_repr, max_repr, repr_var, repr_zero, subst_repr, succ_repr,
)
from .parser import NameTable, ParseError, parse_level
from .printer import print_level, print_repr, print_repr_json

__version__ = "0.1.0"


# `export` loads the rewrite engine, so it is imported on first use: a process
# that only decides levels never compiles the engine's modules.
def __getattr__(name: str):
    if name == "export_framework":
        from .export import export_framework
        globals()[name] = export_framework
        return export_framework
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "export_framework"})
