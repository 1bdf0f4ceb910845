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
    Repr, ReprInvariantError, eq_repr, eval_repr, imax_repr, leq_repr, max_repr,
    repr_var, subst_repr, succ_repr,
)
from .parser import NameTable, ParseError, parse_level
from .printer import print_level, print_repr, print_repr_json

__version__ = "0.1.0"


def _late_names(namespace: dict, late: dict[str, str]):
    """Give the module whose globals are `namespace` the names of `late`, each
    imported on first access from the module `late` maps it to (relative to
    the module's package) and then bound in the module, so that importing the
    module does not import theirs; `dir` lists them from the start.  Returns
    the module: a call through it runs a binding patched on it."""
    import sys

    def __getattr__(name: str):
        if name not in late:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from importlib import import_module
        value = namespace[name] = getattr(import_module(late[name], namespace["__package__"]), name)
        return value

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = lambda: sorted({*namespace, *late})
    return sys.modules[namespace["__name__"]]
