"""Reference semantics the package's polynomial evaluator is checked against.

`eval_tree` walks an expression tree node by node; the package itself
evaluates expressions only through their canonical polynomials
(`symreg.plan_eval`), so agreement between the two is a real check.
"""

import operator
from collections.abc import Mapping, Sequence

import numpy as np

from sagep.fields import ConfigError
from sagep.symreg import ExprTree

# Each operator of symreg.OP_TABLE as a function of floats and numpy arrays
# alike; broadcasting lets one tree evaluate whole feature columns.
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "neg": operator.neg}


def eval_tree(tree: ExprTree, row: Mapping[str, float],
              pool: Sequence[float] | None = None):
    """Evaluate a tree on one input row (or on whole columns via broadcasting).

    Unknown terminal names raise KeyError; a constant reference without a
    pool raises ConfigError.  Arithmetic itself is never trapped, so
    overflow propagates as inf/nan for the caller to detect.
    """
    sym = tree.node
    if sym.kind == "term":
        try:
            return row[sym.name]
        except KeyError:
            raise KeyError(f"unknown terminal {sym.name!r}") from None
    if sym.kind == "lit":
        return sym.value
    if sym.kind == "const":
        if pool is None:
            raise ConfigError(
                "tree references a constant but no pool was given")
        try:
            return pool[sym.index]
        except IndexError:
            raise ConfigError(
                f"constant index {sym.index} outside pool of "
                f"size {len(pool)}") from None
    fn = OPERATORS[sym.name]
    args = [eval_tree(child, row, pool) for child in tree.children]
    with np.errstate(all="ignore"):
        return fn(*args)
