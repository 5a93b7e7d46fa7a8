"""Reference semantics the package's polynomial evaluator is checked against.

`eval_tree` walks an expression tree node by node; the package itself
evaluates expressions only through their canonical polynomials
(`symreg.plan_eval`), so agreement between the two is a real check.
"""

import operator
from collections.abc import Mapping

import numpy as np

from sagep.symreg import ExprTree

# Each operator of symreg.OP_TABLE as a function of floats and numpy arrays
# alike; broadcasting lets one tree evaluate whole feature columns.
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "neg": operator.neg}


def eval_tree(tree: ExprTree, row: Mapping[str, float]):
    """Evaluate a tree on one input row (or on whole columns via broadcasting).

    Unknown terminal names raise KeyError.  Arithmetic itself is never
    trapped, so overflow propagates as inf/nan for the caller to detect.
    """
    sym = tree.node
    if sym.kind == "term":
        try:
            return row[sym.name]
        except KeyError:
            raise KeyError(f"unknown terminal {sym.name!r}") from None
    if sym.kind == "lit":
        return sym.value
    fn = OPERATORS[sym.name]
    args = [eval_tree(child, row) for child in tree.children]
    with np.errstate(all="ignore"):
        return fn(*args)
