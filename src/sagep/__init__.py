"""Surrogate-assisted gene expression programming for expensive
multi-objective model training.

The package couples a linear-genotype symbolic regression engine (symreg)
with a Gaussian-process surrogate (surrogate) over expression embeddings
(embedding).  A per-generation selection policy (selection) decides which
candidates earn a true evaluation against an expensive oracle (evaluators);
the orchestrator runs the loop, persists every outcome, and supports
passive replay of stored runs; metrics provides the Pareto front, the
hypervolume against each run's one reference point, and the run reports.
Every config block, the channel case too, is built from its JSON object
and checks its fields by their declared types (fields).
The LAPACK routines come from scipy's compiled module, loaded without
scipy.linalg (lapack).
"""

from . import (cli, embedding, evaluators, fields, lapack, metrics,
               orchestrator, selection, surrogate, symreg)

__all__ = [
    "cli",
    "embedding",
    "evaluators",
    "fields",
    "lapack",
    "metrics",
    "orchestrator",
    "selection",
    "surrogate",
    "symreg",
]

__version__ = "0.1.0"
