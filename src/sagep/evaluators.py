"""Expensive-evaluation oracles.

Two evaluator families stand in for a CFD solver at desk scale:

* an analytic symbolic benchmark that scores candidate expressions by RMS
  distance to hidden target expressions over a sample table, and
* a 1-D coupled momentum/temperature channel: two diffusion equations on a
  wall-bounded line, linked by a buoyancy-like coupling term, whose
  closure coefficients are the candidate expressions themselves.  The
  candidate re-enters the solve nonlinearly because its inputs (I1, J1)
  are rebuilt from the current iterate, which is exactly the feedback that
  makes bad closures diverge.

Closures and targets are evaluated as canonical polynomials, monomials
added in key order, so objectives depend only on the phenotype keys;
symreg.eval_tree is the reference semantics the tests check against.

Both evaluators bump a module-level call counter; passive replay must leave
that counter untouched, which is how tests prove no expensive call happens
during replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .embedding import FeatureTable
from .symreg import (DIVERGENCE_SENTINEL, ConfigurationError, ConstantsPool,
                     ExprTree, parse_expression, polynomial_eval, preorder,
                     tree_polynomial)

__all__ = [
    "EvaluationOutcome",
    "ChannelCase",
    "SetupError",
    "SymbolicBenchmark",
    "ChannelEvaluator",
    "solve_channel",
    "make_reference",
    "default_channel_case",
    "load_channel_case",
    "expensive_call_count",
]


class SetupError(RuntimeError):
    """An evaluator cannot be constructed from the given case."""


_expensive_calls = 0


def _note_expensive_call() -> None:
    global _expensive_calls
    _expensive_calls += 1


def expensive_call_count() -> int:
    """Total candidate evaluations performed by any evaluator this process."""
    return _expensive_calls


@dataclass(frozen=True)
class EvaluationOutcome:
    """Result of one expensive candidate evaluation."""

    objectives: np.ndarray
    converged: bool
    iterations: int = 0

    def __post_init__(self):
        objs = np.asarray(self.objectives, dtype=float)
        if not self.converged and not np.all(objs == DIVERGENCE_SENTINEL):
            raise ValueError(
                "diverged outcomes must carry the sentinel in every objective")


def _polynomial(tree: ExprTree | None, pool: ConstantsPool | None) -> dict:
    """A slot's canonical polynomial; a missing slot (None) is zero."""
    if tree is None:
        return {}
    if pool is None and any(sym.kind == "const" for sym in preorder(tree)):
        # Opaque constants "c<i>" would be looked up as feature columns.
        raise ConfigurationError(
            "tree references a constant but no pool was given")
    return tree_polynomial(tree, pool)


def _unknown_terminals(trees: Sequence[ExprTree],
                       names: Sequence[str]) -> list[str]:
    """Terminal names the trees use that are not among names."""
    return sorted({sym.name for tree in trees for sym in preorder(tree)
                   if sym.kind == "term"} - set(names))


def _sentinel_outcome(p: int, iterations: int = 0) -> EvaluationOutcome:
    return EvaluationOutcome(objectives=np.full(p, DIVERGENCE_SENTINEL),
                             converged=False, iterations=iterations)


# ---------------------------------------------------------------------------
# Analytic symbolic benchmark


class SymbolicBenchmark:
    """Scores candidates against hidden target expressions on a fixed table.

    Objective j is the RMS of (candidate slot value - target j value) over
    the table rows, with the slot chosen by slot_of_objective (identity by
    default).  Any non-finite candidate value trips the divergence sentinel.
    """

    def __init__(self, table: FeatureTable, targets: Sequence[str | ExprTree],
                 slot_of_objective: Sequence[int] | None = None):
        self.table = table
        self.targets = tuple(parse_expression(t) if isinstance(t, str) else t
                             for t in targets)
        if not self.targets:
            raise SetupError("benchmark needs at least one target expression")
        self.slot_of_objective = (tuple(range(len(self.targets)))
                                  if slot_of_objective is None
                                  else tuple(slot_of_objective))
        if len(self.slot_of_objective) != len(self.targets):
            raise SetupError("slot map must align with targets")
        if min(self.slot_of_objective) < 0:
            raise SetupError("slot_of_objective entries must be >= 0")
        unknown = _unknown_terminals(self.targets, table.names)
        if unknown:
            raise SetupError(f"targets name columns the table lacks: {unknown}")
        self.n_slots = max(self.slot_of_objective) + 1
        self.n_objectives = len(self.targets)
        self._target_values = [
            polynomial_eval(_polynomial(t, None), table.columns)
            for t in self.targets]
        if not all(np.all(np.isfinite(v)) for v in self._target_values):
            raise SetupError("target expressions must be finite on the table")

    @property
    def terminals(self) -> tuple[str, ...]:
        return self.table.names

    def baseline_table(self) -> FeatureTable:
        return self.table

    def evaluate(self, trees: Sequence[ExprTree],
                 pool: ConstantsPool) -> EvaluationOutcome:
        if len(trees) != self.n_slots:
            raise ValueError(f"expected {self.n_slots} slots, got {len(trees)}")
        _note_expensive_call()
        polys = [_polynomial(tree, pool) for tree in trees]
        objectives = np.empty(self.n_objectives)
        for j, target in enumerate(self._target_values):
            values = polynomial_eval(polys[self.slot_of_objective[j]],
                                     self.table.columns)
            with np.errstate(all="ignore"):
                objectives[j] = float(np.sqrt(np.mean((values - target) ** 2)))
        if not np.all(np.isfinite(objectives)):
            return _sentinel_outcome(self.n_objectives)
        return EvaluationOutcome(objectives=objectives, converged=True)


# ---------------------------------------------------------------------------
# 1-D coupled channel


@dataclass(frozen=True)
class ChannelCase:
    """Definition of the toy wall-bounded coupled flow problem.

    truth_exprs holds the hidden generating expressions, either (g, alpha)
    or (g, r, alpha) when an artificial production slot is trained too.
    reference profiles are produced by make_reference from the truth.
    """

    n_cells: int = 64
    wall_u: tuple[float, float] = (0.0, 0.0)
    wall_t: tuple[float, float] = (0.5, -0.5)
    forcing: float = 0.0
    coupling: float = 12.0
    nu: float = 1.0
    alpha_base: float = 2.0
    nut_max: float = 0.2
    omega: float = 1.0
    tol: float = 1e-8
    max_iters: int = 500
    damping: float = 0.7
    truth_exprs: tuple[str, ...] = ("-0.1 - I1", "0.945 - 2.108*J1")
    reference_u: np.ndarray | None = None
    reference_t: np.ndarray | None = None

    def __post_init__(self):
        for name in ("n_cells", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SetupError(f"invalid channel case: {name} must be an "
                                 f"integer, got {value!r}")
        if self.n_cells < 8:
            raise SetupError("n_cells must be >= 8")
        if self.tol <= 0:
            raise SetupError("tol must be positive")
        if not 0 < self.damping <= 1:
            raise SetupError("damping must lie in (0, 1]")
        if self.omega <= 0:
            raise SetupError("omega must be positive")
        if len(self.truth_exprs) not in (2, 3):
            raise SetupError("truth_exprs must be (g, alpha) or (g, r, alpha)")
        for ref in (self.reference_u, self.reference_t):
            if ref is not None and len(ref) != self.n_cells:
                raise SetupError("reference profiles must match n_cells")

    @property
    def slot_names(self) -> tuple[str, ...]:
        return ("g", "alpha") if len(self.truth_exprs) == 2 else ("g", "r", "alpha")

    def grid(self) -> tuple[np.ndarray, float]:
        y = np.linspace(0.0, 1.0, self.n_cells)
        return y, y[1] - y[0]

    def nut_profile(self) -> np.ndarray:
        y, _ = self.grid()
        return self.nut_max * 4.0 * y * (1.0 - y)


def _tridiag_solve(diff_face: np.ndarray, source: np.ndarray,
                   walls: tuple[float, float], h: float) -> np.ndarray:
    """Solve d/dy(D du/dy) = -source with Dirichlet walls.

    diff_face holds face diffusivities D_{i+1/2} (length n-1); interior
    equations use conservative second-order differences, solved by LAPACK
    dgtsv, the routine scipy's solve_banded calls for one band each side.
    """
    rhs = -source[1:-1] * h * h
    rhs[0] -= diff_face[0] * walls[0]
    rhs[-1] -= diff_face[-1] * walls[1]
    off = diff_face[1:-1]
    # dl and du alias one buffer, so neither may be overwritten.
    *_, inner, info = dgtsv(off, -(diff_face[:-1] + diff_face[1:]), off, rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    out = np.empty(len(source))
    out[0], out[1:-1], out[-1] = walls[0], inner, walls[1]
    return out


def _gradient(f: np.ndarray, h: float) -> np.ndarray:
    """np.gradient(f, h) of a 1-D profile, as its own slice expressions."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (f[1] - f[0]) / h
    out[-1] = (f[-1] - f[-2]) / h
    return out


_CHANNEL_TERMINALS = ("I1", "J1")


def _channel_features(case: ChannelCase, u: np.ndarray, T: np.ndarray,
                      h: float) -> dict[str, np.ndarray]:
    """The closure inputs I1 and J1 on the profiles u and T."""
    du, dT = _gradient(u, h), _gradient(T, h)
    return dict(zip(_CHANNEL_TERMINALS, ((du / case.omega) ** 2, dT ** 2)))


def _closure_slots(trees: Sequence) -> tuple:
    """(g, r, alpha) from (g, alpha) or (g, r, alpha); no r means None."""
    return (trees[0], None, trees[1]) if len(trees) == 2 else tuple(trees)


def _solve_profiles(case: ChannelCase, g_expr: ExprTree | None,
                    r_expr: ExprTree | None, alpha_expr: ExprTree | None,
                    pool: ConstantsPool | None, tol: float,
                    ) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Damped fixed-point iteration on the coupled system.

    Returns (u, T, iterations, converged); converged False covers both
    non-positive effective diffusivity and running out of iterations.
    """
    y, h = case.grid()
    n = case.n_cells
    nut = case.nut_profile()
    polys = [_polynomial(tree, pool) for tree in (g_expr, r_expr, alpha_expr)]

    u = np.linspace(case.wall_u[0], case.wall_u[1], n)
    T = np.linspace(case.wall_t[0], case.wall_t[1], n)
    theta = case.damping

    # Any value a closure drives non-finite is divergence, caught below.
    with np.errstate(all="ignore"):
        for iteration in range(1, case.max_iters + 1):
            columns = _channel_features(case, u, T, h)
            g_val, r_val, a_val = (polynomial_eval(poly, columns)
                                   for poly in polys)
            diff_u = case.nu + g_val * nut
            diff_t = case.alpha_base + a_val * nut
            if not (np.isfinite(diff_u).all() and np.isfinite(diff_t).all()
                    and diff_u.min() > 0.0 and diff_t.min() > 0.0):
                return u, T, iteration, False
            face_u = 0.5 * (diff_u[:-1] + diff_u[1:])
            face_t = 0.5 * (diff_t[:-1] + diff_t[1:])
            source_u = case.coupling * T + case.forcing + r_val * nut
            u_new = _tridiag_solve(face_u, source_u, case.wall_u, h)
            t_new = _tridiag_solve(face_t, np.zeros(n), case.wall_t, h)
            if not (np.isfinite(u_new).all() and np.isfinite(t_new).all()):
                return u, T, iteration, False
            u_next = (1.0 - theta) * u + theta * u_new
            t_next = (1.0 - theta) * T + theta * t_new
            residual = max(float(np.abs(u_next - u).max()),
                           float(np.abs(t_next - T).max()))
            u, T = u_next, t_next
            if not np.isfinite(residual):
                return u, T, iteration, False
            if residual < tol:
                return u, T, iteration, True
    return u, T, case.max_iters, False


def _normalized_rms(profile: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.sqrt(np.mean(reference ** 2)))
    err = float(np.sqrt(np.mean((profile - reference) ** 2)))
    return err / scale if scale > 0 else err


def solve_channel(case: ChannelCase, g_expr: ExprTree | None,
                  r_expr: ExprTree | None, alpha_expr: ExprTree | None,
                  pool: ConstantsPool | None = None) -> EvaluationOutcome:
    """Run the coupled solve for one candidate closure.

    Objectives are (normalized RMS of u vs reference, same for T); any
    divergence mechanism yields the sentinel pair with converged False.
    """
    if case.reference_u is None or case.reference_t is None:
        raise SetupError("case has no reference profiles; run make_reference")
    u, T, iterations, ok = _solve_profiles(case, g_expr, r_expr, alpha_expr,
                                           pool, case.tol)
    if not ok:
        return _sentinel_outcome(2, iterations)
    objectives = np.array([_normalized_rms(u, np.asarray(case.reference_u)),
                           _normalized_rms(T, np.asarray(case.reference_t))])
    if not np.all(np.isfinite(objectives)):
        return _sentinel_outcome(2, iterations)
    return EvaluationOutcome(objectives=objectives, converged=True,
                             iterations=iterations)


def make_reference(case: ChannelCase,
                   pool: ConstantsPool | None = None) -> ChannelCase:
    """Generate reference profiles by solving the case with its truth
    expressions at a tenth of the evaluation tolerance."""
    truth = [parse_expression(t) for t in case.truth_exprs]
    unknown = _unknown_terminals(truth, _CHANNEL_TERMINALS)
    if unknown:
        raise SetupError(f"truth expressions name unknown features {unknown}")
    g_t, r_t, a_t = _closure_slots(truth)
    u, T, _, ok = _solve_profiles(case, g_t, r_t, a_t, pool, case.tol / 10.0)
    if not ok:
        raise SetupError("truth expressions diverge on this case")
    return replace(case, reference_u=u, reference_t=T)


def default_channel_case() -> ChannelCase:
    return make_reference(ChannelCase())


def load_channel_case(source: str | Path | dict) -> ChannelCase:
    """Build a case from a JSON file or an already-parsed mapping.

    The truth block maps slot names to expression strings: {"g": ...,
    "alpha": ...} with an optional "r".  Reference profiles are regenerated
    from the truth unless explicitly included.  Every other key names a
    ChannelCase field.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SetupError(f"cannot load channel case {source}: {exc}") from None
    else:
        raw = dict(source)
    truth = raw.pop("truth", None)
    unknown = set(raw) - {f.name for f in fields(ChannelCase)} - {"truth_exprs"}
    if unknown:
        raise SetupError(f"unknown channel case fields {sorted(unknown)}")
    kwargs = dict(raw)
    try:
        if truth is not None:
            order = ("g", "r", "alpha") if "r" in truth else ("g", "alpha")
            unknown = set(truth) - set(order)
            if unknown:
                raise SetupError(f"unknown truth slots {sorted(unknown)}")
            kwargs["truth_exprs"] = tuple(str(truth[k]) for k in order)
        for name in ("wall_u", "wall_t"):
            if name in raw:
                kwargs[name] = tuple(float(v) for v in raw[name])
        for name in ("reference_u", "reference_t"):
            if raw.get(name) is not None:
                kwargs[name] = np.asarray(raw[name], dtype=float)
        case = ChannelCase(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SetupError(f"invalid channel case: {exc}") from None
    if case.reference_u is None or case.reference_t is None:
        case = make_reference(case)
    return case


class ChannelEvaluator:
    """Candidate evaluator backed by the coupled channel solve."""

    def __init__(self, case: ChannelCase):
        if case.reference_u is None or case.reference_t is None:
            case = make_reference(case)
        self.case = case
        self.n_objectives = 2
        self.n_slots = len(case.truth_exprs)
        self.terminals = _CHANNEL_TERMINALS

    def baseline_table(self) -> FeatureTable:
        """Feature columns from the zero-correction (closure-free) solve."""
        u, T, _, ok = _solve_profiles(self.case, None, None, None, None,
                                      self.case.tol)
        if not ok:
            raise SetupError("zero-correction baseline solve diverged")
        _, h = self.case.grid()
        return FeatureTable(columns=_channel_features(self.case, u, T, h))

    def evaluate(self, trees: Sequence[ExprTree],
                 pool: ConstantsPool) -> EvaluationOutcome:
        if len(trees) != self.n_slots:
            raise ValueError(f"expected {self.n_slots} slots, got {len(trees)}")
        _note_expensive_call()
        return solve_channel(self.case, *_closure_slots(trees), pool)
