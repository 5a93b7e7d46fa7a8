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

A candidate's slots are ExprTrees or their canonical polynomials
(symreg.tree_polynomial); training passes the polynomials it already
built.  Closures and targets are evaluated by symreg.plan_eval, the
package's one polynomial evaluator, monomials added in key order, so
objectives depend only on the phenotype keys; a tree-walking oracle in
the tests is the reference semantics they are checked against.

The channel evaluator solves a generation's candidates as one batch: one
damped fixed-point loop on (k, n) profiles, whose rows leave as they exit,
each with the bits of its candidate's solve alone.

Both evaluators bump a module-level call counter; passive replay must leave
that counter untouched, which is how tests prove no expensive call happens
during replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .embedding import FeatureTable
from .fields import ConfigError, check_fields
from .symreg import (DIVERGENCE_SENTINEL, ExprTree,
                     parse_expression, plan_eval, polynomial_plan,
                     polynomials_eval, preorder, tree_polynomial)

__all__ = [
    "EvaluationOutcome",
    "ChannelCase",
    "SymbolicBenchmark",
    "ChannelEvaluator",
    "make_reference",
    "default_channel_case",
    "load_channel_case",
    "expensive_call_count",
]


_expensive_calls = 0


def _note_expensive_call(n: int = 1) -> None:
    global _expensive_calls
    _expensive_calls += n


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


Slot = ExprTree | Mapping[tuple[str, ...], float]


def _polynomial(slot: Slot, pool: Sequence[float] | None) -> Mapping:
    """A slot's canonical polynomial: the slot itself, or its tree's."""
    if not isinstance(slot, ExprTree):
        return slot
    if pool is None and any(sym.kind == "const" for sym in preorder(slot)):
        # Opaque constants "c<i>" would be looked up as feature columns.
        raise ConfigError(
            "tree references a constant but no pool was given")
    return tree_polynomial(slot, pool)


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
            raise ConfigError("benchmark needs at least one target expression")
        self.slot_of_objective = (tuple(range(len(self.targets)))
                                  if slot_of_objective is None
                                  else tuple(slot_of_objective))
        if len(self.slot_of_objective) != len(self.targets):
            raise ConfigError("slot map must align with targets")
        if min(self.slot_of_objective) < 0:
            raise ConfigError("slot_of_objective entries must be >= 0")
        self.n_slots = max(self.slot_of_objective) + 1
        self.n_objectives = len(self.targets)
        try:
            self._target_values = polynomials_eval(
                [_polynomial(t, None) for t in self.targets], table.columns)
        except KeyError as exc:
            raise ConfigError(
                f"targets name columns the table lacks: {exc}") from None
        if not np.all(np.isfinite(self._target_values)):
            raise ConfigError("target expressions must be finite on the table")

    @property
    def terminals(self) -> tuple[str, ...]:
        return self.table.names

    def baseline_table(self) -> FeatureTable:
        return self.table

    def evaluate(self, slots: Sequence[Slot],
                 pool: Sequence[float] | None = None) -> EvaluationOutcome:
        if len(slots) != self.n_slots:
            raise ValueError(f"expected {self.n_slots} slots, got {len(slots)}")
        _note_expensive_call()
        values = polynomials_eval([_polynomial(s, pool) for s in slots],
                                  self.table.columns)
        with np.errstate(all="ignore"):
            errors = values[list(self.slot_of_objective)] - self._target_values
            objectives = np.sqrt(np.mean(errors ** 2, axis=1))
        if not np.all(np.isfinite(objectives)):
            return _sentinel_outcome(self.n_objectives)
        return EvaluationOutcome(objectives=objectives, converged=True)

    def evaluate_batch(self, slots_list: Sequence[Sequence[Slot]],
                       pool: Sequence[float] | None = None
                       ) -> list[EvaluationOutcome]:
        """evaluate of each candidate in turn: at about 0.1 ms a call there
        is no loop overhead to share."""
        return [self.evaluate(slots, pool) for slots in slots_list]


# ---------------------------------------------------------------------------
# 1-D coupled channel


@dataclass(frozen=True)
class ChannelCase:
    """Definition of the toy wall-bounded coupled flow problem.

    truth_exprs holds the hidden generating expressions, either (g, alpha)
    or (g, r, alpha) when an artificial production slot is trained too.
    reference profiles are produced by make_reference from the truth; given
    by hand, both come together, one finite number per cell, and the truth
    must still solve.
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
        check_fields(self)
        if self.n_cells < 8:
            raise ConfigError("n_cells must be >= 8")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if not 0 < self.damping <= 1:
            raise ConfigError("damping must lie in (0, 1]")
        if self.omega <= 0:
            raise ConfigError("omega must be positive")
        if len(self.truth_exprs) not in (2, 3):
            raise ConfigError(
                "truth_exprs must be (g, alpha) or (g, r, alpha)")
        if (self.reference_u is None) != (self.reference_t is None):
            raise ConfigError(
                "reference_u and reference_t come together or not at all")
        for ref in (self.reference_u, self.reference_t):
            if ref is not None and len(ref) != self.n_cells:
                raise ConfigError("reference profiles must match n_cells")

    def grid(self) -> tuple[np.ndarray, float]:
        y = np.linspace(0.0, 1.0, self.n_cells)
        return y, y[1] - y[0]

    def nut_profile(self) -> np.ndarray:
        y, _ = self.grid()
        return self.nut_max * 4.0 * y * (1.0 - y)


def _tridiag_solve(diff_face: np.ndarray, source: np.ndarray,
                   walls: tuple[float, float], h: float) -> np.ndarray:
    """Solve d/dy(D du/dy) = -source with Dirichlet walls, one system per
    row of diff_face (k, n-1) and source (k, n); a 1-D pair is one row.

    diff_face holds face diffusivities D_{i+1/2}; interior equations use
    conservative second-order differences, each row solved by LAPACK
    dgtsv, the routine scipy's solve_banded calls for one band each side.
    Returns a (k, n) array.
    """
    diff_face, source = np.atleast_2d(diff_face, source)
    rhs = -source[:, 1:-1] * h * h
    rhs[:, 0] -= diff_face[:, 0] * walls[0]
    rhs[:, -1] -= diff_face[:, -1] * walls[1]
    off = diff_face[:, 1:-1]
    diag = -(diff_face[:, :-1] + diff_face[:, 1:])
    out = np.empty(source.shape)
    out[:, 0], out[:, -1] = walls
    for o, d, b, x in zip(off, diag, rhs, out[:, 1:-1]):
        # dl and du alias one buffer, so neither may be overwritten.
        *_, x[:], info = dgtsv(o, d, o, b)
        if info > 0:
            raise LinAlgError("singular matrix")
    return out


def _gradient(f: np.ndarray, h: float) -> np.ndarray:
    """np.gradient(f, h, axis=-1), as its own slice expressions."""
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
    out[..., 0] = (f[..., 1] - f[..., 0]) / h
    out[..., -1] = (f[..., -1] - f[..., -2]) / h
    return out


_CHANNEL_TERMINALS = ("I1", "J1")


def _channel_factors(case: ChannelCase, u: np.ndarray, T: np.ndarray,
                     h: float) -> np.ndarray:
    """The closure inputs I1 and J1 on the profiles u and T, then ones (the
    factor a polynomial plan pads with), stacked along a new first axis."""
    out = np.ones((len(_CHANNEL_TERMINALS) + 1, *u.shape))
    out[0] = (_gradient(u, h) / case.omega) ** 2
    out[1] = _gradient(T, h) ** 2
    return out


def _closure_slots(polys: Sequence[Mapping]) -> tuple:
    """(g, r, alpha) from (g, alpha) or (g, r, alpha); no r is zero, {}."""
    return (polys[0], {}, polys[1]) if len(polys) == 2 else tuple(polys)


Profiles = tuple[np.ndarray, np.ndarray, int, bool]


def _solve_batch(case: ChannelCase, closures: Sequence[tuple],
                 tol: float) -> list[Profiles]:
    """Damped fixed-point iteration on the coupled system, for a batch of
    (g, r, alpha) closure polynomials at once on (k, n) profiles.

    Returns (u, T, iterations, converged) per closure.  Each row's result
    has the bits of its solve alone: all work is elementwise or an exact
    per-row reduction, and each row's tridiagonal systems are solved on
    their own.  A row leaves the batch, holding a copy of its iterate, at
    the first check it fails: a non-finite or non-positive diffusivity,
    then a non-finite solve (both keep the previous iterate), then a
    non-finite residual; or when it converges.  converged False covers
    every divergence and running out of iterations.
    """
    _, h = case.grid()
    k, n = len(closures), case.n_cells
    nut = case.nut_profile()
    plans = [polynomial_plan([closure[s] for closure in closures],
                             _CHANNEL_TERMINALS) for s in range(3)]
    rows = np.arange(k)  # batch index of each active row
    u = np.tile(np.linspace(case.wall_u[0], case.wall_u[1], n), (k, 1))
    T = np.tile(np.linspace(case.wall_t[0], case.wall_t[1], n), (k, 1))
    theta = case.damping
    out: list = [None] * k

    # Any value a closure drives non-finite is divergence, caught below.
    with np.errstate(all="ignore"):
        for iteration in range(1, case.max_iters + 1):
            if not len(rows):
                break
            factors = _channel_factors(case, u, T, h)
            g_val, r_val, a_val = (plan_eval(plan, factors)
                                   for plan in plans)
            del factors
            diff_u = case.nu + g_val * nut
            diff_t = case.alpha_base + a_val * nut
            del g_val, a_val
            usable = (np.isfinite(diff_u).all(1) & np.isfinite(diff_t).all(1)
                      & (diff_u.min(1) > 0.0) & (diff_t.min(1) > 0.0))
            face_u = 0.5 * (diff_u[:, :-1] + diff_u[:, 1:])
            face_t = 0.5 * (diff_t[:, :-1] + diff_t[:, 1:])
            del diff_u, diff_t
            if not usable.all():
                # These rows leave with their previous iterate; a unit
                # system keeps dgtsv from meeting a zero pivot on them.
                face_u[~usable] = face_t[~usable] = 1.0
            source_u = case.coupling * T + case.forcing + r_val * nut
            u_new = _tridiag_solve(face_u, source_u, case.wall_u, h)
            t_new = _tridiag_solve(face_t, np.zeros((len(rows), n)),
                                   case.wall_t, h)
            del face_u, face_t, source_u, r_val
            solved = (usable & np.isfinite(u_new).all(1)
                      & np.isfinite(t_new).all(1))
            u_next = (1.0 - theta) * u + theta * u_new
            t_next = (1.0 - theta) * T + theta * t_new
            del u_new, t_new
            res_u = np.abs(u_next - u).max(1)
            res_t = np.abs(t_next - T).max(1)
            # max(res_u, res_t) as Python's max picks it.
            residual = np.where(res_t > res_u, res_t, res_u)
            leave = ~solved | ~np.isfinite(residual) | (residual < tol)
            if leave.any():
                for i in np.flatnonzero(leave):
                    u_i, t_i = ((u_next[i], t_next[i]) if solved[i]
                                else (u[i], T[i]))
                    out[rows[i]] = (u_i.copy(), t_i.copy(), iteration,
                                    bool(solved[i] and residual[i] < tol))
                stay = ~leave
                rows, u_next, t_next = rows[stay], u_next[stay], t_next[stay]
                plans = [(c[stay], f[stay]) for c, f in plans]
            u, T = u_next, t_next
    for i, row in enumerate(rows):
        out[row] = (u[i].copy(), T[i].copy(), case.max_iters, False)
    return out


def _normalized_rms(profile: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.sqrt(np.mean(reference ** 2)))
    err = float(np.sqrt(np.mean((profile - reference) ** 2)))
    return err / scale if scale > 0 else err


def make_reference(case: ChannelCase) -> ChannelCase:
    """The case with its reference profiles: those given, or else the
    solve of its truth expressions at a tenth of the evaluation tolerance.
    The truth is parsed and solved either way, so a truth that does not
    parse, names an unknown feature or diverges is a ConfigError."""
    truth = [tree_polynomial(parse_expression(t)) for t in case.truth_exprs]
    try:
        u, T, _, ok = _solve_batch(case, [_closure_slots(truth)],
                                   case.tol / 10.0)[0]
    except KeyError as exc:
        raise ConfigError(
            f"truth expressions name unknown features: {exc}") from None
    if not ok:
        raise ConfigError("truth expressions diverge on this case")
    if case.reference_u is not None:
        return case
    return replace(case, reference_u=u, reference_t=T)


def default_channel_case() -> ChannelCase:
    return make_reference(ChannelCase())


def load_channel_case(source: str | Path | dict) -> ChannelCase:
    """Build a case from a JSON file or an already-parsed mapping.

    The truth block maps slot names to expression strings: {"g": ...,
    "alpha": ...} with an optional "r".  The truth is checked by
    `make_reference`, whose profiles fill in when the case gives none.
    Every other key names a ChannelCase field.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"cannot load channel case {source}: {exc}") from None
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("channel case must be a JSON object, got "
                          f"{type(raw).__name__}")
    kwargs = dict(raw)
    truth = kwargs.pop("truth", None)
    unknown = (set(kwargs) - {f.name for f in fields(ChannelCase)}
               - {"truth_exprs"})
    if unknown:
        raise ConfigError(f"unknown channel case fields {sorted(unknown)}")
    if truth is not None and not isinstance(truth, dict):
        raise ConfigError(f"truth must be an object, got {truth!r}")
    try:
        if truth is not None:
            order = ("g", "r", "alpha") if "r" in truth else ("g", "alpha")
            unknown = set(truth) - set(order)
            if unknown:
                raise ConfigError(f"unknown truth slots {sorted(unknown)}")
            if not {"g", "alpha"} <= set(truth):
                raise ConfigError("truth needs slots g and alpha, got "
                                  f"{sorted(truth)}")
            kwargs["truth_exprs"] = tuple(truth[k] for k in order)
        case = ChannelCase(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid channel case: {exc}") from None
    return make_reference(case)


class ChannelEvaluator:
    """Candidate evaluator backed by the coupled channel solve."""

    def __init__(self, case: ChannelCase):
        if case.reference_u is None:
            case = make_reference(case)
        self.case = case
        self.n_objectives = 2
        self.n_slots = len(case.truth_exprs)
        self.terminals = _CHANNEL_TERMINALS

    def baseline_table(self) -> FeatureTable:
        """Feature columns from the zero-correction (closure-free) solve."""
        u, T, _, ok = _solve_batch(self.case, [({}, {}, {})],
                                   self.case.tol)[0]
        if not ok:
            raise ConfigError("zero-correction baseline solve diverged")
        _, h = self.case.grid()
        return FeatureTable(columns=dict(zip(
            _CHANNEL_TERMINALS, _channel_factors(self.case, u, T, h))))

    def evaluate(self, slots: Sequence[Slot],
                 pool: Sequence[float] | None = None) -> EvaluationOutcome:
        return self.evaluate_batch([slots], pool)[0]

    def evaluate_batch(self, slots_list: Sequence[Sequence[Slot]],
                       pool: Sequence[float] | None = None
                       ) -> list[EvaluationOutcome]:
        """Solve a generation's candidates as one batch; outcome i is
        evaluate(slots_list[i], pool), bit for bit.

        Objectives are (normalized RMS of u vs reference, same for T); any
        divergence mechanism yields the sentinel pair with converged False.
        """
        for slots in slots_list:
            if len(slots) != self.n_slots:
                raise ValueError(
                    f"expected {self.n_slots} slots, got {len(slots)}")
        closures = [_closure_slots([_polynomial(s, pool) for s in slots])
                    for slots in slots_list]
        _note_expensive_call(len(slots_list))
        ref_u, ref_t = (np.asarray(self.case.reference_u),
                        np.asarray(self.case.reference_t))
        outcomes = []
        for u, T, iterations, ok in _solve_batch(self.case, closures,
                                                 self.case.tol):
            if ok:
                objectives = np.array([_normalized_rms(u, ref_u),
                                       _normalized_rms(T, ref_t)])
                ok = np.all(np.isfinite(objectives))
            outcomes.append(
                EvaluationOutcome(objectives=objectives, converged=True,
                                  iterations=iterations)
                if ok else _sentinel_outcome(2, iterations))
        return outcomes
