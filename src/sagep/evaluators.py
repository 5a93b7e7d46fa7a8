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

    def evaluate_batch(self, trees_list: Sequence[Sequence[ExprTree]],
                       pool: ConstantsPool) -> list[EvaluationOutcome]:
        """evaluate of each candidate in turn: at about 0.1 ms a call there
        is no loop overhead to share."""
        return [self.evaluate(trees, pool) for trees in trees_list]


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
    factor a closure plan pads with), stacked along a new first axis."""
    out = np.ones((len(_CHANNEL_TERMINALS) + 1, *u.shape))
    out[0] = (_gradient(u, h) / case.omega) ** 2
    out[1] = _gradient(T, h) ** 2
    return out


def _closure_plan(polys: Sequence[dict]) -> tuple[np.ndarray, np.ndarray]:
    """One slot's polynomials of a batch as (coefficients (k, m), factor
    indices into _channel_factors (k, m, d)).

    Row i lists its monomials in key order, each as its coefficient, then
    its variables in key order.  Missing terms pad with coefficient 0.0 and
    missing factors with ones.  Both pads are exact: x * 1.0 == x, and a
    sum that starts at +0.0 never becomes -0.0, so adding 0.0 changes no
    bit.  _plan_eval therefore gives each row polynomial_eval's bits.
    """
    monos = [sorted(poly) for poly in polys]
    m = max(map(len, monos), default=0)
    d = max((len(mono) for row in monos for mono in row), default=0)
    row_of = {name: i for i, name in enumerate(_CHANNEL_TERMINALS)}
    coefficients = np.zeros((len(polys), m))
    factors = np.full((len(polys), m, d), len(row_of))
    for i, (poly, row) in enumerate(zip(polys, monos)):
        for j, mono in enumerate(row):
            coefficients[i, j] = poly[mono]
            factors[i, j, :len(mono)] = [row_of[var] for var in mono]
    return coefficients, factors


def _plan_eval(plan: tuple[np.ndarray, np.ndarray],
               factors: np.ndarray) -> np.ndarray:
    """Each row's closure on its own row of the stacked factors (f, k, n):
    the monomials added in key order from +0.0, as polynomial_eval does."""
    coefficients, index = plan
    rows = np.arange(len(coefficients))
    total = np.zeros(factors.shape[1:])
    for j in range(coefficients.shape[1]):
        term = coefficients[:, j, None]
        for v in range(index.shape[2]):
            term = term * factors[index[:, j, v], rows]
        total = total + term
    return total


def _closure_slots(trees: Sequence) -> tuple:
    """(g, r, alpha) from (g, alpha) or (g, r, alpha); no r means None."""
    return (trees[0], None, trees[1]) if len(trees) == 2 else tuple(trees)


Profiles = tuple[np.ndarray, np.ndarray, int, bool]


def _solve_batch(case: ChannelCase, closures: Sequence[tuple],
                 pool: ConstantsPool | None, tol: float) -> list[Profiles]:
    """Damped fixed-point iteration on the coupled system, for a batch of
    (g, r, alpha) closures at once on (k, n) profiles.

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
    plans = [_closure_plan([_polynomial(closure[s], pool)
                            for closure in closures]) for s in range(3)]
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
            g_val, r_val, a_val = (_plan_eval(plan, factors)
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


def _solve_profiles(case: ChannelCase, g_expr: ExprTree | None,
                    r_expr: ExprTree | None, alpha_expr: ExprTree | None,
                    pool: ConstantsPool | None, tol: float) -> Profiles:
    """_solve_batch of one closure."""
    return _solve_batch(case, [(g_expr, r_expr, alpha_expr)], pool, tol)[0]


def _normalized_rms(profile: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.sqrt(np.mean(reference ** 2)))
    err = float(np.sqrt(np.mean((profile - reference) ** 2)))
    return err / scale if scale > 0 else err


def _channel_outcomes(case: ChannelCase, closures: Sequence[tuple],
                      pool: ConstantsPool | None) -> list[EvaluationOutcome]:
    """Run the coupled solve for a batch of (g, r, alpha) closures.

    Objectives are (normalized RMS of u vs reference, same for T); any
    divergence mechanism yields the sentinel pair with converged False.
    """
    if case.reference_u is None or case.reference_t is None:
        raise SetupError("case has no reference profiles; run make_reference")
    ref_u, ref_t = np.asarray(case.reference_u), np.asarray(case.reference_t)
    outcomes = []
    for u, T, iterations, ok in _solve_batch(case, closures, pool, case.tol):
        if ok:
            objectives = np.array([_normalized_rms(u, ref_u),
                                   _normalized_rms(T, ref_t)])
            ok = np.all(np.isfinite(objectives))
        outcomes.append(
            EvaluationOutcome(objectives=objectives, converged=True,
                              iterations=iterations)
            if ok else _sentinel_outcome(2, iterations))
    return outcomes


def solve_channel(case: ChannelCase, g_expr: ExprTree | None,
                  r_expr: ExprTree | None, alpha_expr: ExprTree | None,
                  pool: ConstantsPool | None = None) -> EvaluationOutcome:
    """Run the coupled solve for one candidate closure; see
    _channel_outcomes."""
    return _channel_outcomes(case, [(g_expr, r_expr, alpha_expr)], pool)[0]


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
        return FeatureTable(columns=dict(zip(
            _CHANNEL_TERMINALS, _channel_factors(self.case, u, T, h))))

    def evaluate(self, trees: Sequence[ExprTree],
                 pool: ConstantsPool) -> EvaluationOutcome:
        return self.evaluate_batch([trees], pool)[0]

    def evaluate_batch(self, trees_list: Sequence[Sequence[ExprTree]],
                       pool: ConstantsPool) -> list[EvaluationOutcome]:
        """Solve a generation's candidates as one batch; outcome i is
        evaluate(trees_list[i], pool), bit for bit."""
        for trees in trees_list:
            if len(trees) != self.n_slots:
                raise ValueError(
                    f"expected {self.n_slots} slots, got {len(trees)}")
        for _ in trees_list:
            _note_expensive_call()
        return _channel_outcomes(
            self.case, [_closure_slots(trees) for trees in trees_list], pool)
