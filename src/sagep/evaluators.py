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
damped fixed-point loop on the u and T profiles of all k candidates,
stacked as (2, k, n), whose rows leave as they exit.  Each iteration
solves both equations of every row with one in-place LAPACK dgtsv call on
one block-diagonal system, in arrays allocated once per batch; checks run
on the whole batch, and row by row only when one fails.  Each row gets
the bits of its candidate's solve alone.  dgtsv is scipy's own wrapper,
loaded by `sagep.lapack` without importing `scipy.linalg`.

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
from numpy.linalg import LinAlgError

from .embedding import FeatureTable
from .fields import ConfigError, check_fields
from .lapack import dgtsv
from .symreg import (DIVERGENCE_SENTINEL, ExprTree, bind_plan,
                     parse_expression, plan_eval, polynomial_plan,
                     polynomials_eval, tree_polynomial)

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


def _polynomial(slot: Slot) -> Mapping:
    """A slot's canonical polynomial: the slot itself, or its tree's."""
    return tree_polynomial(slot) if isinstance(slot, ExprTree) else slot


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
                [_polynomial(t) for t in self.targets], table.columns)
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

    # The second parameter is ignored.  Kept because the benchmark's output
    # check passes it; it goes when the benchmark stops passing it.
    def evaluate(self, slots: Sequence[Slot], _=None) -> EvaluationOutcome:
        if len(slots) != self.n_slots:
            raise ValueError(f"expected {self.n_slots} slots, got {len(slots)}")
        _note_expensive_call()
        values = polynomials_eval([_polynomial(s) for s in slots],
                                  self.table.columns)
        with np.errstate(all="ignore"):
            errors = values[list(self.slot_of_objective)] - self._target_values
            objectives = np.sqrt(np.mean(errors ** 2, axis=1))
        if not np.all(np.isfinite(objectives)):
            return _sentinel_outcome(self.n_objectives)
        return EvaluationOutcome(objectives=objectives, converged=True)

    def evaluate_batch(self, slots_list: Sequence[Sequence[Slot]]
                       ) -> list[EvaluationOutcome]:
        """evaluate of each candidate in turn: at about 0.1 ms a call there
        is no loop overhead to share."""
        return [self.evaluate(slots) for slots in slots_list]


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
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
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
                   walls: np.ndarray, h: float, work: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Solve d/dy(D du/dy) = -source with Dirichlet walls, one system per
    row of diff_face (k, n-1), source (k, n) and walls (k, 2), n >= 4.

    diff_face holds face diffusivities D_{i+1/2}; interior equations use
    conservative second-order differences.  The k systems are joined into
    one, linked by zero off-diagonals, for one call of LAPACK dgtsv (the
    routine scipy's solve_banded calls for one band each side).  Faces are
    > 0, so dgtsv never pivots across a link, and a link adds 0 * x to its
    neighbour, which leaves a nonzero finite value as it was.  0 * x can
    flip the sign of a zero, and 0 * inf is nan, so when the joint solution
    holds a zero or a non-finite value, each row that does is solved again
    alone: every row has the bits of its lone dgtsv call.  A singular
    system raises LinAlgError.  dgtsv works in place in work (4, k, n-2).
    """
    k, n = source.shape
    work = np.empty((4, k, n - 2)) if work is None else work
    out = np.empty(source.shape) if out is None else out
    off, diag, rhs, inner = work[:2], work[2], work[3], out[:, 1:-1]
    np.negative(source[:, 1:-1], out=rhs)
    rhs *= h
    rhs *= h
    # Columns 0 and -1 of rhs (n-2 wide) and of diff_face (n-1 wide).
    rhs[:, ::n - 3] -= diff_face[:, ::n - 2] * walls
    off[..., :-1] = diff_face[:, 1:-1]
    off[..., -1] = 0.0  # to the next row's system
    np.negative(np.add(diff_face[:, :-1], diff_face[:, 1:], out=diag),
                out=diag)
    *_, info = dgtsv(off[0].reshape(-1)[:-1], diag.reshape(-1),
                     off[1].reshape(-1)[:-1], rhs.reshape(-1), 1, 1, 1, 1)
    out[:, ::n - 1] = walls
    inner[:] = rhs
    if k > 1 and (info or not (rhs.all() and np.isfinite(rhs.sum()))):
        exact = (inner != 0.0).all(1) & np.isfinite(inner).all(1)
        for i in range(k) if info else np.flatnonzero(~exact):
            inner[i] = _tridiag_solve(diff_face[i:i + 1], source[i:i + 1],
                                      walls[i:i + 1], h)[0, 1:-1]
    elif info > 0:
        raise LinAlgError("singular matrix")
    return out


def _gradient(f: np.ndarray, h: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """np.gradient(f, h, axis=-1) of a C-contiguous f, as its own slice
    expressions: centred over the flat array, then one-sided at the ends
    (columns 1 and n-1 less columns 0 and n-2)."""
    n, out = f.shape[-1], np.empty_like(f) if out is None else out
    flat, grad, ends = f.reshape(-1), out.reshape(-1), out[..., ::n - 1]
    np.subtract(flat[2:], flat[:-2], out=grad[1:-1])
    grad[1:-1] /= 2.0 * h
    step = max(n - 2, 1)
    np.subtract(f[..., 1::step], f[..., :-1:step], out=ends)
    ends /= h
    return out


_CHANNEL_TERMINALS = ("I1", "J1")


def _channel_factors(case: ChannelCase, state: np.ndarray, h: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The closure inputs I1 and J1 on the stacked profiles (u, T), then
    ones (the factor a polynomial plan pads with), stacked along the first
    axis; out, if given, already holds the ones."""
    if out is None:
        out = np.ones((len(_CHANNEL_TERMINALS) + 1, *state.shape[1:]))
    grad = _gradient(state, h, out[:2])
    if case.omega != 1.0:  # x / 1.0 == x
        grad[0] /= case.omega
    np.square(grad, out=grad)
    return out


def _closure_slots(polys: Sequence[Mapping]) -> tuple:
    """(g, r, alpha) from (g, alpha) or (g, r, alpha); no r is zero, {}."""
    return (polys[0], {}, polys[1]) if len(polys) == 2 else tuple(polys)


Profiles = tuple[np.ndarray, np.ndarray, int, bool]


def _solve_batch(case: ChannelCase, closures: Sequence[tuple],
                 tol: float) -> list[Profiles]:
    """Damped fixed-point iteration on the coupled system, for a batch of
    (g, r, alpha) closure polynomials at once.

    The state stacks u and T of the k active rows as (2, k, n), so one
    gradient, damping update and residual serve both equations; g and
    alpha are one polynomial plan, and one _tridiag_solve call solves both
    equations of every row.  Returns (u, T, iterations, converged) per
    closure, each with the bits of its solve alone: all other work is
    elementwise or an exact per-row reduction.  A row leaves the batch,
    holding a copy of its iterate, at the first check it fails: a
    non-finite or non-positive diffusivity, then a non-finite solve (both
    keep the previous iterate), then a non-finite residual; or when it
    converges.  converged False covers every divergence and running out
    of iterations.  Checks run row by row only when a whole-batch one fails.
    """
    _, h = case.grid()
    k, n = len(closures), case.n_cells
    nut = case.nut_profile()
    base = np.reshape([case.nu, case.alpha_base], (2, 1, 1))
    walls = np.array([case.wall_u, case.wall_t])
    # g then alpha as one plan of two k-row blocks; r alone, {} if absent.
    diff_plan = polynomial_plan([c[0] for c in closures]
                                + [c[2] for c in closures],
                                _CHANNEL_TERMINALS)
    r_plan = polynomial_plan([c[1] for c in closures], _CHANNEL_TERMINALS)
    # No r adds +0.0 to the source, as forcing + 0.0 does.
    has_r = r_plan[0].shape[1] > 0
    forcing = case.forcing if has_r else case.forcing + 0.0
    rows, out = np.arange(k), [None] * k  # batch index of each active row
    # Allocated once, per row: three iterates (state, solve, damped solve),
    # the factors, the faces (column n-1 unused) and the system.
    shapes = ((2, n), (2, n), (2, n), (3, n), (2, n), (8, n - 2))
    stores = [np.empty(a * k * b) for a, b in shapes]
    wall_rows = np.repeat(walls, k, axis=0)  # rows k - j to k + j serve j

    def views(j: int) -> tuple:  # arrays, walls and plans of j rows
        *arrays, system = (store[:a * j * b].reshape(a, j, b)
                           for store, (a, b) in zip(stores, shapes))
        arrays[3][2] = 1.0
        return (*arrays, system.reshape(4, 2 * j, n - 2),
                wall_rows[k - j:k + j], bind_plan(tuple(
                    a[np.concatenate((rows, rows + k))] for a in diff_plan), j),
                has_r and bind_plan(tuple(a[rows] for a in r_plan), j))

    (state, raw, damped, factors, face, system, row_walls, g_alpha,
     r) = views(k)
    state[:] = [np.linspace(*wall, n)[None] for wall in walls]
    # Any value a closure drives non-finite is divergence, caught below.
    with np.errstate(all="ignore"):
        for iteration in range(1, case.max_iters + 1) if k else ():
            _channel_factors(case, state, h, factors)
            source = damped  # until the damped solve overwrites it
            np.multiply(state[1], case.coupling, out=source[0])
            source[0] += forcing
            source[1] = 0.0
            if has_r:
                source[0] += plan_eval(r, factors, raw[0], system) * nut
            diff = raw  # until the solve overwrites it
            plan_eval(g_alpha, factors, diff.reshape(-1, n), system)
            diff *= nut
            diff += base
            # Faces over the flat array: column n-1 spans two rows.
            np.add(diff.reshape(-1)[:-1], diff.reshape(-1)[1:],
                   out=face.reshape(-1)[:-1])
            face *= 0.5
            usable = bool(diff.min() > 0.0 and diff.max() < np.inf)
            if not usable:
                usable = ((diff.min((0, 2)) > 0.0)
                          & (diff.max((0, 2)) < np.inf))
                # These rows leave with their previous iterate; a unit
                # system keeps dgtsv from meeting a zero pivot on them.
                face[:, ~usable] = 1.0
            _tridiag_solve(face.reshape(-1, n)[:, :-1], source.reshape(-1, n),
                           row_walls, h, system, raw.reshape(-1, n))
            change = np.multiply(state, 1.0 - case.damping, out=factors[:2])
            np.add(np.multiply(raw, case.damping, out=damped), change,
                   out=damped)
            # As max(res_u, res_t) in Python, except on an unsolved row's nan.
            residual = np.abs(np.subtract(damped, state, out=change),
                              out=change).max((0, 2))
            if (usable is not True or not tol <= residual.min()
                    or not residual.max() < np.inf):
                solved = usable & np.isfinite(raw).all((0, 2))
                stay = solved & (residual >= tol) & (residual < np.inf)
                # A row that failed a check keeps its previous iterate.
                damped[:, ~solved] = state[:, ~solved]
                for i, u, T, ok in zip(rows[~stay], *damped[:, ~stay], (
                        solved & (residual < tol))[~stay].tolist()):
                    out[i] = (u, T, iteration, ok)
                rows, ends = rows[stay], damped[:, stay]
                if not len(rows):
                    break
                (damped, raw, state, factors, face, system, row_walls,
                 g_alpha, r) = views(len(rows))
                damped[...] = ends  # the state once rotated below
            state, raw, damped = damped, state, raw
    for i, u, T in zip(rows, *state):
        out[i] = (u.copy(), T.copy(), case.max_iters, False)
    return out


def _normalized_rms(profile: np.ndarray, reference: np.ndarray,
                    scale: float) -> float:
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
    unknown = set(kwargs) - {f.name for f in fields(ChannelCase)
                             if f.name != "truth_exprs"}
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
        refs = map(np.asarray, (case.reference_u, case.reference_t))
        self._references = [(r, float(np.sqrt(np.mean(r ** 2)))) for r in refs]

    def baseline_table(self) -> FeatureTable:
        """Feature columns from the zero-correction (closure-free) solve."""
        u, T, _, ok = _solve_batch(self.case, [({}, {}, {})],
                                   self.case.tol)[0]
        if not ok:
            raise ConfigError("zero-correction baseline solve diverged")
        _, h = self.case.grid()
        return FeatureTable(columns=dict(zip(
            _CHANNEL_TERMINALS,
            _channel_factors(self.case, np.stack([u, T]), h))))

    # The second parameter is ignored.  Kept because the benchmark's output
    # check passes it; it goes when the benchmark stops passing it.
    def evaluate(self, slots: Sequence[Slot], _=None) -> EvaluationOutcome:
        return self.evaluate_batch([slots])[0]

    def evaluate_batch(self, slots_list: Sequence[Sequence[Slot]]
                       ) -> list[EvaluationOutcome]:
        """Solve a generation's candidates as one batch; outcome i is
        evaluate(slots_list[i]), bit for bit.

        Objectives are (normalized RMS of u vs reference, same for T); any
        divergence mechanism yields the sentinel pair with converged False.
        """
        for slots in slots_list:
            if len(slots) != self.n_slots:
                raise ValueError(
                    f"expected {self.n_slots} slots, got {len(slots)}")
        closures = [_closure_slots([_polynomial(s) for s in slots])
                    for slots in slots_list]
        _note_expensive_call(len(slots_list))
        outcomes = []
        for u, T, iterations, ok in _solve_batch(self.case, closures,
                                                 self.case.tol):
            if ok:
                objectives = np.array([_normalized_rms(p, *ref) for p, ref
                                       in zip((u, T), self._references)])
                ok = np.all(np.isfinite(objectives))
            outcomes.append(
                EvaluationOutcome(objectives=objectives, converged=True,
                                  iterations=iterations)
                if ok else _sentinel_outcome(2, iterations))
        return outcomes
