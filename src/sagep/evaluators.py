"""Expensive-evaluation oracles and the scalar feature library.

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

The feature library computes the scalar invariants used as expression
terminals: I1, I2 from normalized strain/rotation tensors, J1..J5 from
temperature gradients contracted with raw tensors, and the wall-proximity
features N1, N2 (N3 is accepted as an input column, never computed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import solve_banded

from .embedding import FeatureTable, ingest_feature_table
from .symreg import (DIVERGENCE_SENTINEL, ConfigurationError, ConstantsPool,
                     ExprTree, parse_expression, polynomial_eval, preorder,
                     tree_polynomial)

__all__ = [
    "EvaluationOutcome",
    "ChannelCase",
    "InvariantFields",
    "SetupError",
    "DomainError",
    "compute_invariants",
    "read_invariant_fields",
    "INVARIANT_COLUMNS",
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


class DomainError(ValueError):
    """Input fields violate the physical domain requirements."""


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
# Invariant feature library


@dataclass(frozen=True)
class InvariantFields:
    """Raw per-point tensor fields the scalar features are built from.

    S is the strain-rate tensor (symmetric), W the rotation-rate tensor
    (antisymmetric), both with shape (n, 3, 3).  grad_t is the temperature
    gradient (n, 3); omega, k, nu, nut, y are flat arrays of the specific
    dissipation rate, turbulence kinetic energy, molecular and turbulent
    viscosities, and wall distance.
    """

    S: np.ndarray
    W: np.ndarray
    grad_t: np.ndarray
    omega: np.ndarray
    k: np.ndarray
    nu: np.ndarray
    nut: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        n = self.omega.shape[0]
        if self.S.shape != (n, 3, 3) or self.W.shape != (n, 3, 3):
            raise DomainError("S and W must have shape (n, 3, 3)")
        if self.grad_t.shape != (n, 3):
            raise DomainError("grad_t must have shape (n, 3)")
        for name in ("k", "nu", "nut", "y"):
            if getattr(self, name).shape != (n,):
                raise DomainError(f"{name} must be a flat array of length {n}")
        if np.any(self.omega <= 0):
            raise DomainError("omega must be positive at every point")
        if np.max(np.abs(self.S - np.transpose(self.S, (0, 2, 1)))) > 1e-12:
            raise DomainError("S must be symmetric to 1e-12")
        if np.max(np.abs(self.W + np.transpose(self.W, (0, 2, 1)))) > 1e-12:
            raise DomainError("W must be antisymmetric to 1e-12")


def compute_invariants(fields: InvariantFields,
                       n3: np.ndarray | None = None) -> FeatureTable:
    """Scalar features per sample point.

    I1, I2 contract the omega-normalized deviatoric strain and rotation
    tensors with themselves; J1..J5 contract the temperature gradient with
    the raw tensors; N1 is the wall-distance Reynolds number clamped at 2,
    N2 the viscosity ratio.  N3 (shear-layer blending) must be supplied
    externally when wanted.
    """
    S, W, g = fields.S, fields.W, fields.grad_t
    omega = fields.omega
    trace = np.trace(S, axis1=1, axis2=2)
    S_dev = S - trace[:, None, None] / 3.0 * np.eye(3)
    s = S_dev / omega[:, None, None]
    w = W / omega[:, None, None]

    columns: dict[str, np.ndarray] = {}
    columns["I1"] = np.einsum("pmn,pnm->p", s, s)
    columns["I2"] = np.einsum("pmn,pnm->p", w, w)
    columns["J1"] = np.einsum("pi,pi->p", g, g)
    columns["J2"] = np.einsum("pi,pij,pj->p", g, S, g)
    columns["J3"] = np.einsum("pi,pij,pjk,pk->p", g, S, S, g)
    columns["J4"] = np.einsum("pi,pij,pjk,pk->p", g, W, W, g)
    columns["J5"] = np.einsum("pi,pij,pjk,pk->p", g, W, S, g)
    columns["N1"] = np.minimum(np.sqrt(fields.k) * fields.y / (50.0 * fields.nu), 2.0)
    columns["N2"] = fields.nut / (fields.nut + fields.nu)
    if n3 is not None:
        n3 = np.asarray(n3, dtype=float)
        if n3.shape != fields.omega.shape:
            raise DomainError("N3 column must align with the sample points")
        columns["N3"] = n3
    return FeatureTable(columns=columns)


# Fixed ingest column order: the symmetric strain components, the three
# independent rotation components, the temperature gradient, then scalars.
INVARIANT_COLUMNS = ("S11", "S12", "S13", "S22", "S23", "S33",
                     "W12", "W13", "W23",
                     "TX", "TY", "TZ",
                     "OMEGA", "K", "NU", "NUT", "Y")


def read_invariant_fields(path: str | Path) -> InvariantFields:
    """Read raw fields from a comma-separated file with the documented fixed
    column order (see INVARIANT_COLUMNS).

    The file is read as a feature table (ingest_feature_table: every cell a
    finite float, else IngestError); a header other than INVARIANT_COLUMNS
    raises DomainError.
    """
    table = ingest_feature_table(path)
    if table.names != INVARIANT_COLUMNS:
        raise DomainError(
            f"{path}: expected columns {INVARIANT_COLUMNS}, got {table.names}")
    data = np.column_stack([table.columns[name] for name in table.names])
    n = table.n_rows
    s6 = data[:, 0:6]
    S = np.zeros((n, 3, 3))
    S[:, 0, 0], S[:, 0, 1], S[:, 0, 2] = s6[:, 0], s6[:, 1], s6[:, 2]
    S[:, 1, 1], S[:, 1, 2], S[:, 2, 2] = s6[:, 3], s6[:, 4], s6[:, 5]
    S[:, 1, 0], S[:, 2, 0], S[:, 2, 1] = s6[:, 1], s6[:, 2], s6[:, 4]
    w3 = data[:, 6:9]
    W = np.zeros((n, 3, 3))
    W[:, 0, 1], W[:, 0, 2], W[:, 1, 2] = w3[:, 0], w3[:, 1], w3[:, 2]
    W[:, 1, 0], W[:, 2, 0], W[:, 2, 1] = -w3[:, 0], -w3[:, 1], -w3[:, 2]
    return InvariantFields(S=S, W=W, grad_t=data[:, 9:12],
                           omega=data[:, 12], k=data[:, 13],
                           nu=data[:, 14], nut=data[:, 15], y=data[:, 16])


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
    equations use conservative second-order differences.
    """
    n = len(source)
    lower = diff_face[:-1]
    upper = diff_face[1:]
    main = -(diff_face[:-1] + diff_face[1:])
    rhs = -source[1:-1] * h * h
    rhs[0] -= lower[0] * walls[0]
    rhs[-1] -= upper[-1] * walls[1]
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = main
    ab[2, :-1] = lower[1:]
    inner = solve_banded((1, 1), ab, rhs)
    return np.concatenate([[walls[0]], inner, [walls[1]]])


_CHANNEL_TERMINALS = ("I1", "J1")


def _channel_features(case: ChannelCase, u: np.ndarray, T: np.ndarray,
                      h: float) -> dict[str, np.ndarray]:
    """The closure inputs I1 and J1 on the profiles u and T."""
    du = np.gradient(u, h)
    dT = np.gradient(T, h)
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

    for iteration in range(1, case.max_iters + 1):
        columns = _channel_features(case, u, T, h)
        g_val, r_val, a_val = (polynomial_eval(poly, columns) for poly in polys)
        with np.errstate(all="ignore"):
            diff_u = case.nu + g_val * nut
            diff_t = case.alpha_base + a_val * nut
        if (not np.all(np.isfinite(diff_u)) or not np.all(np.isfinite(diff_t))
                or np.min(diff_u) <= 0.0 or np.min(diff_t) <= 0.0):
            return u, T, iteration, False
        face_u = 0.5 * (diff_u[:-1] + diff_u[1:])
        face_t = 0.5 * (diff_t[:-1] + diff_t[1:])
        source_u = case.coupling * T + case.forcing + r_val * nut
        with np.errstate(all="ignore"):
            u_new = _tridiag_solve(face_u, source_u, case.wall_u, h)
            t_new = _tridiag_solve(face_t, np.zeros(n), case.wall_t, h)
        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(t_new))):
            return u, T, iteration, False
        u_next = (1.0 - theta) * u + theta * u_new
        t_next = (1.0 - theta) * T + theta * t_new
        residual = max(float(np.max(np.abs(u_next - u))),
                       float(np.max(np.abs(t_next - T))))
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
