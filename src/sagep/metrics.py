"""Efficiency metrics: Pareto fronts, exact hypervolume, run reports.

All objective vectors are minimized.  Hypervolume is computed exactly: a
sweep for two objectives, and for three or more a recursion that slices
along the last objective down to that sweep (one sweep per point for three
objectives).  Two hypervolumes compare only against one fixed reference
point; a run's reference (RunMetrics.reference) is the componentwise max of
the converged true outcomes of its first generation that has any, which a
seed's baseline run, its surrogate run and a replay of its baseline
database all share.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .symreg import dominance_matrix

__all__ = [
    "pareto_front",
    "hypervolume",
    "surrogate_relative_error",
    "RunMetrics",
    "GenerationMetrics",
    "emit_report",
]

def pareto_front(points: np.ndarray) -> np.ndarray:
    """Non-dominated subset of the rows, deduplicated and sorted."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 0)
    pts = np.unique(pts, axis=0)
    return pts[~dominance_matrix(pts).any(axis=0)]


def _hv_2d(points: np.ndarray, ref: np.ndarray) -> float:
    pts = points[np.all(points < ref, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    area = 0.0
    x_ref, prev_y = ref.tolist()  # floats: an underflowing strip never warns
    for x, yv in pts.tolist():
        if yv < prev_y:
            area += (x_ref - x) * (prev_y - yv)
            prev_y = yv
    return float(area)


def _hv_slices(points: np.ndarray, ref: np.ndarray) -> float:
    """Hypervolume for three or more objectives.

    Sorted by the last objective, the points cut the box into slices; the
    slice from point k up to the next point (or the reference) has the
    (p-1)-objective volume of points 0..k as its base.
    """
    pts = points[np.all(points < ref, axis=1)]
    pts = pts[np.argsort(pts[:, -1], kind="stable")]
    tops = np.append(pts[1:, -1], ref[-1])
    below = _hv_2d if pts.shape[1] == 3 else _hv_slices
    total = 0.0
    for k in range(pts.shape[0]):
        depth = tops[k] - pts[k, -1]
        if depth > 0.0:
            total += depth * below(pts[:k + 1, :-1], ref[:-1])
    return float(total)


def hypervolume(points: np.ndarray, ref: np.ndarray) -> float:
    """Exact volume (minimization) dominated by the points up to ref."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(ref, dtype=float).ravel()
    if pts.shape[0] == 0:
        return 0.0
    if pts.shape[1] != ref.shape[0]:
        raise ValueError("points and reference dimension mismatch")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ref))):
        raise ValueError("hypervolume inputs must be finite")
    p = pts.shape[1]
    if p == 1:
        best = float(np.min(pts))
        return max(0.0, float(ref[0]) - best)
    if p == 2:
        # The sweep skips dominated and repeated points by itself.
        return _hv_2d(pts, ref)
    return _hv_slices(pareto_front(pts), ref)


def surrogate_relative_error(pairs: Iterable[tuple[Sequence[float],
                                                   Sequence[float]]]) -> float:
    """Mean relative prediction error |mu - t| / |t| over (truth t,
    prediction mu) pairs, each averaged across objectives; zero-truth
    components are skipped, and so is a pair whose truth is all zero.
    Returns 0.0 when no pair is left (nothing was predicted)."""
    errors: list[float] = []
    for truth, pred in pairs:
        t = np.asarray(truth, dtype=float)
        mu = np.asarray(pred, dtype=float)
        mask = t != 0.0
        if not np.any(mask):
            continue
        errors.append(float(np.mean(np.abs(mu[mask] - t[mask]) / np.abs(t[mask]))))
    return float(np.mean(errors)) if errors else 0.0


@dataclass
class GenerationMetrics:
    """One reporting row of a run."""

    generation: int
    expensive_cumulative: int
    hypervolume: float
    selection_ratio: float
    relative_error: float
    best_objectives: tuple[float, ...]


@dataclass
class RunMetrics:
    """Per-generation metric rows plus run-level summary values; every
    row's hypervolume is measured against `reference` (empty until a
    generation has a converged true outcome)."""

    rows: list[GenerationMetrics] = field(default_factory=list)
    final_relative_error: float = 0.0
    reference: tuple[float, ...] = ()

    def append(self, row: GenerationMetrics) -> None:
        if self.rows and row.expensive_cumulative < self.rows[-1].expensive_cumulative:
            raise ValueError("cumulative expensive count must not decrease")
        self.rows.append(row)

    @property
    def final_hypervolume(self) -> float:
        return self.rows[-1].hypervolume if self.rows else 0.0

    @property
    def final_selection_ratio(self) -> float:
        return self.rows[-1].selection_ratio if self.rows else 0.0

    @property
    def total_expensive(self) -> int:
        return self.rows[-1].expensive_cumulative if self.rows else 0


def emit_report(metrics: RunMetrics, out_dir: str | Path) -> tuple[Path, Path]:
    """Write metrics.csv and summary.txt; byte-identical on re-emission."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"
    p = len(metrics.rows[0].best_objectives) if metrics.rows else 0
    header = (["generation", "expensive_cumulative", "hypervolume",
               "selection_ratio", "relative_error"]
              + [f"best_objective_{k}" for k in range(p)])
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in metrics.rows:
            writer.writerow([row.generation, row.expensive_cumulative,
                             repr(row.hypervolume), repr(row.selection_ratio),
                             repr(row.relative_error)]
                            + [repr(v) for v in row.best_objectives])
    summary_path = out_dir / "summary.txt"
    lines = [
        f"generations: {len(metrics.rows)}",
        f"expensive evaluations: {metrics.total_expensive}",
        f"final hypervolume: {metrics.final_hypervolume!r}",
        f"final selection ratio: {metrics.final_selection_ratio!r}",
        f"final relative error: {metrics.final_relative_error!r}",
        f"reference: {list(metrics.reference)!r}",
    ]
    summary_path.write_text("\n".join(lines) + "\n")
    return csv_path, summary_path
