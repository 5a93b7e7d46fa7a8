"""Fixed-length numeric embeddings for candidate expressions.

An expression has no natural coordinates, but the surrogate needs one point
per candidate.  As in the paper, the embedding evaluates each model slot's
canonical polynomial on "the averaged values of the input symbols": once,
on the mean row of a shared baseline feature table, giving one coordinate
per slot.  Because the polynomial (not the raw tree) is evaluated and
polynomial_eval adds its monomials in key order, two genotypes with the
same phenotype key map to bit-identical coordinates.

Normalization statistics are frozen on the first evaluated generation and
reused afterwards so surrogate training inputs stay in one coordinate frame
for the entire run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .symreg import ConstantsPool, ExprTree, polynomial_eval, tree_polynomial

__all__ = [
    "FeatureTable",
    "NormStats",
    "IngestError",
    "ingest_feature_table",
    "write_feature_table",
    "embed",
    "fit_norm_stats",
    "normalize",
]


class IngestError(ValueError):
    """A feature table file is malformed."""


@dataclass(frozen=True)
class FeatureTable:
    """Column-oriented table of input features, one row per sample point."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if not lengths:
            raise IngestError("feature table has no columns")
        if len(set(lengths.values())) != 1:
            raise IngestError(f"ragged feature table: {lengths}")
        if next(iter(lengths.values())) == 0:
            raise IngestError("feature table has no rows")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def mean_row(self) -> dict[str, float]:
        return {name: float(np.mean(col)) for name, col in self.columns.items()}


def ingest_feature_table(path: str | Path) -> FeatureTable:
    """Read a comma-separated table with a header row naming the features.

    Every cell must parse as a finite float; failures are reported with the
    offending row and column so bad exports are easy to locate.
    """
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise IngestError(f"cannot read feature table {path}: {exc}") from None
    if not rows:
        raise IngestError(f"feature table {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise IngestError(f"duplicate column names in {path}: {header}")
    data: list[list[float]] = []
    for row_idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise IngestError(
                f"{path}: row {row_idx} has {len(row)} cells, "
                f"header has {len(header)}")
        parsed = []
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise IngestError(
                    f"{path}: row {row_idx}, column {name!r}: "
                    f"cannot parse {cell.strip()!r} as float") from None
            if not np.isfinite(value):
                raise IngestError(
                    f"{path}: row {row_idx}, column {name!r}: "
                    f"non-finite value {value}")
            parsed.append(value)
        data.append(parsed)
    if not data:
        raise IngestError(f"feature table {path} has a header but no rows")
    array = np.asarray(data, dtype=float)
    columns = {name: array[:, k].copy() for k, name in enumerate(header)}
    return FeatureTable(columns=columns)


def write_feature_table(table: FeatureTable, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        matrix = np.column_stack([table.columns[name] for name in table.names])
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


def embed(trees: Sequence[ExprTree], table: FeatureTable,
          pool: ConstantsPool | None = None) -> np.ndarray:
    """Embed a candidate as one coordinate per model slot: the slot's
    polynomial evaluated on the table's mean row.

    Overflow or invalid arithmetic is not trapped here: non-finite
    coordinates mark the candidate as diverged upstream.
    """
    mean_row = {name: np.asarray([value])
                for name, value in table.mean_row().items()}
    return np.array([polynomial_eval(tree_polynomial(tree, pool), mean_row)[0]
                     for tree in trees], dtype=float)


@dataclass(frozen=True)
class NormStats:
    """Per-dimension location/scale frozen from one reference generation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must share a shape")


# Underflow only rounds a subnormal mean or squared deviation.
@np.errstate(under="ignore")
def fit_norm_stats(points: np.ndarray) -> NormStats:
    """Population z-score statistics (ddof=0) over rows of (n, d) points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points to fit normalization")
    # np.std of an exactly constant column can round to nonzero when the
    # column mean is inexact; such columns must hit the zero-variance path.
    span = pts.max(axis=0) - pts.min(axis=0)
    std = np.where(span == 0.0, 0.0, pts.std(axis=0, ddof=0))
    return NormStats(mean=pts.mean(axis=0), std=std)


def normalize(points: np.ndarray, stats: NormStats) -> np.ndarray:
    """Apply frozen z-scoring; zero-variance dimensions map to 0 exactly."""
    pts = np.asarray(points, dtype=float)
    safe = np.where(stats.std > 0.0, stats.std, 1.0)
    out = (pts - stats.mean) / safe
    return np.where(stats.std > 0.0, out, 0.0)
