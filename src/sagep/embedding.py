"""Fixed-length numeric embeddings for candidate expressions.

An expression has no natural coordinates, but the surrogate needs one point
per candidate.  As in the paper, the embedding evaluates each model slot's
canonical polynomial on "the averaged values of the input symbols": once,
on the mean row of a shared baseline feature table, giving one coordinate
per slot.  A generation is embedded in one call, one polynomial plan per
slot.  Because the polynomial (not the raw tree) is evaluated and
symreg.plan_eval adds its monomials in key order, two genotypes with the
same phenotype key map to bit-identical coordinates.

Normalization statistics are frozen on the first evaluated generation and
reused afterwards so surrogate training inputs stay in one coordinate frame
for the entire run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fields import ConfigError
from .symreg import polynomials_eval

__all__ = [
    "FeatureTable",
    "NormStats",
    "ingest_feature_table",
    "write_feature_table",
    "embed",
    "fit_norm_stats",
    "normalize",
]


@dataclass(frozen=True)
class FeatureTable:
    """Column-oriented table of input features, one row per sample point."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if not lengths:
            raise ConfigError("feature table has no columns")
        if len(set(lengths.values())) != 1:
            raise ConfigError(f"ragged feature table: {lengths}")
        if next(iter(lengths.values())) == 0:
            raise ConfigError("feature table has no rows")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @cached_property
    def _mean_columns(self) -> dict[str, np.ndarray]:
        # Once per table: nothing mutates the columns after construction.
        return {name: np.asarray([float(np.mean(col))])
                for name, col in self.columns.items()}


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
        raise ConfigError(f"cannot read feature table {path}: {exc}") from None
    if not rows:
        raise ConfigError(f"feature table {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise ConfigError(f"duplicate column names in {path}: {header}")
    data: list[list[float]] = []
    for row_idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ConfigError(
                f"{path}: row {row_idx} has {len(row)} cells, "
                f"header has {len(header)}")
        parsed = []
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise ConfigError(
                    f"{path}: row {row_idx}, column {name!r}: "
                    f"cannot parse {cell.strip()!r} as float") from None
            if not np.isfinite(value):
                raise ConfigError(
                    f"{path}: row {row_idx}, column {name!r}: "
                    f"non-finite value {value}")
            parsed.append(value)
        data.append(parsed)
    if not data:
        raise ConfigError(f"feature table {path} has a header but no rows")
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


def embed(polynomials: Sequence[Sequence[Mapping[tuple[str, ...], float]]],
          table: FeatureTable) -> np.ndarray:
    """Embed candidates, given as their slots' polynomials
    (`symreg.tree_polynomial`), as a (k, slots) array: each slot's
    polynomial evaluated on the table's mean row.

    Overflow or invalid arithmetic is not trapped here: non-finite
    coordinates mark the candidate as diverged upstream.
    """
    mean_row = table._mean_columns
    return np.stack([polynomials_eval(slot, mean_row)[:, 0]
                     for slot in zip(*polynomials)], axis=1)


@dataclass(frozen=True)
class NormStats:
    """Per-dimension location/scale frozen from one reference generation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must share a shape")


# Underflow only rounds a subnormal mean or squared deviation; overflow is
# handled column by column below.
@np.errstate(under="ignore", over="ignore")
def fit_norm_stats(points: np.ndarray) -> NormStats:
    """Population z-score statistics (ddof=0) over rows of (n, d) points;
    every column of finite points gets a finite mean and std."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points to fit normalization")
    mean, std = pts.mean(axis=0), pts.std(axis=0, ddof=0)
    # A column whose plain statistics overflow is fitted in units of its
    # largest magnitude; every other column keeps the plain bits.
    wide = ~(np.isfinite(mean) & np.isfinite(std))
    if wide.any():
        scale = np.abs(pts[:, wide]).max(axis=0)
        unit = pts[:, wide] / scale
        mean[wide] = unit.mean(axis=0) * scale
        std[wide] = unit.std(axis=0, ddof=0) * scale
    # np.std of an exactly constant column can round to nonzero when the
    # column mean is inexact; such columns must hit the zero-variance path.
    std[pts.max(axis=0) == pts.min(axis=0)] = 0.0
    return NormStats(mean=mean, std=std)


def normalize(points: np.ndarray, stats: NormStats) -> np.ndarray:
    """Apply frozen z-scoring; zero-variance dimensions map to 0 exactly."""
    pts = np.asarray(points, dtype=float)
    safe = np.where(stats.std > 0.0, stats.std, 1.0)
    out = (pts - stats.mean) / safe
    return np.where(stats.std > 0.0, out, 0.0)
