"""Per-generation choice of which new phenotypes get expensive evaluation.

The orchestrator's generation step offers one candidate per phenotype that
has no outcome yet; in generation 0, before any surrogate exists, and in
runs without one it evaluates every offered candidate.  From generation 1
on, selection ranks the offered candidates:

  gen 1   space-filling warm-up: low-discrepancy points are drawn over the
          bounding box of the evaluated history and each point claims its
          nearest still-unclaimed candidate, spreading the n_init picks
          across embedding space instead of clustering on the incumbent.
  gen 2+  acquisition values (LCB or EI) per objective, discounted by a
          convergence weight that decays near previously diverged
          embeddings, aggregated to one scalar per candidate, then passed
          through the configured thresholds (fixed count, relative value,
          Pareto front membership).

Selection only decides: it returns the chosen ids and every offered
candidate's GP-space posterior means, and writes nothing to the
candidates.  Whether a phenotype already has an outcome is the generation
step's question, and the step writes every outcome.  All tie-breaks go to
the lower candidate id so decisions are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .surrogate import MultiGp, _halton, predict_multi_batch
from .symreg import Candidate, fast_nondominated_sort

__all__ = [
    "SelectionConfig",
    "SelectionDecision",
    "SelectionHistory",
    "SelectionContractError",
    "lcb",
    "ei",
    "convergence_weights",
    "aggregate_multiobjective",
    "apply_thresholds",
    "select_generation",
    "default_selection_config",
]


class SelectionContractError(ValueError):
    """A selection call violates its preconditions."""


@dataclass(frozen=True)
class SelectionConfig:
    """Acquisition metric plus the threshold battery of the selection loop.

    Any of m_fixed / m_rel / m_pareto may be absent (None), but generations
    that rely on thresholding need at least one present.
    """

    metric: str = "lcb"
    beta: float = 5.0
    xi: float = 0.0
    delta: float = 0.75
    n_init: int = 1
    m_init_rel: float | None = None
    m_fixed: int | None = None
    m_rel: float | None = None
    m_pareto: int | None = None

    def __post_init__(self):
        for name in ("n_init", "m_fixed", "m_pareto"):
            value = getattr(self, name)
            integer = (isinstance(value, (int, np.integer))
                       and not isinstance(value, bool))
            if not (integer or value is None and name != "n_init"):
                raise SelectionContractError(
                    f"{name} must be an integer, got {value!r}")
        if self.metric not in ("lcb", "ei"):
            raise SelectionContractError(f"unknown metric {self.metric!r}")
        if self.beta < 0 or self.xi < 0:
            raise SelectionContractError("beta and xi must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise SelectionContractError("delta must lie in (0, 1]")
        if self.n_init < 1:
            raise SelectionContractError("n_init must be >= 1")
        if self.m_init_rel is not None and not 0.0 <= self.m_init_rel <= 1.0:
            raise SelectionContractError("m_init_rel must lie in [0, 1]")
        if self.m_fixed is not None and self.m_fixed < 1:
            raise SelectionContractError("m_fixed must be >= 1")
        if self.m_rel is not None and not 0.0 <= self.m_rel <= 1.0:
            raise SelectionContractError("m_rel must lie in [0, 1]")
        if self.m_pareto is not None and self.m_pareto < 1:
            raise SelectionContractError("m_pareto must be >= 1")

    def has_threshold(self) -> bool:
        return any(v is not None for v in (self.m_fixed, self.m_rel,
                                           self.m_pareto))


def default_selection_config(population_size: int) -> SelectionConfig:
    """Default selection settings; n_init scales to 40% of the population."""
    return SelectionConfig(metric="lcb", beta=5.0, delta=0.75,
                           n_init=max(1, round(0.4 * population_size)),
                           m_init_rel=0.5, m_fixed=1, m_rel=0.25)


@dataclass
class SelectionHistory:
    """Every true outcome the oracle gave so far, one per phenotype: the
    normalized embeddings of the converged and of the diverged ones, the raw
    objectives of the converged ones (row for row), and each phenotype's
    outcome, as (objectives, converged) under its keys; plus the surrogate
    last fitted to them, from which the next fit warm-starts."""

    converged_points: np.ndarray
    converged_objectives: np.ndarray
    diverged_points: np.ndarray
    outcomes: dict
    last_fit: MultiGp | None = None

    @classmethod
    def empty(cls, dim: int, p: int) -> "SelectionHistory":
        return cls(converged_points=np.empty((0, dim)),
                   converged_objectives=np.empty((0, p)),
                   diverged_points=np.empty((0, dim)),
                   outcomes={})

    def add(self, point: np.ndarray, keys: tuple, objectives: np.ndarray,
            converged: bool) -> None:
        self.outcomes[tuple(keys)] = (tuple(float(v) for v in objectives),
                                      bool(converged))
        if converged:
            self.converged_points = np.vstack([self.converged_points, point])
            self.converged_objectives = np.vstack([self.converged_objectives,
                                                   objectives])
        else:
            self.diverged_points = np.vstack([self.diverged_points, point])


@dataclass
class SelectionDecision:
    """Outcome of one generation's selection pass.

    Arrays align with the population order.  `means` holds the surrogate's
    GP-space posterior means, one row per candidate, selected or not.
    """

    selected_ids: list[int]
    values: np.ndarray
    scalar: np.ndarray
    weights: np.ndarray
    front_index: np.ndarray
    means: np.ndarray


def lcb(mean, std, beta: float):
    """Lower-confidence-bound attractiveness: -mu + beta*sigma.

    Larger is more attractive; with beta = 0 this ranks by smallest
    predicted error.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    return -mean + beta * std


def ei(mean, std, f_best, xi: float = 0.0):
    """Expected improvement below f_best with exploration margin xi; f_best
    broadcasts like the means, e.g. one value per objective column.

    For sigma = 0 the integral collapses to max(0, f_best - mu - xi).
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improve = f_best - mean - xi
    # Standard normal cdf and pdf, the expressions behind scipy.stats.norm;
    # a huge |z| overflows z**2 or underflows the exp to a pdf of 0.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        z = np.where(std > 0, improve / np.where(std > 0, std, 1.0), 0.0)
        pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
        spread = improve * ndtr(z) + std * pdf
    return np.where(std > 0, spread, np.maximum(improve, 0.0))


# Underflow in the norms only rounds a subnormal difference's square to 0.
@np.errstate(under="ignore")
def convergence_weights(X: np.ndarray, converged_set: np.ndarray,
                        diverged_set: np.ndarray, delta: float) -> np.ndarray:
    """Discount in [0, 1] per row of X that vanishes on a diverged embedding
    and grows back to 1 at delta times the local converged-diverged
    separation (the distance between the row's nearest converged and
    nearest diverged points).

    With no diverged history there is nothing to avoid and every weight is
    1.  Both sets empty is a contract violation: the weight is only defined
    relative to some history.
    """
    if not 0.0 < delta <= 1.0:
        raise SelectionContractError("delta must lie in (0, 1]")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    converged_set = np.atleast_2d(np.asarray(converged_set, dtype=float))
    diverged_set = np.atleast_2d(np.asarray(diverged_set, dtype=float))
    if converged_set.size == 0 and diverged_set.size == 0:
        raise SelectionContractError(
            "convergence weight needs at least one historical embedding")
    if diverged_set.size == 0:
        return np.ones(X.shape[0])
    d_div = np.linalg.norm(diverged_set[None, :, :] - X[:, None, :], axis=2)
    dist_div = d_div.min(axis=1)
    on_diverged = np.where(dist_div == 0.0, 0.0, 1.0)
    if converged_set.size == 0:
        return on_diverged
    d_conv = np.linalg.norm(converged_set[None, :, :] - X[:, None, :], axis=2)
    gaps = (converged_set[d_conv.argmin(axis=1)]
            - diverged_set[d_div.argmin(axis=1)])
    # A 1-D norm per row: the axis form rounds differently in the last bit.
    denom = delta * np.array([np.linalg.norm(gap) for gap in gaps])
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = np.minimum(1.0, dist_div / denom)
    return np.where(denom == 0.0, on_diverged, ramp)


def aggregate_multiobjective(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse per-objective selection values to one scalar per candidate.

    Each objective column is min-max normalized over the population; the
    scalar is the max over objectives (a candidate attractive on any single
    objective stays attractive).  The second return is the Pareto front
    index of each candidate in selection-value space, maximizing.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(values)):
        raise SelectionContractError("selection values must be finite")
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    normed = np.zeros_like(values)
    nz = span > 0
    # A subnormal quotient is the value, rounded.
    with np.errstate(under="ignore"):
        normed[:, nz] = (values[:, nz] - lo[nz]) / span[nz]
    scalar = normed.max(axis=1)
    fronts = fast_nondominated_sort(-values)
    front_index = np.empty(values.shape[0], dtype=int)
    for rank, front in enumerate(fronts):
        front_index[front] = rank
    return scalar, front_index


def apply_thresholds(scalar: np.ndarray, front_index: np.ndarray,
                     config: SelectionConfig,
                     ids: Sequence[int] | None = None) -> list[int]:
    """Threshold battery over aggregated scalars.

    A candidate passes when it satisfies every present threshold (relative
    value, Pareto front), then the fixed-count cap keeps the top m_fixed by
    scalar with ties broken by lower id.  Returns selected ids in ascending
    order.
    """
    scalar = np.asarray(scalar, dtype=float)
    n = scalar.shape[0]
    ids = list(range(n)) if ids is None else list(ids)
    mask = np.ones(n, dtype=bool)
    if config.m_rel is not None:
        mask &= scalar >= config.m_rel
    if config.m_pareto is not None:
        mask &= np.asarray(front_index) < config.m_pareto
    passing = [i for i in range(n) if mask[i]]
    if config.m_fixed is not None:
        passing.sort(key=lambda i: (-scalar[i], ids[i]))
        passing = passing[:config.m_fixed]
    return sorted(ids[i] for i in passing)


def select_generation(gen_index: int,
                      population: Sequence[Candidate],
                      model: MultiGp | None,
                      history: SelectionHistory,
                      config: SelectionConfig,
                      rng: np.random.Generator) -> SelectionDecision:
    """Decide which offered candidates of generation gen_index >= 1 get an
    expensive evaluation.

    The population is the offered candidates, at least one: one per new
    phenotype, each with a finite normalized embedding.  Nothing is written
    to the candidates.
    """
    if gen_index < 1 or not population:
        raise SelectionContractError(
            "selection ranks a non-empty population from generation 1 on")
    ids = [c.id for c in population]
    if len(set(ids)) != len(ids):
        raise SelectionContractError("population ids must be unique")
    emb = np.array([c.embedding_norm for c in population], dtype=float)
    if not np.all(np.isfinite(emb)):
        raise SelectionContractError("normalized embeddings must be finite")

    if model is None:
        raise SelectionContractError(
            f"generation {gen_index} needs a fitted surrogate")
    if config.has_threshold() is False and gen_index >= 2:
        raise SelectionContractError(
            "generations >= 2 need at least one of m_fixed, m_rel, m_pareto")

    means, variances = predict_multi_batch(model, emb)
    stds = np.sqrt(variances)
    weights = convergence_weights(emb, history.converged_points,
                                  history.diverged_points, config.delta)
    if config.metric == "lcb":
        raw = lcb(means, stds, config.beta)
    else:
        raw = ei(means, stds, model.best_observed(), config.xi)
    values = raw * weights[:, None]
    scalar, front_index = aggregate_multiobjective(values)

    if gen_index == 1:
        selected = _initial_sampling(emb, scalar, ids, history, config, rng)
    else:
        selected = apply_thresholds(scalar, front_index, config, ids=ids)
    return SelectionDecision(selected_ids=selected, values=values,
                             scalar=scalar, weights=weights,
                             front_index=front_index, means=means)


def _initial_sampling(emb: np.ndarray, scalar: np.ndarray,
                      ids: Sequence[int], history: SelectionHistory,
                      config: SelectionConfig,
                      rng: np.random.Generator) -> list[int]:
    """Generation-1 warm-up: Halton points over the history bounding box,
    each claiming its nearest unclaimed candidate."""
    hist = np.vstack([history.converged_points, history.diverged_points])
    if hist.size == 0:
        raise SelectionContractError(
            "initial sampling needs a non-empty history")
    lo = hist.min(axis=0)
    hi = hist.max(axis=0)
    points = lo + (hi - lo) * _halton(emb.shape[1], config.n_init,
                                      int(rng.integers(2 ** 31 - 1)))
    picks: list[int] = []
    remaining = list(range(len(ids)))
    for point in points:
        if not remaining:
            break
        dists = cdist(point[None, :], emb[remaining])[0]
        best_pos = min(range(len(remaining)),
                       key=lambda k: (dists[k], ids[remaining[k]]))
        picks.append(remaining.pop(best_pos))
    if config.m_init_rel is not None:
        picks = [i for i in picks if scalar[i] >= config.m_init_rel]
    return sorted(ids[i] for i in picks)
