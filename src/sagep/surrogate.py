"""Gaussian-process surrogate over candidate embeddings.

One zero-mean GP per objective, all sharing the same input matrix, with a
Rational Quadratic kernel

    k(x, x') = sigma^2 (1 + ||x - x'||^2 / (2 alpha ell^2))^(-alpha).

Objectives are assumed independent, so the multi-output model is exactly a
block-diagonal joint GP and can be trained and queried one output at a time.
Hyperparameters (sigma, ell, alpha, noise) are fitted by maximizing the log
marginal likelihood over log-parameters with multi-start simplex search; all
solves go through a Cholesky factor of K + sigma_n^2 I, with a small jitter
escalation when near-duplicate inputs make the matrix numerically singular.

The search evaluates the likelihood thousands of times on one data set, so
`fit` validates the data on entry and computes the squared distances once
per fit; each evaluation only builds the kernel from them and calls LAPACK
`potrf` / `potrs` directly, the routines `scipy.linalg.cholesky` and
`cho_solve` call after their finiteness checks, so the bits are the same.
A training run refits on a history that grows by a few rows per
generation, so `fit_multi` can warm-start each objective from the previous
model's optimum and then runs a quarter of the cold starts.

Observation noise is a fitted hyperparameter with a hard floor: the history
of expensive evaluations can contain near-identical embeddings with
slightly different outcomes, and a noiseless kernel matrix goes singular on
those.  Predictive variance is reported for a new observation, i.e. it
includes the noise term, so far from data it recovers sigma^2 + sigma_n^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.optimize import minimize
from scipy.spatial.distance import cdist
from scipy.stats import qmc

__all__ = [
    "NOISE_FLOOR",
    "JITTER_LADDER",
    "FitError",
    "KernelParams",
    "ParamBounds",
    "GpModel",
    "MultiGp",
    "rq_gram",
    "log_marginal_likelihood",
    "build_gp",
    "fit",
    "predict_batch",
    "fit_multi",
    "predict_multi_batch",
]

NOISE_FLOOR = 1e-8

# Extra diagonal jitter tried in order when the Cholesky factorization fails.
JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)


class FitError(RuntimeError):
    """Kernel matrix is not positive definite even after jitter escalation."""


@dataclass(frozen=True)
class KernelParams:
    """RQ kernel hyperparameters plus observation noise variance."""

    sigma: float = 1.0
    ell: float = 1.0
    alpha: float = 1.0
    noise: float = 1e-6

    def __post_init__(self):
        if not (self.sigma > 0 and self.ell > 0 and self.alpha > 0):
            raise ValueError("kernel parameters must be positive")
        if self.noise < NOISE_FLOOR:
            raise ValueError(f"noise variance below floor {NOISE_FLOOR}")

    def as_log_array(self) -> np.ndarray:
        return np.log([self.sigma, self.ell, self.alpha, self.noise])

    @classmethod
    def from_log_array(cls, values: np.ndarray) -> "KernelParams":
        sigma, ell, alpha, noise = np.exp(np.asarray(values, dtype=float))
        return cls(sigma=float(sigma), ell=float(ell), alpha=float(alpha),
                   noise=float(max(noise, NOISE_FLOOR)))


@dataclass(frozen=True)
class ParamBounds:
    """Box bounds for hyperparameter search, in natural units.

    Defaults assume standardized inputs, where unit-order length scales
    dominate.
    """

    sigma: tuple[float, float] = (1e-3, 1e2)
    ell: tuple[float, float] = (1e-2, 1e2)
    alpha: tuple[float, float] = (1e-2, 1e3)
    noise: tuple[float, float] = (NOISE_FLOOR, 1e1)

    def __post_init__(self):
        for name in ("sigma", "ell", "alpha", "noise"):
            lo, hi = getattr(self, name)
            if not (0 < lo < hi):
                raise ValueError(f"invalid bounds for {name}: ({lo}, {hi})")
        if self.noise[0] < NOISE_FLOOR:
            raise ValueError(f"noise lower bound below floor {NOISE_FLOOR}")

    def log_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.log([self.sigma[0], self.ell[0], self.alpha[0], self.noise[0]])
        hi = np.log([self.sigma[1], self.ell[1], self.alpha[1], self.noise[1]])
        return lo, hi


def _sqdist(X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    return cdist(np.atleast_2d(X), np.atleast_2d(X2), metric="sqeuclidean")


def _rq_from_sqdist(sq: np.ndarray, params: KernelParams) -> np.ndarray:
    base = 1.0 + sq / (2.0 * params.alpha * params.ell ** 2)
    # Underflow to zero covariance is the correct distant-pair limit.
    with np.errstate(under="ignore"):
        return params.sigma ** 2 * base ** (-params.alpha)


def rq_gram(X: np.ndarray, X2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Kernel matrix between rows of X and rows of X2."""
    return _rq_from_sqdist(_sqdist(X, X2), params)


def _training_data(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X as a float matrix and y as a float vector, checked to match and be
    finite."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("GP training data must be finite")
    return X, y


def _chol_with_jitter(K: np.ndarray, noise: float) -> tuple[np.ndarray, float]:
    """Lower factor of K + (noise + jitter) I on the first rung that
    factorizes, and its jitter; each rung starts from the unjittered K.

    A non-finite K (reachable only through extreme bounds) fails every rung
    or carries a NaN or inf onto the diagonal of L.  Finite diagonal entries
    are square roots, at most ~1e154, so the trace is finite exactly when
    the diagonal is.
    """
    n = K.shape[0]
    for jitter in JITTER_LADDER:
        A = np.array(K, order="F")
        # ravel of a Fortran-ordered array in Fortran order is a view.
        A.ravel(order="F")[::n + 1] += noise + jitter
        L, info = lapack.dpotrf(A, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            if not math.isfinite(L.trace()):
                raise ValueError("kernel matrix must be finite")
            return L, jitter
    raise FitError(
        f"kernel matrix not positive definite after jitter up to "
        f"{JITTER_LADDER[-1]} (n={n}, noise={noise})")


def _cho_solve(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    return lapack.dpotrs(L, y, lower=1)[0]


def _lml_from_factor(L: np.ndarray, y: np.ndarray) -> float:
    alpha_vec = _cho_solve(L, y)
    n = len(y)
    return float(-0.5 * y @ alpha_vec
                 - np.sum(np.log(np.diag(L)))
                 - 0.5 * n * np.log(2.0 * np.pi))


def log_marginal_likelihood(X: np.ndarray, y: np.ndarray,
                            params: KernelParams,
                            sqdist: np.ndarray | None = None) -> float:
    """Zero-mean Gaussian log evidence of y under the kernel.

    Computed through the Cholesky factor of K + sigma_n^2 I; raises FitError
    if the matrix stays indefinite after the jitter ladder.  A caller that
    passes sqdist, the squared distances between the rows of X, has already
    validated X and y as float arrays; without it, non-finite or mismatched
    data raise ValueError.
    """
    if sqdist is None:
        X, y = _training_data(X, y)
        sqdist = _sqdist(X, X)
    L, _ = _chol_with_jitter(_rq_from_sqdist(sqdist, params), params.noise)
    return _lml_from_factor(L, y)


@dataclass(frozen=True)
class GpModel:
    """A fitted single-output GP: data, hyperparameters, and solve cache."""

    X: np.ndarray
    y: np.ndarray
    params: KernelParams
    L: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    jitter: float = 0.0
    warned: bool = False

    @property
    def n(self) -> int:
        return self.X.shape[0]


def build_gp(X: np.ndarray, y: np.ndarray, params: KernelParams,
             warned: bool = False) -> GpModel:
    """Factorize the training system for fixed hyperparameters."""
    X, y = _training_data(X, y)
    if X.shape[0] == 0:
        raise ValueError("cannot build a GP on zero samples")
    L, jitter = _chol_with_jitter(rq_gram(X, X, params), params.noise)
    weights = _cho_solve(L, y)
    return GpModel(X=X, y=y, params=params, L=L, weights=weights,
                   jitter=jitter, warned=warned)


def fit(X: np.ndarray, y: np.ndarray,
        bounds: ParamBounds | None = None,
        restarts: int = 8,
        rng: np.random.Generator | int | None = None,
        extra_starts: tuple[KernelParams, ...] = ()) -> GpModel:
    """Fit hyperparameters by maximizing log marginal likelihood.

    Multi-start local search: `restarts` scrambled-Halton points in the
    log-bounds box, plus any caller-supplied starting parameters after them
    (a warm start from a previous optimum; the result is then never worse
    than that point up to optimizer tolerance).  The first k points of the
    Halton stream are the same for any `restarts` >= k.  Deterministic for
    a fixed rng seed.  A single sample admits no meaningful evidence
    maximization and yields default parameters; if every restart fails the
    model falls back to defaults with `warned` set.  Non-finite data raise ValueError on
    entry, as does `restarts` below 1.
    """
    X, y = _training_data(X, y)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a GP on zero samples")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if X.shape[0] == 1:
        return build_gp(X, y, KernelParams())
    bounds = bounds or ParamBounds()
    rng = np.random.default_rng(rng)
    lo, hi = bounds.log_box()
    sqdist = _sqdist(X, X)

    # Every evaluation goes through the module attribute, so a wrapper
    # patched onto log_marginal_likelihood (a tracer, a counter) sees it.
    def objective(log_theta: np.ndarray) -> float:
        try:
            params = KernelParams.from_log_array(log_theta)
            return -log_marginal_likelihood(X, y, params, sqdist)
        except (FitError, ValueError, FloatingPointError, OverflowError):
            return 1e25

    sampler = qmc.Halton(d=4, scramble=True,
                         seed=int(rng.integers(2 ** 31 - 1)))
    starts = [lo + (hi - lo) * row for row in sampler.random(restarts)]
    for params in extra_starts:
        starts.append(np.clip(params.as_log_array(), lo, hi))

    best_val = np.inf
    best_theta = None
    nm_bounds = list(zip(lo, hi))
    for theta0 in starts:
        res = minimize(objective, theta0, method="Nelder-Mead",
                       bounds=nm_bounds,
                       options={"maxiter": 200, "fatol": 1e-7, "xatol": 1e-5})
        if np.isfinite(res.fun) and res.fun < best_val and res.fun < 1e24:
            best_val = float(res.fun)
            best_theta = res.x
    if best_theta is None:
        warnings.warn("GP hyperparameter search failed on every restart; "
                      "falling back to default parameters")
        return build_gp(X, y, KernelParams(), warned=True)
    return build_gp(X, y, KernelParams.from_log_array(best_theta))


def predict_batch(model: GpModel, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and observation variance at each query row.

    Variance is for a new noisy observation: sigma^2 + sigma_n^2 minus the
    explained part, clamped at zero against roundoff.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    K_star = rq_gram(model.X, Xq, model.params)
    mean = K_star.T @ model.weights
    v = solve_triangular(model.L, K_star, lower=True)
    prior = model.params.sigma ** 2 + model.params.noise + model.jitter
    var = prior - np.einsum("ij,ij->j", v, v)
    return mean, np.maximum(var, 0.0)


@dataclass(frozen=True)
class MultiGp:
    """Independent per-objective GPs sharing one input matrix."""

    models: tuple[GpModel, ...]

    def __post_init__(self):
        if not self.models:
            raise ValueError("MultiGp needs at least one sub-model")
        first = self.models[0].X
        for m in self.models[1:]:
            if m.X.shape != first.shape or not np.array_equal(m.X, first):
                raise ValueError("all sub-models must share the input matrix")

    @property
    def n_objectives(self) -> int:
        return len(self.models)

    def best_observed(self) -> np.ndarray:
        """Per-objective minimum of the training targets."""
        return np.array([float(np.min(m.y)) for m in self.models])


def fit_multi(X: np.ndarray, Y: np.ndarray,
              bounds: ParamBounds | None = None,
              restarts: int = 8,
              rng: np.random.Generator | int | None = None,
              warm: MultiGp | None = None) -> MultiGp:
    """Fit one GP per column of Y.

    Equivalent to the joint block-diagonal model under objective
    independence.  Each column gets its own child rng stream so per-objective
    fits stay deterministic regardless of fitting order.  Without `warm`
    each column's search runs `restarts` cold starts.  A refit passes the
    previous model as `warm`: column j then runs the first
    max(1, restarts // 4) of those cold starts plus one warm start at
    `warm.models[j].params`, since a few new rows rarely move the optimum
    far.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.ndim != 2:
        raise ValueError("Y must be (n, p)")
    if warm is not None:
        restarts = max(1, restarts // 4)
    rng = np.random.default_rng(rng)
    streams = rng.spawn(Y.shape[1])
    # fit is looked up as a module global on each call, so a wrapper patched
    # onto the attribute sees every per-objective fit.
    models = tuple(fit(X, Y[:, j], bounds=bounds, restarts=restarts,
                       rng=streams[j],
                       extra_starts=() if warm is None
                       else (warm.models[j].params,))
                   for j in range(Y.shape[1]))
    return MultiGp(models=models)


def predict_multi_batch(model: MultiGp,
                        Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and variances, shape (n_query, p) each."""
    cols = [predict_batch(m, Xq) for m in model.models]
    means = np.column_stack([c[0] for c in cols])
    variances = np.column_stack([c[1] for c in cols])
    return means, variances
