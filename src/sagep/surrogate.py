"""Gaussian-process surrogate over candidate embeddings.

The p objectives share one input matrix and one matrix-valued kernel of the
separable form B (x) k (Bonilla, Chai & Williams 2007; Alvarez, Rosasco &
Lawrence 2012): the n x p targets Y are matrix normal, MN(0, A, B), with
row covariance A = k(X, X) + tau I under the Rational Quadratic kernel at
unit scale,

    k(x, x') = (1 + ||x - x'||^2 / (2 alpha ell^2))^(-alpha),

tau a noise-to-signal variance ratio, and B diagonal, holding each
objective's signal variance.  For fixed (ell, alpha, tau), B has the
closed-form optimum B_jj = y_j' A^-1 y_j / n, which leaves the profiled log
evidence

    -(n/2) sum_j log B_jj - (p/2) log|A| - (np/2)(1 + log 2 pi).

Multi-start L-BFGS-B maximizes it over log(ell, alpha, tau) with its
analytic gradient; each evaluation factorizes A once (Cholesky, with a
small jitter escalation when near-duplicate inputs make it numerically
singular) and solves for all p columns with that one factor.  The fitted
`MultiGp` is this separable model, with sigma_j^2 = B_jj and one factor of
A.  Every objective is observed at every input, so objective j's posterior
mean uses only its own column, k*' A^-1 y_j, and its variance is sigma_j^2
times the unit-scale one: one cross-kernel and one triangular solve
predict all p objectives.

The search evaluates the likelihood thousands of times on one data set, so
`fit` validates the data on entry and computes the squared distances once
per fit; each evaluation only builds the kernel from them and calls LAPACK
`potrf` / `potrs` directly, the routines `scipy.linalg.cholesky` and
`cho_solve` call after their finiteness checks, so the bits are the same.
A training run refits on a history that grows by a few rows per
generation, so `fit_multi` can warm-start the search from the previous
optimum and then runs a quarter of the cold starts.

Observation noise has a hard floor, tau >= NOISE_FLOOR on the unit scale:
the history of expensive evaluations can contain near-identical embeddings
with slightly different outcomes, and a noiseless kernel matrix goes
singular on those.  Predictive variance is reported for a new observation,
i.e. it includes the noise term, so far from data objective j's recovers
sigma_j^2 (1 + tau).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

__all__ = [
    "NOISE_FLOOR",
    "JITTER_LADDER",
    "FitError",
    "KernelParams",
    "ParamBounds",
    "MultiGp",
    "rq_gram",
    "log_marginal_likelihood",
    "build_gp",
    "fit",
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

    @classmethod
    def from_log_array(cls, values: np.ndarray) -> "KernelParams":
        sigma, ell, alpha, noise = np.exp(np.asarray(values, dtype=float))
        return cls(sigma=float(sigma), ell=float(ell), alpha=float(alpha),
                   noise=float(max(noise, NOISE_FLOOR)))


@dataclass(frozen=True)
class ParamBounds:
    """Box bounds for hyperparameter search, in natural units.

    The search runs over ell, alpha and tau, whose box is `noise`: tau is a
    noise-to-signal variance ratio.  `sigma` clips each objective's fitted
    signal standard deviation sqrt(B_jj).  Defaults assume standardized
    inputs, where unit-order length scales dominate.
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
    # Underflow is harmless in both steps: a tiny squared distance scales to
    # 0 (base 1, full covariance) and a distant pair's covariance to 0.
    with np.errstate(under="ignore"):
        base = 1.0 + sq / (2.0 * params.alpha * params.ell ** 2)
        return params.sigma ** 2 * base ** (-params.alpha)


def rq_gram(X: np.ndarray, X2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Kernel matrix between rows of X and rows of X2."""
    return _rq_from_sqdist(_sqdist(X, X2), params)


def _training_data(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X as a float matrix and Y as an (n, p) float matrix or else a float
    vector, checked to match and be finite."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        Y = Y.ravel()
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y row counts differ")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("GP training data must be finite")
    return X, Y


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


def log_marginal_likelihood(X: np.ndarray, Y: np.ndarray,
                            params: KernelParams,
                            sqdist: np.ndarray | None = None,
                            profiled: bool = False):
    """Zero-mean Gaussian log evidence of Y under the kernel.

    Y is a vector, or an (n, p) matrix whose columns are independent draws
    under the same kernel; the evidence of a matrix is the sum over its
    columns.  With `profiled`, each column's covariance K + sigma_n^2 I is
    first scaled by the factor that maximizes that column's evidence, and
    the result is the pair (evidence, gradient): the separable model's
    profiled evidence, which depends on params only through ell, alpha and
    tau = noise / sigma^2 (+inf for a column of zeros), and its gradient in
    log(ell, alpha, tau), Rasmussen & Williams eq. 5.9 with the scales at
    their optimum.

    Computed through one Cholesky factor of K + sigma_n^2 I for all
    columns; raises FitError if the matrix stays indefinite after the
    jitter ladder.  A caller that passes sqdist, the squared distances
    between the rows of X, has already validated X and Y as float arrays;
    without it, non-finite or mismatched data raise ValueError.
    """
    if sqdist is None:
        X, Y = _training_data(X, Y)
        sqdist = _sqdist(X, X)
    K = _rq_from_sqdist(sqdist, params)
    L, _ = _chol_with_jitter(K, params.noise)
    W = _cho_solve(L, Y)
    quad = Y @ W if Y.ndim == 1 else np.einsum("ij,ij->j", Y, W)
    n = Y.shape[0]
    p = 1 if Y.ndim == 1 else Y.shape[1]
    half_logdet = np.sum(np.log(np.diag(L)))
    if not profiled:
        return float(-0.5 * np.sum(quad) - p * half_logdet
                     - 0.5 * n * p * np.log(2.0 * np.pi))
    # Underflow to zero covariance is the distant-pair limit, as in the
    # kernel; a column of zeros makes the value +inf and M NaN.
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        value = float(-0.5 * n * np.sum(np.log(quad / n)) - p * half_logdet
                      - 0.5 * n * p * (1.0 + np.log(2.0 * np.pi)))
        # d value / d theta = tr(M dK/dtheta) / 2 with
        # M = n sum_j w_j w_j' / (y_j' w_j) - p (K + sigma_n^2 I)^-1.
        W = W.reshape(n, -1)
        M = n * (W / quad) @ W.T - p * _cho_solve(L, np.eye(n))
        u = 1.0 + sqdist / (2.0 * params.alpha * params.ell ** 2)
        KM = K * M
        gradient = 0.5 * np.array([
            np.sum(KM / u * sqdist) / params.ell ** 2,
            params.alpha * np.sum(KM * ((u - 1.0) / u - np.log(u))),
            params.noise * np.trace(M)])
    return value, gradient


@dataclass(frozen=True)
class MultiGp:
    """The fitted separable GP B (x) k on inputs X and (n, p) targets Y.

    `kernel` is k, shared by all objectives, at unit scale (sigma 1, noise
    tau) as `fit` finds it, and `sigmas` holds sqrt(B_jj) per objective.  L
    is the one lower Cholesky factor of k(X, X) + (tau + jitter) I, and
    weights = L^-T L^-1 Y.
    """

    X: np.ndarray
    Y: np.ndarray
    kernel: KernelParams
    sigmas: np.ndarray
    L: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    jitter: float = 0.0
    warned: bool = False

    @property
    def n_objectives(self) -> int:
        return self.Y.shape[1]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def best_observed(self) -> np.ndarray:
        """Per-objective minimum of the training targets."""
        return self.Y.min(axis=0)


def build_gp(X: np.ndarray, Y: np.ndarray, kernel: KernelParams,
             sigmas: np.ndarray, warned: bool = False) -> MultiGp:
    """Factorize the training system for fixed hyperparameters: Y is (n, p)
    or a vector for p = 1, `kernel` is shared by all objectives, and
    objective j's covariance is sigmas[j]^2 times the kernel's."""
    X, Y = _training_data(X, Y)
    if X.shape[0] == 0:
        raise ValueError("cannot build a GP on zero samples")
    Y = Y.reshape(X.shape[0], -1)
    L, jitter = _chol_with_jitter(rq_gram(X, X, kernel), kernel.noise)
    return MultiGp(X=X, Y=Y, kernel=kernel,
                   sigmas=np.asarray(sigmas, dtype=float), L=L,
                   weights=_cho_solve(L, Y), jitter=jitter, warned=warned)


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points, shape (n, d), of Owen's randomized Halton
    sequence (arXiv:1706.02808), bit for bit those of
    `scipy.stats.qmc.Halton(d=d, scramble=True, seed=seed).random(n)`.

    Dimension i uses the i-th prime b as its base.  One generator seeded
    with `seed` shuffles, base by base, a permutation of the digits 0..b-1
    for each digit position j < ceil(54 / log2 b) - 1, the ones with
    b^-(j+1) > 2^-54; a coordinate sums perm_j[digit_j] b^-(j+1) over them
    in order of j.
    """
    rng = np.random.default_rng(seed)
    bases: list[int] = []
    candidate = 2
    while len(bases) < d:
        if all(candidate % b for b in bases):
            bases.append(candidate)
        candidate += 1
    points = np.zeros((n, d))
    for column, base in zip(points.T, bases):
        perms = np.repeat(np.arange(base)[None],
                          math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        index = np.arange(n)
        scale = 1.0 / base
        for perm in perms:
            column += perm[index % base] * scale
            index //= base
            scale /= base
    return points


def _unit_kernel(log_theta: np.ndarray) -> KernelParams:
    """The kernel with sigma 1 at a search point log(ell, alpha, tau)."""
    return KernelParams.from_log_array(np.concatenate(([0.0], log_theta)))


def fit(X: np.ndarray, Y: np.ndarray,
        bounds: ParamBounds | None = None,
        restarts: int = 8,
        rng: np.random.Generator | int | None = None,
        extra_starts: tuple[KernelParams, ...] = ()) -> MultiGp:
    """Fit the shared kernel to the columns of Y, shape (n, p) or a vector
    for p = 1, by maximizing the profiled log evidence.

    Multi-start local search over log(ell, alpha, tau): `restarts`
    scrambled-Halton points in the box of bounds.ell, bounds.alpha and
    bounds.noise, then each of `extra_starts` as the point (ell, alpha,
    noise / sigma^2), clipped into the box (a warm start from a previous
    fit's `kernel`; the result is then never worse than that point up to
    optimizer tolerance).  The first k points of the Halton stream are the
    same for any `restarts` >= k.  Deterministic for a fixed rng seed.
    The factor of A at the optimum gives sigma_j = sqrt(B_jj), clipped to
    bounds.sigma, and is the model's factor.  A single sample admits no
    meaningful evidence maximization and yields default parameters; if
    every restart fails the model falls back to defaults with `warned` set.
    Non-finite data raise ValueError on entry, as does `restarts` below 1.
    """
    X, Y = _training_data(X, Y)
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot fit a GP on zero samples")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    Y = Y.reshape(n, -1)
    if n == 1:
        return build_gp(X, Y, KernelParams(), np.ones(Y.shape[1]))
    bounds = bounds or ParamBounds()
    rng = np.random.default_rng(rng)
    lo, hi = (side[1:] for side in bounds.log_box())
    sqdist = _sqdist(X, X)

    # Every evaluation goes through the module attribute, so a wrapper
    # patched onto log_marginal_likelihood (a tracer, a counter) sees it.
    def objective(log_theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            value, gradient = log_marginal_likelihood(
                X, Y, _unit_kernel(log_theta), sqdist, profiled=True)
        except (FitError, ValueError, FloatingPointError, OverflowError):
            return 1e25, np.zeros(3)
        if not (math.isfinite(value) and np.all(np.isfinite(gradient))):
            return 1e25, np.zeros(3)
        return -value, -gradient

    starts = [lo + (hi - lo) * row
              for row in _halton(3, restarts, int(rng.integers(2 ** 31 - 1)))]
    for params in extra_starts:
        starts.append(np.clip(np.log([params.ell, params.alpha,
                                      params.noise / params.sigma ** 2]),
                              lo, hi))

    best_val = np.inf
    best_theta = None
    for theta0 in starts:
        res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lo, hi)))
        if res.fun < min(best_val, 1e24):
            best_val = float(res.fun)
            best_theta = res.x
    if best_theta is None:
        warnings.warn("GP hyperparameter search failed on every restart; "
                      "falling back to default parameters")
        return build_gp(X, Y, KernelParams(), np.ones(Y.shape[1]),
                        warned=True)
    # exp(log(bound)) can land an ulp outside the box.
    ell, alpha, tau = np.clip(np.exp(best_theta), *zip(
        bounds.ell, bounds.alpha, bounds.noise))
    kernel = KernelParams(sigma=1.0, ell=float(ell), alpha=float(alpha),
                          noise=float(tau))
    model = build_gp(X, Y, kernel, np.ones(Y.shape[1]))
    quad = np.einsum("ij,ij->j", Y, model.weights)
    return replace(model, sigmas=np.clip(np.sqrt(quad / n), *bounds.sigma))


def fit_multi(X: np.ndarray, Y: np.ndarray,
              bounds: ParamBounds | None = None,
              restarts: int = 8,
              rng: np.random.Generator | int | None = None,
              warm: MultiGp | None = None) -> MultiGp:
    """One `fit` of the shared kernel to every column of Y.

    Without `warm` the search runs `restarts` cold starts.  A refit passes
    the previous fit as `warm`: the search then runs the first
    max(1, restarts // 4) of those cold starts plus one warm start at
    `warm.kernel`, since a few new rows rarely move the optimum far.
    """
    if warm is not None:
        restarts = max(1, restarts // 4)
    # fit is looked up as a module global on each call, so a wrapper patched
    # onto the attribute sees every fit.
    return fit(X, Y, bounds=bounds, restarts=restarts, rng=rng,
               extra_starts=() if warm is None else (warm.kernel,))


def predict_multi_batch(model: MultiGp,
                        Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and observation variances, shape (n_query, p) each.

    One cross-kernel and one triangular solve serve every objective: the
    means are K*' weights, and objective j's variance, for a new noisy
    observation, is sigma_j^2 (1 + tau + jitter - v'v) at unit kernel scale,
    with v = L^-1 K*, clamped at zero against roundoff.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    K_star = rq_gram(model.X, Xq, model.kernel)
    v = solve_triangular(model.L, K_star, lower=True)
    var = (model.kernel.sigma ** 2 + model.kernel.noise + model.jitter
           - np.einsum("ij,ij->j", v, v))
    return (K_star.T @ model.weights,
            np.maximum(var, 0.0)[:, None] * model.sigmas ** 2)
