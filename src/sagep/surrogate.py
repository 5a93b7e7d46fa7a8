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

A multi-start projected BFGS search (`_bounded_bfgs`, with L-BFGS-B's
default stopping rules) maximizes it over the box of log(ell, alpha, tau)
with its analytic gradient; each evaluation factorizes A once (one
Cholesky attempt, Rasmussen & Williams Alg. 2.1) and solves for all p
columns with that one factor.
The fitted `MultiGp` is this separable model, with sigma_j^2 = B_jj and one
factor of A.  Every objective is observed at every input, so objective j's
posterior mean uses only its own column, k*' A^-1 y_j, and its variance is
sigma_j^2 times the unit-scale one: one cross-kernel and one triangular
solve predict all p objectives.

The search evaluates the likelihood thousands of times on one data set, so
`fit` validates the data on entry and computes the squared distances once
per fit; each evaluation only builds the kernel from them and calls LAPACK
`potrf` / `potrs` directly, the routines `scipy.linalg.cholesky` and
`cho_solve` call after their finiteness checks, so the bits are the same.
Prediction calls `trtrs` as `solve_triangular` does, with its finiteness
check.  All three come from scipy's compiled LAPACK module through
`sagep.lapack`, which does not import `scipy.linalg`.
A run refits every generation on a history grown by a few rows, which
rarely moves the optimum, so `fit_multi` searches only once the history has
SEARCH_GROWTH times the rows of the last search; in between it keeps that
search's (ell, alpha, tau) and refactors A and re-profiles B on every row.

The search box of (ell, alpha, tau) is SEARCH_BOX, and each fitted
sigma_j is clipped to SIGMA_CLIP.  Both are fixed: the loop always z-scores
the embeddings and regresses log10 objectives, so the inputs and targets
live in one frame, where unit-order length scales and signal scales
dominate.  Observation noise has a hard floor, tau >= NOISE_FLOOR: the
history of expensive evaluations can contain near-identical embeddings
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

from . import lapack

__all__ = [
    "NOISE_FLOOR",
    "SEARCH_BOX",
    "SIGMA_CLIP",
    "SEARCH_GROWTH",
    "RESTARTS",
    "FitError",
    "KernelParams",
    "MultiGp",
    "rq_gram",
    "log_marginal_likelihood",
    "build_gp",
    "fit",
    "fit_multi",
    "predict_multi_batch",
]

NOISE_FLOOR = 1e-8

# The search's box, (lower, upper) of (ell, alpha, tau), and the clip of
# each fitted sigma_j, both for z-scored inputs and log10 targets.
SEARCH_BOX = ((1e-2, 1e-2, NOISE_FLOOR), (1e2, 1e3, 1e1))
SIGMA_CLIP = (1e-3, 1e2)

# fit_multi searches again at this many times the rows of the last search.
SEARCH_GROWTH = 1.25

# Cold starts of a search by default.  Fewer starts search a prefix of more
# (the Halton rows), and on seeds 0-29 of both shipped configs 3 make every
# decision that 8 make.
RESTARTS = 3

# The search's stopping rules are L-BFGS-B's defaults (Byrd, Lu, Nocedal &
# Zhu 1995): projected-gradient norm, relative decrease, evaluation budget;
# a step backtracks at most _MAXLS times.
_PGTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_MAXFUN = 15000
_MAXLS = 20


class FitError(np.linalg.LinAlgError):
    """K + tau I is not numerically positive definite.  A ValueError, as
    scipy's `cholesky` raises: a failed evaluation to the search, exit 2."""


@dataclass(frozen=True)
class KernelParams:
    """The unit-scale RQ kernel's ell and alpha, and `noise`, the
    noise-to-signal variance ratio tau."""

    ell: float = 1.0
    alpha: float = 1.0
    noise: float = 1e-6

    def __post_init__(self):
        if not (self.ell > 0 and self.alpha > 0):
            raise ValueError("kernel parameters must be positive")
        if self.noise < NOISE_FLOOR:
            raise ValueError(f"noise ratio below floor {NOISE_FLOOR}")

    @classmethod
    def from_log_array(cls, values: np.ndarray) -> "KernelParams":
        """The kernel at a search point log(ell, alpha, tau)."""
        ell, alpha, noise = np.exp(np.asarray(values, dtype=float))
        return cls(ell=float(ell), alpha=float(alpha),
                   noise=float(max(noise, NOISE_FLOOR)))


# Underflow only rounds a subnormal difference's square to 0.
@np.errstate(under="ignore")
def _sqdist(X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of X and of X2, summed
    over the columns in order: the bits of scipy's `cdist(X, X2,
    "sqeuclidean")`."""
    X, X2 = np.atleast_2d(X), np.atleast_2d(X2)
    out = np.zeros((X.shape[0], X2.shape[0]))
    for a, b in zip(X.T, X2.T):
        out += (a[:, None] - b[None, :]) ** 2
    return out


def _rq_from_sqdist(sq: np.ndarray, params: KernelParams) -> np.ndarray:
    # Underflow is harmless in both steps: a tiny squared distance scales to
    # 0 (base 1, full covariance) and a distant pair's covariance to 0.
    with np.errstate(under="ignore"):
        base = 1.0 + sq / (2.0 * params.alpha * params.ell ** 2)
        return base ** (-params.alpha)


def rq_gram(X: np.ndarray, X2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Unit-scale kernel matrix between rows of X and rows of X2."""
    return _rq_from_sqdist(_sqdist(X, X2), params)


def _training_data(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X as a float matrix and Y as an (n, p) float matrix, a vector being
    one column, checked to match and be finite."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        Y = Y.reshape(-1, 1)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y row counts differ")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("GP training data must be finite")
    return X, Y


def _cholesky(K: np.ndarray, noise: float) -> np.ndarray:
    """Lower factor of K + noise I by one `dpotrf` call; raises FitError
    if that matrix is not numerically positive definite.

    A non-finite K, which only a kernel whose 2 alpha ell^2 underflows
    gives (no point of SEARCH_BOX does), fails the factorization or carries
    a NaN or inf onto the diagonal of L.  Finite diagonal entries are
    square roots, at most ~1e154, so the trace is finite exactly when the
    diagonal is.
    """
    n = K.shape[0]
    A = np.array(K, order="F")
    # ravel of a Fortran-ordered array in Fortran order is a view.
    A.ravel(order="F")[::n + 1] += noise
    L, info = lapack.dpotrf(A, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise FitError(f"kernel matrix not positive definite "
                       f"(n={n}, noise={noise}, dpotrf info {info})")
    if not math.isfinite(L.trace()):
        raise ValueError("kernel matrix must be finite")
    return L


def _cho_solve(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    return lapack.dpotrs(L, y, lower=1)[0]


def log_marginal_likelihood(Y: np.ndarray, params: KernelParams,
                            sqdist: np.ndarray) -> tuple[float, np.ndarray]:
    """The separable model's profiled log evidence of the (n, p) float
    targets Y, at inputs whose squared distances are sqdist, and its
    gradient in log(ell, alpha, tau): Rasmussen & Williams eq. 5.9 with
    each B_jj at its optimum.  A column of zeros makes the value +inf.

    One Cholesky factor of A = K + tau I serves all p columns; raises
    FitError if A is not numerically positive definite.
    """
    K = _rq_from_sqdist(sqdist, params)
    L = _cholesky(K, params.noise)
    W = _cho_solve(L, Y)
    quad = np.einsum("ij,ij->j", Y, W)
    n, p = Y.shape
    half_logdet = np.sum(np.log(np.diag(L)))
    # Underflow to zero covariance is the distant-pair limit, as in the
    # kernel; a column of zeros makes the value +inf and M NaN.
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        value = float(-0.5 * n * np.sum(np.log(quad / n)) - p * half_logdet
                      - 0.5 * n * p * (1.0 + np.log(2.0 * np.pi)))
        # d value / d theta = tr(M dK/dtheta) / 2 with
        # M = n sum_j w_j w_j' / (y_j' w_j) - p A^-1.
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

    `kernel` is k, shared by all objectives, at unit scale with noise tau,
    and `sigmas` holds sqrt(B_jj) per objective.  L
    is the one lower Cholesky factor of k(X, X) + tau I, and
    weights = L^-T L^-1 Y.  The kernel was searched on `searched_n` rows.
    """

    X: np.ndarray
    Y: np.ndarray
    kernel: KernelParams
    sigmas: np.ndarray
    L: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    # Always 0.0: the factor takes no jitter.  Kept because the benchmark's
    # fit probe reads it; it goes when the benchmark drops `jitter_fits`.
    jitter: float = 0.0
    warned: bool = False
    searched_n: int = 0

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
    L = _cholesky(rq_gram(X, X, kernel), kernel.noise)
    return MultiGp(X=X, Y=Y, kernel=kernel,
                   sigmas=np.asarray(sigmas, dtype=float), L=L,
                   weights=_cho_solve(L, Y), warned=warned)


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


def _bounded_bfgs(objective, x: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Minimize `objective`, which returns (value, gradient), over the box
    [lo, hi] from x by projected BFGS; returns the last point, its value and
    the number of evaluations.

    The inverse-Hessian estimate H acts on the free variables, those the
    gradient does not hold at a bound, and restarts when that set changes;
    it is built from curvature pairs of free components only, and until the
    first pair the direction is the unit steepest descent.  Each line search
    starts at the step t0 and backtracks along the projected path by
    safeguarded quadratic interpolation until the Armijo condition holds;
    t0 doubles whenever a pair is skipped for non-positive curvature and is
    1 again after an update.  A failed line search restarts H once, then
    stops.
    """
    x = np.clip(x, lo, hi)
    f, g = objective(x)
    nfev, free, H, t0 = 1, None, None, 1.0
    while (nfev < _MAXFUN
           and np.max(np.abs(np.clip(x - g, lo, hi) - x)) > _PGTOL):
        held = ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
        if free is None or not np.array_equal(free, ~held):
            free, H = ~held, None
        d = np.zeros_like(x)
        d[free] = (-g[free] / np.linalg.norm(g[free]) if H is None
                   else -H @ g[free])
        slope = g @ d
        if slope >= 0.0:
            # Roundoff cost H its positive definiteness.
            H = None
            continue
        t = t0
        for _ in range(_MAXLS):
            x_new = np.clip(x + t * d, lo, hi)
            f_new, g_new = objective(x_new)
            nfev += 1
            if f_new <= f + 1e-4 * (g @ (x_new - x)):
                break
            if nfev >= _MAXFUN:
                return x, f, nfev
            t *= min(max(-slope * t / (2.0 * (f_new - f - slope * t)), 0.1),
                     0.5)
        else:
            if H is None:
                break
            H = None
            continue
        s, y = (x_new - x)[free], (g_new - g)[free]
        done = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            break
        sy = s @ y
        if sy <= 0.0:
            t0 *= 2.0
            continue
        t0 = 1.0
        if H is None:
            H = np.eye(s.size) * sy / (y @ y)
        V = np.eye(s.size) - np.outer(s, y) / sy
        H = V @ H @ V.T + np.outer(s, s) / sy
    return x, f, nfev


def _profiled_gp(X: np.ndarray, Y: np.ndarray, kernel: KernelParams,
                 searched_n: int) -> MultiGp:
    """The model at `kernel` on (n, p) targets Y, with sigma_j = sqrt(B_jj)
    clipped to SIGMA_CLIP."""
    model = build_gp(X, Y, kernel, np.ones(Y.shape[1]))
    quad = np.einsum("ij,ij->j", model.Y, model.weights)
    return replace(model, searched_n=searched_n,
                   sigmas=np.clip(np.sqrt(quad / model.n), *SIGMA_CLIP))


def fit(X: np.ndarray, Y: np.ndarray, restarts: int = RESTARTS,
        rng: np.random.Generator | int | None = None) -> MultiGp:
    """Fit the shared kernel to the columns of Y, shape (n, p) or a vector
    for p = 1, by maximizing the profiled log evidence.

    Multi-start local search over log(ell, alpha, tau) from `restarts`
    scrambled-Halton points in SEARCH_BOX; the first k points are the same
    for any `restarts` >= k, and a fixed rng seed fixes the result.  The
    model is `_profiled_gp` at the optimum, searched on n rows.  A single
    sample yields default parameters, and so does failure on every restart,
    with `warned` set.
    Non-finite data, or `restarts` below 1, raise ValueError on entry.
    """
    X, Y = _training_data(X, Y)
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot fit a GP on zero samples")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if n == 1:
        return build_gp(X, Y, KernelParams(), np.ones(Y.shape[1]))
    rng = np.random.default_rng(rng)
    lo, hi = np.log(SEARCH_BOX)
    sqdist = _sqdist(X, X)

    # Every evaluation goes through the module attribute, so a wrapper
    # patched onto log_marginal_likelihood (a tracer, a counter) sees it.
    def objective(log_theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            value, gradient = log_marginal_likelihood(
                Y, KernelParams.from_log_array(log_theta), sqdist)
        except (ValueError, FloatingPointError, OverflowError):
            return 1e25, np.zeros(3)
        if not (math.isfinite(value) and np.all(np.isfinite(gradient))):
            return 1e25, np.zeros(3)
        return -value, -gradient

    best_val = np.inf
    best_theta = None
    for row in _halton(3, restarts, int(rng.integers(2 ** 31 - 1))):
        theta, value, _ = _bounded_bfgs(objective, lo + (hi - lo) * row,
                                        lo, hi)
        if value < min(best_val, 1e24):
            best_val = float(value)
            best_theta = theta
    if best_theta is None:
        warnings.warn("GP hyperparameter search failed on every restart; "
                      "falling back to default parameters")
        return build_gp(X, Y, KernelParams(), np.ones(Y.shape[1]),
                        warned=True)
    # exp(log(bound)) can land an ulp outside the box.
    ell, alpha, tau = np.clip(np.exp(best_theta), *SEARCH_BOX)
    kernel = KernelParams(ell=float(ell), alpha=float(alpha),
                          noise=float(tau))
    return _profiled_gp(X, Y, kernel, searched_n=n)


def fit_multi(X: np.ndarray, Y: np.ndarray, restarts: int = RESTARTS,
              rng: np.random.Generator | int | None = None,
              last: MultiGp | None = None) -> MultiGp:
    """The GP on every row of X and column of Y after the fit `last`: a
    search (`fit`, which the rng serves) if `last` is None or `warned`, or
    n >= SEARCH_GROWTH * last.searched_n; else `fit`'s closing step at the
    kept `last.kernel` on all n rows, a new factor and re-profiled sigmas.
    """
    X, Y = _training_data(X, Y)
    n = X.shape[0]
    if last is None or last.warned or n >= SEARCH_GROWTH * last.searched_n:
        # A wrapper patched onto the module attribute fit sees every search.
        return fit(X, Y, restarts=restarts, rng=rng)
    return _profiled_gp(X, Y, last.kernel, last.searched_n)


def predict_multi_batch(model: MultiGp,
                        Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and observation variances, shape (n_query, p) each.

    One cross-kernel and one triangular solve serve every objective: the
    means are K*' weights, and objective j's variance, for a new noisy
    observation, is sigma_j^2 (1 + tau - v'v) at unit kernel scale,
    with v = L^-1 K*, clamped at zero against roundoff.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    K_star = rq_gram(model.X, Xq, model.kernel)
    # L is Fortran-ordered, so this is solve_triangular(L, K*, lower=True)
    # with its finiteness check.
    if not np.all(np.isfinite(K_star)):
        raise ValueError("array must not contain infs or NaNs")
    v, info = lapack.dtrtrs(model.L, K_star, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix: info {info}")
    var = 1.0 + model.kernel.noise - np.einsum("ij,ij->j", v, v)
    return (K_star.T @ model.weights,
            np.maximum(var, 0.0)[:, None] * model.sigmas ** 2)
