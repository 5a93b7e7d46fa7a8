"""Rational-quadratic GP: kernel algebra, evidence, fitting, prediction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky
from scipy.optimize import minimize
from scipy.stats import qmc

from sagep import surrogate
from sagep.surrogate import (
    JITTER_LADDER,
    FitError,
    KernelParams,
    ParamBounds,
    build_gp,
    fit,
    fit_multi,
    log_marginal_likelihood,
    predict_multi_batch,
    rq_gram,
)

UNIT = KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=1e-6)


def dense_lml(X, y, params):
    """Reference evidence through an explicit inverse and slogdet."""
    K = rq_gram(X, X, params) + params.noise * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.solve(K, y)
                 - 0.5 * logdet
                 - 0.5 * len(y) * np.log(2.0 * np.pi))


def reference_lml(X, y, params):
    """The evidence through the checked scipy wrappers, each jitter rung on
    K + (noise + jitter) I, as the search computed it before distances were
    cached and LAPACK was called directly."""
    K = rq_gram(X, X, params)
    for jitter in JITTER_LADDER:
        try:
            L = cholesky(K + (params.noise + jitter) * np.eye(len(y)),
                         lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise FitError("indefinite after the jitter ladder")
    weights = cho_solve((L, True), y)
    return float(-0.5 * y @ weights
                 - np.sum(np.log(np.diag(L)))
                 - 0.5 * len(y) * np.log(2.0 * np.pi))


def unit_kernel(log_theta):
    """The kernel with sigma 1 at a search point log(ell, alpha, tau)."""
    return KernelParams.from_log_array(np.concatenate(([0.0], log_theta)))


def reference_profiled(X, Y, params):
    """The profiled evidence of the columns of Y, each at its own best
    scale, and its gradient in log(ell, alpha, tau), through the checked
    scipy wrappers and each jitter rung."""
    K = rq_gram(X, X, params)
    for jitter in JITTER_LADDER:
        try:
            L = cholesky(K + (params.noise + jitter) * np.eye(len(Y)),
                         lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise FitError("indefinite after the jitter ladder")
    n, p = Y.shape
    W = cho_solve((L, True), Y)
    quad = np.einsum("ij,ij->j", Y, W)
    value = float(-0.5 * n * np.sum(np.log(quad / n))
                  - p * np.sum(np.log(np.diag(L)))
                  - 0.5 * n * p * (1.0 + np.log(2.0 * np.pi)))
    M = n * (W / quad) @ W.T - p * cho_solve((L, True), np.eye(n))
    sq = surrogate._sqdist(X, X)
    u = 1.0 + sq / (2.0 * params.alpha * params.ell ** 2)
    with np.errstate(under="ignore"):
        KM = K * M
        return value, 0.5 * np.array([
            np.sum(KM / u * sq) / params.ell ** 2,
            params.alpha * np.sum(KM * ((u - 1.0) / u - np.log(u))),
            params.noise * np.trace(M)])


def reference_search(X, Y, restarts, rng, bounds=ParamBounds()):
    """fit's multi-start search over log(ell, alpha, tau) with
    reference_profiled as its objective: the best search point (None when
    every restart failed) and the summed nfev."""
    lo, hi = (side[1:] for side in bounds.log_box())
    rng = np.random.default_rng(rng)

    def objective(log_theta):
        try:
            value, gradient = reference_profiled(X, Y, unit_kernel(log_theta))
        except (FitError, ValueError, FloatingPointError, OverflowError):
            return 1e25, np.zeros(3)
        if not (np.isfinite(value) and np.all(np.isfinite(gradient))):
            return 1e25, np.zeros(3)
        return -value, -gradient

    starts = surrogate._halton(3, restarts, int(rng.integers(2 ** 31 - 1)))
    best_val, best_theta, nfev = np.inf, None, 0
    for theta0 in [lo + (hi - lo) * row for row in starts]:
        res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lo, hi)))
        nfev += res.nfev
        if res.fun < min(best_val, 1e24):
            best_val, best_theta = float(res.fun), res.x
    return best_theta, nfev


def search_data(p=2):
    """Fixed data for the search tests, with one duplicated row: p
    objectives of different scales."""
    rng = np.random.default_rng(41)
    X = rng.uniform(-2, 2, size=(14, 2))
    X[13] = X[2]
    columns = [np.sin(X[:, 0]) - 0.5 * X[:, 1] ** 2,
               3.0 * np.cos(X[:, 1]),
               0.2 * X[:, 0] * X[:, 1]]
    Y = np.column_stack(columns[:p]) + 0.05 * rng.normal(size=(14, p))
    return X, Y


def profiled(X, Y, params):
    return log_marginal_likelihood(X, Y, params, profiled=True)[0]


def count_lml_calls(monkeypatch):
    """Wrap the surrogate.log_marginal_likelihood attribute with a counter;
    the returned list grows by one entry per call."""
    calls = []
    original = surrogate.log_marginal_likelihood

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(surrogate, "log_marginal_likelihood", counted)
    return calls


class TestHalton:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_scipy_scrambled_halton_bitwise(self, d):
        for n in (1, 2, 3, 8, 27, 100, 200):
            for seed in (0, 1, 41, 12345, 987654321, 2 ** 31 - 2):
                ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
                assert (surrogate._halton(d, n, seed).tobytes()
                        == ref.tobytes())

    def test_golden_rows(self):
        # Literal values, so the pin holds without the scipy oracle.
        assert surrogate._halton(3, 4, 12345).tolist() == [
            [0.1533356327231844, 0.5925589076600479, 0.8245656388940836],
            [0.6533356327231844, 0.9258922409933812, 0.42456563889408355],
            [0.4033356327231844, 0.25922557432671445, 0.024565638894083558],
            [0.9033356327231844, 0.48144779654893666, 0.2245656388940835]]
        assert surrogate._halton(2, 3, 2 ** 31 - 2).tolist() == [
            [0.6009173291052463, 0.6908094935295156],
            [0.10091732910524631, 0.3574761601961823],
            [0.8509173291052463, 0.02414282686284906]]

    def test_first_points_do_not_depend_on_n(self):
        assert np.array_equal(surrogate._halton(4, 200, 7)[:9],
                              surrogate._halton(4, 9, 7))


class TestKernel:
    def test_zero_distance_gives_sigma_squared(self):
        p = KernelParams(sigma=1.7, ell=0.3, alpha=2.0, noise=1e-6)
        x = np.array([[0.4, -1.2]])
        G = rq_gram(x, x, p)
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(1.7 ** 2, rel=1e-12)

    def test_unit_params_at_squared_distance_two(self):
        # sigma = ell = alpha = 1 and |x - x'|^2 = 2 gives (1 + 2/2)^-1 = 0.5.
        x, x2 = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        assert rq_gram(x, x2, UNIT)[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_large_alpha_approaches_squared_exponential(self):
        p = KernelParams(sigma=1.0, ell=1.0, alpha=1e6, noise=1e-6)
        x, x2 = np.array([[0.0]]), np.array([[1.0]])
        assert rq_gram(x, x2, p)[0, 0] == pytest.approx(np.exp(-0.5),
                                                        abs=1e-3)

    def test_gram_matches_pairwise_kernel(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 3))
        X2 = rng.normal(size=(4, 3))
        p = KernelParams(sigma=0.8, ell=0.5, alpha=3.0, noise=1e-6)
        G = rq_gram(X, X2, p)
        assert G.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                sq = np.sum((X[i] - X2[j]) ** 2)
                rq = p.sigma ** 2 * (1.0 + sq / (2.0 * p.alpha * p.ell ** 2)
                                     ) ** -p.alpha
                assert G[i, j] == pytest.approx(rq, rel=1e-12)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 50.0),
           st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_kernel_decreases_with_distance(self, sigma, ell, alpha, d1, d2):
        p = KernelParams(sigma=sigma, ell=ell, alpha=alpha, noise=1e-6)
        near, far = sorted((d1, d2))
        k_near = rq_gram(np.array([[0.0]]), np.array([[near]]), p)[0, 0]
        k_far = rq_gram(np.array([[0.0]]), np.array([[far]]), p)[0, 0]
        assert k_near >= k_far
        assert 0.0 < k_far <= sigma ** 2 + 1e-12

    def test_tiny_squared_distance_does_not_underflow(self):
        # 1e-320 / (2 alpha ell^2) underflows to 0, and the kernel at a
        # squared distance of 0 is the correct value there.
        with np.errstate(all="raise"):
            K = surrogate._rq_from_sqdist(np.array([[0.0, 1e-320]]),
                                          KernelParams(ell=10.0))
        assert K.tolist() == [[1.0, 1.0]]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelParams(sigma=-1.0, ell=1.0, alpha=1.0, noise=1e-6)
        with pytest.raises(ValueError):
            KernelParams(sigma=1.0, ell=0.0, alpha=1.0, noise=1e-6)
        with pytest.raises(ValueError):
            KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=-1e-3)

    def test_log_array_round_trip(self):
        p = KernelParams(sigma=0.3, ell=2.0, alpha=7.0, noise=1e-4)
        back = KernelParams.from_log_array(
            np.log([p.sigma, p.ell, p.alpha, p.noise]))
        for name in ("sigma", "ell", "alpha", "noise"):
            assert getattr(back, name) == pytest.approx(getattr(p, name),
                                                        rel=1e-12)


class TestEvidence:
    def test_single_point_closed_form(self):
        # n = 1, sigma = 1, tiny noise: -y^2/2 - log(2 pi)/2.
        p = KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=1e-8)
        lml0 = log_marginal_likelihood(np.array([[0.0]]), np.array([0.0]), p)
        lml1 = log_marginal_likelihood(np.array([[0.0]]), np.array([1.0]), p)
        assert lml0 == pytest.approx(-0.9189385, abs=1e-6)
        assert lml1 == pytest.approx(-1.4189385, abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            p = KernelParams(sigma=float(rng.uniform(0.2, 2.0)),
                             ell=float(rng.uniform(0.3, 2.0)),
                             alpha=float(rng.uniform(0.5, 5.0)),
                             noise=float(rng.uniform(1e-4, 1e-1)))
            assert log_marginal_likelihood(X, y, p) == pytest.approx(
                dense_lml(X, y, p), abs=1e-8)

    def test_duplicate_rows_survive_via_jitter(self):
        X = np.zeros((4, 2))
        y = np.array([0.1, 0.1, 0.1, 0.1])
        p = KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=1e-8)
        val = log_marginal_likelihood(X, y, p)
        assert np.isfinite(val)

    def test_equals_checked_reference_bitwise(self):
        rng = np.random.default_rng(29)
        lo, hi = ParamBounds().log_box()
        for n, d in ((2, 1), (7, 2), (20, 3), (45, 2)):
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            for _ in range(10):
                p = KernelParams.from_log_array(lo + (hi - lo) * rng.random(4))
                assert log_marginal_likelihood(X, y, p) == reference_lml(X, y, p)

    def test_precomputed_distances_give_the_same_bits(self):
        rng = np.random.default_rng(31)
        lo, hi = ParamBounds().log_box()
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        sq = surrogate._sqdist(X, X)
        for _ in range(20):
            p = KernelParams.from_log_array(lo + (hi - lo) * rng.random(4))
            assert (log_marginal_likelihood(X, y, p, sq)
                    == log_marginal_likelihood(X, y, p))

    # At (3e4, 3e-8), K_ii + noise + jitter added in two steps rounds
    # differently from K_ii + (noise + jitter), and the evidence shows it.
    @pytest.mark.parametrize("sigma, noise, rung", [(3e4, 3e-8, 2),
                                                    (3e5, 1e-8, 3)])
    def test_duplicate_rows_take_the_same_jitter_rung(self, sigma, noise,
                                                      rung):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 2))
        X = np.vstack([X, X[:3]])
        y = rng.normal(size=9)
        p = KernelParams(sigma=sigma, ell=1.0, alpha=1.0, noise=noise)
        assert build_gp(X, y, p, [1.0]).jitter == JITTER_LADDER[rung]
        assert log_marginal_likelihood(X, y, p) == reference_lml(X, y, p)

    def test_noise_floor_enforced(self):
        with pytest.raises(ValueError):
            KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            log_marginal_likelihood(np.zeros((3, 1)), np.zeros(2), UNIT)


class TestPrediction:
    def test_interpolates_at_noise_floor(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(-2, 2, size=(6, 2))
        y = np.sin(X[:, 0]) + X[:, 1]
        model = build_gp(X, y, KernelParams(ell=1.0, alpha=2.0, noise=1e-8),
                         [1.5])
        mean, _ = predict_multi_batch(model, X)
        assert np.allclose(mean[:, 0], y, atol=1e-6)

    def test_prior_recovered_far_from_data(self):
        # The RQ tail decays polynomially, so "far" is only approximate.
        p = KernelParams(ell=0.5, alpha=1.0, noise=0.04 / 1.3 ** 2)
        model = build_gp(np.array([[0.0]]), np.array([2.0]), p, [1.3])
        mu, var = predict_multi_batch(model, np.array([[50.0]]))
        assert mu.shape == var.shape == (1, 1)
        assert mu[0] == pytest.approx(0.0, abs=1e-3)
        # Observation variance includes the noise term.
        assert var[0] == pytest.approx(1.3 ** 2 + 0.04, abs=1e-3)

    def test_variance_collapses_at_training_points(self):
        p = KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=1e-8)
        X = np.array([[0.0], [10.0]])
        model = build_gp(X, np.array([0.5, -0.5]), p, [1.0])
        _, var_train = predict_multi_batch(model, X)
        _, var_away = predict_multi_batch(model, np.array([[5.0]]))
        assert np.all(var_train < 1e-6)
        assert np.all(var_away > 0.5)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(8, 2))
        model = build_gp(X, rng.normal(size=8),
                         KernelParams(sigma=1.0, ell=1.0, alpha=1.0,
                                      noise=1e-8), [1.0])
        _, var = predict_multi_batch(model,
                                     np.vstack([X, rng.normal(size=(20, 2))]))
        assert np.all(var >= 0.0)

    def test_non_finite_training_data_rejected(self):
        with pytest.raises(ValueError):
            build_gp(np.array([[0.0], [np.nan]]), np.array([1.0, 2.0]), UNIT,
                     [1.0])
        with pytest.raises(ValueError):
            build_gp(np.array([[0.0], [1.0]]), np.array([1.0, np.inf]), UNIT,
                     [1.0])


class TestFit:
    def test_single_sample_uses_defaults(self):
        model = fit(np.array([[0.3]]), np.array([1.0]), rng=0)
        assert model.kernel == KernelParams()
        assert model.sigmas.tolist() == [1.0]
        assert not model.warned

    def test_fit_improves_on_default_evidence(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-3, 3, size=(12, 1))
        y = 0.3 * X[:, 0] ** 2 - 1.0
        model = fit(X, y, restarts=6, rng=1)
        sigma = float(model.sigmas[0])
        fitted = log_marginal_likelihood(X, y, KernelParams(
            sigma=sigma, ell=model.kernel.ell, alpha=model.kernel.alpha,
            noise=model.kernel.noise * sigma ** 2))
        baseline = log_marginal_likelihood(X, y, KernelParams())
        assert fitted >= baseline - 1e-6

    def test_extra_start_never_hurts(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, size=(8, 2))
        Y = np.column_stack([X[:, 0] - 2.0 * X[:, 1], X[:, 0] * X[:, 1]])
        # Only ell, alpha and noise / sigma^2 of a start matter.
        good = KernelParams(sigma=2.0, ell=1.5, alpha=1.0, noise=4e-6)
        model = fit(X, Y, restarts=2, rng=2, extra_starts=(good,))
        assert profiled(X, Y, model.kernel) >= profiled(X, Y, good) - 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_start_never_below_cold_fit(self, seed):
        # Two cold starts plus the 8-start optimum as a warm start never
        # lose evidence against the 8-start fit on the same data.
        X, Y = search_data()
        cold = fit(X, Y, restarts=8, rng=seed)
        warm = fit(X, Y, restarts=2, rng=seed + 10,
                   extra_starts=(cold.kernel,))
        assert profiled(X, Y, warm.kernel) >= (
            profiled(X, Y, cold.kernel) - 1e-6)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 2))
        a = fit(X, Y, restarts=4, rng=123)
        b = fit(X, Y, restarts=4, rng=123)
        assert a.kernel == b.kernel
        assert a.sigmas.tolist() == b.sigmas.tolist()

    def test_vector_is_one_objective(self):
        X, Y = search_data(p=1)
        vector = fit(X, Y[:, 0], restarts=2, rng=4)
        column = fit(X, Y, restarts=2, rng=4)
        assert vector.n_objectives == 1
        assert vector.kernel == column.kernel
        assert vector.sigmas.tolist() == column.sigmas.tolist()

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("call", [
        lambda X, y: fit(X, y, restarts=1, rng=0),
        lambda X, y: log_marginal_likelihood(X, y, UNIT),
    ], ids=["fit", "lml"])
    def test_non_finite_training_data_rejected(self, call):
        with pytest.raises(ValueError):
            call(np.array([[0.0], [np.nan], [1.0]]), np.array([1.0, 2.0, 0.0]))
        with pytest.raises(ValueError):
            call(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, np.inf, 0.0]))

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_rejected(self, restarts):
        X, y = search_data()
        with pytest.raises(ValueError, match="restarts"):
            fit(X, y, restarts=restarts, rng=0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_params_equal_reference_search_bitwise(self, seed):
        X, Y = search_data()
        best_theta, _ = reference_search(X, Y, restarts=3, rng=seed)
        model = fit(X, Y, restarts=3, rng=seed)
        assert model.kernel == unit_kernel(best_theta)
        assert not model.warned

    def test_every_lml_call_goes_through_the_module_attribute(
            self, monkeypatch):
        # The benchmark counts surrogate.lml calls by patching this
        # attribute; a fast path around it would zero that counter.
        X, Y = search_data()
        _, nfev = reference_search(X, Y, restarts=3, rng=5)
        calls = count_lml_calls(monkeypatch)
        fit(X, Y, restarts=3, rng=5)
        assert len(calls) == nfev

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_kernel_fails_like_reference(self, monkeypatch):
        # ell**2 underflows to 0 on these bounds, so every kernel matrix
        # holds NaN: every evaluation must fail as the checked wrappers
        # did, for the same number of evaluations, before the fallback.
        X, Y = search_data()
        bounds = ParamBounds(ell=(1e-300, 1e-200))
        best_theta, nfev = reference_search(X, Y, restarts=2, rng=0,
                                            bounds=bounds)
        assert best_theta is None
        calls = count_lml_calls(monkeypatch)
        with pytest.warns(UserWarning, match="every restart"):
            model = fit(X, Y, bounds=bounds, restarts=2, rng=0)
        assert model.warned and model.kernel == KernelParams()
        assert model.sigmas.tolist() == [1.0, 1.0]
        assert len(calls) == nfev

    def test_bounds_are_respected(self):
        # noise bounds the noise-to-signal ratio tau; sigma clips each
        # objective's fitted scale, here on targets of scale 0.1 and 10.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 1))
        Y = rng.normal(size=(8, 2)) * [0.1, 10.0]
        bounds = ParamBounds(sigma=(0.5, 2.0), ell=(0.5, 2.0),
                             alpha=(0.5, 2.0), noise=(1e-6, 1e-2))
        model = fit(X, Y, bounds=bounds, restarts=4, rng=3)
        assert 0.5 <= model.kernel.ell <= 2.0
        assert 0.5 <= model.kernel.alpha <= 2.0
        assert 1e-6 <= model.kernel.noise <= 1e-2
        assert model.sigmas.tolist() == [0.5, 2.0]


class TestProfiledKernel:
    """One search over the separable kernel B (x) k with B diagonal and
    profiled out: B_jj = y_j' A^-1 y_j / n, A = RQ(ell, alpha; 1) + tau I."""

    @staticmethod
    def scales(X, Y, kernel):
        A = rq_gram(X, X, kernel) + kernel.noise * np.eye(len(Y))
        return np.einsum("ij,ij->j", Y, np.linalg.solve(A, Y)) / len(Y)

    @staticmethod
    def column_sum(X, Y, kernel, scales):
        return sum(log_marginal_likelihood(
            X, y, KernelParams(sigma=float(np.sqrt(b)), ell=kernel.ell,
                               alpha=kernel.alpha, noise=kernel.noise * b))
            for y, b in zip(Y.T, scales))

    def random_kernels(self, seed, count=10):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield KernelParams(sigma=1.0, ell=float(rng.uniform(0.3, 3.0)),
                               alpha=float(rng.uniform(0.5, 10.0)),
                               noise=float(10 ** rng.uniform(-4, 0)))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_equals_sum_of_column_evidences_at_the_profiled_scales(self, p):
        X, Y = search_data(p)
        for kernel in self.random_kernels(p):
            b = self.scales(X, Y, kernel)
            assert profiled(X, Y, kernel) == pytest.approx(
                self.column_sum(X, Y, kernel, b), abs=1e-8)
            # Unprofiled, a matrix's evidence is the sum over its columns.
            assert log_marginal_likelihood(X, Y, kernel) == pytest.approx(
                sum(log_marginal_likelihood(X, y, kernel) for y in Y.T),
                abs=1e-8)
            # Only the noise-to-signal ratio matters, not sigma itself.
            scaled = KernelParams(sigma=3.0, ell=kernel.ell,
                                  alpha=kernel.alpha, noise=9 * kernel.noise)
            assert profiled(X, Y, scaled) == pytest.approx(
                profiled(X, Y, kernel), abs=1e-8)

    def test_every_scale_sits_at_its_optimum(self):
        X, Y = search_data(p=3)
        for kernel in self.random_kernels(7, count=4):
            b = self.scales(X, Y, kernel)
            best = profiled(X, Y, kernel)
            for j in range(3):
                for factor in (0.9, 1.1):
                    moved = b.copy()
                    moved[j] *= factor
                    assert self.column_sum(X, Y, kernel, moved) < best

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gradient_matches_central_differences(self, p):
        X, Y = search_data(p)
        for kernel in self.random_kernels(11 + p, count=4):
            theta = np.log([kernel.ell, kernel.alpha, kernel.noise])
            _, gradient = log_marginal_likelihood(X, Y, kernel,
                                                  profiled=True)
            h = 1e-5
            numeric = [(profiled(X, Y, unit_kernel(theta + h * e))
                        - profiled(X, Y, unit_kernel(theta - h * e))) / (2 * h)
                       for e in np.eye(3)]
            assert gradient == pytest.approx(numeric, rel=1e-5, abs=1e-5)

    def test_search_equals_reference_bitwise(self):
        # Value and gradient through the checked scipy wrappers drive the
        # same L-BFGS-B path to the same bits.
        X, Y = search_data(p=3)
        for kernel in self.random_kernels(5, count=5):
            value, gradient = log_marginal_likelihood(X, Y, kernel,
                                                      profiled=True)
            ref_value, ref_gradient = reference_profiled(X, Y, kernel)
            assert value == ref_value
            assert np.array_equal(gradient, ref_gradient)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_factorization_per_evaluation_for_all_objectives(
            self, monkeypatch, p):
        # A noise ratio of at least 1e-3 keeps every factorization on the
        # first jitter rung, so each one is a single dpotrf call.
        X, Y = search_data(p)
        X[13] += 0.5
        factorizations = []
        dpotrf = surrogate.lapack.dpotrf

        def counted_dpotrf(*args, **kwargs):
            factorizations.append(1)
            return dpotrf(*args, **kwargs)

        per_call = []
        lml = surrogate.log_marginal_likelihood

        def counted_lml(X_, Y_, *args, **kwargs):
            before = len(factorizations)
            value = lml(X_, Y_, *args, **kwargs)
            per_call.append((Y_.shape, len(factorizations) - before))
            return value

        monkeypatch.setattr(surrogate.lapack, "dpotrf", counted_dpotrf)
        monkeypatch.setattr(surrogate, "log_marginal_likelihood", counted_lml)
        model = fit(X, Y, bounds=ParamBounds(noise=(1e-3, 1.0)), restarts=2,
                    rng=0)
        assert per_call and set(per_call) == {((14, p), 1)}
        # Then one factor for the scales, which is the model's factor.
        assert len(factorizations) == len(per_call) + 1
        assert model.n_objectives == p

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_triangular_solve_per_prediction_for_all_objectives(
            self, monkeypatch, p):
        X, Y = search_data(p)
        model = fit(X, Y, restarts=1, rng=0)
        solves = []
        solve_triangular = surrogate.solve_triangular

        def counted(*args, **kwargs):
            solves.append(1)
            return solve_triangular(*args, **kwargs)

        monkeypatch.setattr(surrogate, "solve_triangular", counted)
        mean, var = predict_multi_batch(model, X[:5] + 0.1)
        assert mean.shape == var.shape == (5, p)
        assert len(solves) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_refit_never_ends_below_its_warm_start(self, seed):
        # A refit on a history grown by four rows, from the previous fit
        # and from kernels drawn at random.
        X, Y = search_data(p=2)
        previous = fit_multi(X[:10], Y[:10], restarts=8, rng=seed)
        for start in (previous.kernel, *self.random_kernels(seed, count=3)):
            warm = dataclasses.replace(previous, kernel=start)
            refit = fit_multi(X, Y, restarts=8, rng=seed + 10, warm=warm)
            assert profiled(X, Y, refit.kernel) >= (
                profiled(X, Y, start) - 1e-6)


class TestMultiOutput:
    def test_block_diagonal_matches_joint_oracle(self):
        # The separable model stacked as one joint GP whose Gram matrix is
        # diag(B) (x) (RQ(ell, alpha; 1) + tau I), B_jj = sigma_j^2, must
        # give identical predictions.
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, size=(4, 2))
        Y = np.column_stack([np.sin(X[:, 0]), np.cos(X[:, 1])])
        kernel = KernelParams(ell=0.7, alpha=1.5, noise=1e-3)
        sigmas = np.array([1.2, 0.9])
        multi = build_gp(X, Y, kernel, sigmas)
        Xq = rng.uniform(-1, 1, size=(3, 2))
        mean, var = predict_multi_batch(multi, Xq)

        n = X.shape[0]
        B = np.diag(sigmas ** 2)
        K = np.kron(B, rq_gram(X, X, kernel) + kernel.noise * np.eye(n))
        y_joint = np.concatenate([Y[:, 0], Y[:, 1]])
        for k in range(2):
            k_star = np.kron(B[:, [k]], rq_gram(X, Xq, kernel))
            mean_joint = k_star.T @ np.linalg.solve(K, y_joint)
            prior = B[k, k] * (1.0 + kernel.noise)
            var_joint = prior - np.einsum(
                "ij,ij->j", k_star, np.linalg.solve(K, k_star))
            assert np.allclose(mean[:, k], mean_joint, atol=1e-10)
            assert np.allclose(var[:, k], var_joint, atol=1e-10)

    def test_fit_multi_shares_inputs(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(7, 2))
        Y = np.column_stack([X[:, 0], X[:, 1] ** 2])
        multi = fit_multi(X, Y, restarts=2, rng=rng)
        assert multi.n_objectives == 2
        assert multi.X.shape == multi.Y.shape == (7, 2)
        assert multi.sigmas.shape == (2,) and multi.L.shape == (7, 7)

    def test_best_observed_is_columnwise_min(self):
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([[3.0, -1.0], [1.0, 5.0], [2.0, 0.0]])
        multi = build_gp(X, Y, UNIT, [1.0, 1.0])
        assert np.array_equal(multi.best_observed(), [1.0, -1.0])

    def test_predict_multi_single_point(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        multi = build_gp(X, Y, UNIT, [1.0, 1.0])
        mean, var = predict_multi_batch(multi, np.array([[0.0]]))
        assert mean.shape == var.shape == (1, 2)
        assert np.allclose(mean[0], [1.0, 2.0], atol=1e-3)
        assert np.all(var >= 0.0)
