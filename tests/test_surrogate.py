"""Rational-quadratic GP: kernel algebra, evidence, fitting, prediction."""

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
    MultiGp,
    ParamBounds,
    build_gp,
    fit,
    fit_multi,
    log_marginal_likelihood,
    predict_batch,
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


def reference_search(X, y, restarts, rng, bounds=ParamBounds()):
    """fit's multi-start search with reference_lml as its objective: the best
    log-parameters (None when every restart failed) and the summed nfev."""
    lo, hi = bounds.log_box()
    rng = np.random.default_rng(rng)

    def objective(log_theta):
        try:
            return -reference_lml(X, y, KernelParams.from_log_array(log_theta))
        except (FitError, ValueError, FloatingPointError, OverflowError):
            return 1e25

    sampler = qmc.Halton(d=4, scramble=True,
                         seed=int(rng.integers(2 ** 31 - 1)))
    best_val, best_theta, nfev = np.inf, None, 0
    for theta0 in [lo + (hi - lo) * row for row in sampler.random(restarts)]:
        res = minimize(objective, theta0, method="Nelder-Mead",
                       bounds=list(zip(lo, hi)),
                       options={"maxiter": 200, "fatol": 1e-7, "xatol": 1e-5})
        nfev += res.nfev
        if np.isfinite(res.fun) and res.fun < best_val and res.fun < 1e24:
            best_val, best_theta = float(res.fun), res.x
    return best_theta, nfev


def search_data():
    """Fixed data for the search tests, with one duplicated row."""
    rng = np.random.default_rng(41)
    X = rng.uniform(-2, 2, size=(14, 2))
    X[13] = X[2]
    y = np.sin(X[:, 0]) - 0.5 * X[:, 1] ** 2 + 0.05 * rng.normal(size=14)
    return X, y


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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelParams(sigma=-1.0, ell=1.0, alpha=1.0, noise=1e-6)
        with pytest.raises(ValueError):
            KernelParams(sigma=1.0, ell=0.0, alpha=1.0, noise=1e-6)
        with pytest.raises(ValueError):
            KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=-1e-3)

    def test_log_array_round_trip(self):
        p = KernelParams(sigma=0.3, ell=2.0, alpha=7.0, noise=1e-4)
        back = KernelParams.from_log_array(p.as_log_array())
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
        assert build_gp(X, y, p).jitter == JITTER_LADDER[rung]
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
        p = KernelParams(sigma=1.5, ell=1.0, alpha=2.0, noise=1e-8)
        model = build_gp(X, y, p)
        mean, _ = predict_batch(model, X)
        assert np.allclose(mean, y, atol=1e-6)

    def test_prior_recovered_far_from_data(self):
        # The RQ tail decays polynomially, so "far" is only approximate.
        p = KernelParams(sigma=1.3, ell=0.5, alpha=1.0, noise=0.04)
        model = build_gp(np.array([[0.0]]), np.array([2.0]), p)
        mu, var = predict_batch(model, np.array([[50.0]]))
        assert mu.shape == var.shape == (1,)
        assert mu[0] == pytest.approx(0.0, abs=1e-3)
        # Observation variance includes the noise term.
        assert var[0] == pytest.approx(1.3 ** 2 + 0.04, abs=1e-3)

    def test_variance_collapses_at_training_points(self):
        p = KernelParams(sigma=1.0, ell=1.0, alpha=1.0, noise=1e-8)
        X = np.array([[0.0], [10.0]])
        model = build_gp(X, np.array([0.5, -0.5]), p)
        _, var_train = predict_batch(model, X)
        _, var_away = predict_batch(model, np.array([[5.0]]))
        assert np.all(var_train < 1e-6)
        assert np.all(var_away > 0.5)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(8, 2))
        model = build_gp(X, rng.normal(size=8),
                         KernelParams(sigma=1.0, ell=1.0, alpha=1.0,
                                      noise=1e-8))
        _, var = predict_batch(model, np.vstack([X, rng.normal(size=(20, 2))]))
        assert np.all(var >= 0.0)

    def test_non_finite_training_data_rejected(self):
        with pytest.raises(ValueError):
            build_gp(np.array([[0.0], [np.nan]]), np.array([1.0, 2.0]), UNIT)
        with pytest.raises(ValueError):
            build_gp(np.array([[0.0], [1.0]]), np.array([1.0, np.inf]), UNIT)


class TestFit:
    def test_single_sample_uses_defaults(self):
        model = fit(np.array([[0.3]]), np.array([1.0]), rng=0)
        assert model.params == KernelParams()
        assert not model.warned

    def test_fit_improves_on_default_evidence(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-3, 3, size=(12, 1))
        y = 0.3 * X[:, 0] ** 2 - 1.0
        model = fit(X, y, restarts=6, rng=1)
        fitted = log_marginal_likelihood(X, y, model.params)
        baseline = log_marginal_likelihood(X, y, KernelParams())
        assert fitted >= baseline - 1e-6

    def test_extra_start_never_hurts(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, size=(8, 2))
        y = X[:, 0] - 2.0 * X[:, 1]
        good = KernelParams(sigma=2.0, ell=1.5, alpha=1.0, noise=1e-6)
        model = fit(X, y, restarts=2, rng=2, extra_starts=(good,))
        assert log_marginal_likelihood(X, y, model.params) >= (
            log_marginal_likelihood(X, y, good) - 1e-4)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        a = fit(X, y, restarts=4, rng=123)
        b = fit(X, y, restarts=4, rng=123)
        assert a.params == b.params

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
        X, y = search_data()
        best_theta, _ = reference_search(X, y, restarts=3, rng=seed)
        model = fit(X, y, restarts=3, rng=seed)
        assert model.params == KernelParams.from_log_array(best_theta)
        assert not model.warned

    def test_every_lml_call_goes_through_the_module_attribute(
            self, monkeypatch):
        # The benchmark counts surrogate.lml calls by patching this
        # attribute; a fast path around it would zero that counter.
        X, y = search_data()
        _, nfev = reference_search(X, y, restarts=3, rng=5)
        calls = count_lml_calls(monkeypatch)
        fit(X, y, restarts=3, rng=5)
        assert len(calls) == nfev

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_kernel_fails_like_reference(self, monkeypatch):
        # ell**2 underflows to 0 on these bounds, so every kernel matrix
        # holds NaN: every evaluation must fail as the checked wrappers
        # did, for the same number of evaluations, before the fallback.
        X, y = search_data()
        bounds = ParamBounds(ell=(1e-300, 1e-200))
        best_theta, nfev = reference_search(X, y, restarts=2, rng=0,
                                            bounds=bounds)
        assert best_theta is None
        calls = count_lml_calls(monkeypatch)
        with pytest.warns(UserWarning, match="every restart"):
            model = fit(X, y, bounds=bounds, restarts=2, rng=0)
        assert model.warned and model.params == KernelParams()
        assert len(calls) == nfev

    def test_bounds_are_respected(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 1))
        y = rng.normal(size=8)
        bounds = ParamBounds(sigma=(0.5, 2.0), ell=(0.5, 2.0),
                             alpha=(0.5, 2.0), noise=(1e-6, 1e-2))
        model = fit(X, y, bounds=bounds, restarts=4, rng=3)
        assert 0.5 <= model.params.sigma <= 2.0
        assert 0.5 <= model.params.ell <= 2.0
        assert 0.5 <= model.params.alpha <= 2.0
        assert 1e-6 <= model.params.noise <= 1e-2


class TestMultiOutput:
    def test_block_diagonal_matches_joint_oracle(self):
        # Two independent outputs stacked as one joint GP with a
        # block-diagonal Gram matrix must give identical predictions.
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, size=(4, 2))
        Y = np.column_stack([np.sin(X[:, 0]), np.cos(X[:, 1])])
        params = [KernelParams(sigma=1.2, ell=0.7, alpha=1.5, noise=1e-4),
                  KernelParams(sigma=0.9, ell=1.1, alpha=2.5, noise=1e-3)]
        multi = MultiGp(models=tuple(build_gp(X, Y[:, k], params[k])
                                     for k in range(2)))
        Xq = rng.uniform(-1, 1, size=(3, 2))
        mean, var = predict_multi_batch(multi, Xq)

        n = X.shape[0]
        for k in range(2):
            K = np.zeros((2 * n, 2 * n))
            K[k * n:(k + 1) * n, k * n:(k + 1) * n] = (
                rq_gram(X, X, params[k]) + params[k].noise * np.eye(n))
            other = 1 - k
            K[other * n:(other + 1) * n, other * n:(other + 1) * n] = (
                rq_gram(X, X, params[other])
                + params[other].noise * np.eye(n))
            y_joint = np.concatenate([Y[:, 0], Y[:, 1]])
            k_star = np.zeros((2 * n, Xq.shape[0]))
            k_star[k * n:(k + 1) * n] = rq_gram(X, Xq, params[k])
            mean_joint = k_star.T @ np.linalg.solve(K, y_joint)
            prior = params[k].sigma ** 2 + params[k].noise
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
        for model in multi.models:
            assert model.X is not None and model.X.shape == (7, 2)

    def test_best_observed_is_columnwise_min(self):
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([[3.0, -1.0], [1.0, 5.0], [2.0, 0.0]])
        multi = MultiGp(models=tuple(build_gp(X, Y[:, k], UNIT)
                                     for k in range(2)))
        assert np.array_equal(multi.best_observed(), [1.0, -1.0])

    def test_predict_multi_single_point(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        multi = MultiGp(models=tuple(build_gp(X, Y[:, k], UNIT)
                                     for k in range(2)))
        mean, var = predict_multi_batch(multi, np.array([[0.0]]))
        assert mean.shape == var.shape == (1, 2)
        assert np.allclose(mean[0], [1.0, 2.0], atol=1e-3)
        assert np.all(var >= 0.0)
