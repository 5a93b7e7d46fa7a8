"""Rational-quadratic GP: kernel algebra, evidence, fitting, prediction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky
from scipy.optimize import minimize
from scipy.spatial.distance import cdist
from scipy.stats import qmc

from sagep import surrogate
from sagep.surrogate import (
    JITTER_LADDER,
    SEARCH_BOX,
    SIGMA_CLIP,
    FitError,
    KernelParams,
    build_gp,
    fit,
    fit_multi,
    log_marginal_likelihood,
    predict_multi_batch,
    rq_gram,
)

UNIT = KernelParams(ell=1.0, alpha=1.0, noise=1e-6)
LOG_LO, LOG_HI = np.log(SEARCH_BOX)


def dense_profiled(X, Y, params):
    """The profiled evidence through an explicit solve and slogdet: the
    matrix-normal evidence of the columns of Y at B_jj = y_j' A^-1 y_j / n,
    A = K + tau I."""
    n, p = Y.shape
    A = rq_gram(X, X, params) + params.noise * np.eye(n)
    sign, logdet = np.linalg.slogdet(A)
    assert sign > 0
    B = np.einsum("ij,ij->j", Y, np.linalg.solve(A, Y)) / n
    return float(np.sum(-0.5 * n * np.log(B) - 0.5 * logdet
                        - 0.5 * n * (1.0 + np.log(2.0 * np.pi))))


def reference_lml(X, y, params, scale=1.0):
    """The unprofiled evidence of one column y under the covariance
    scale * (K + tau I), through scipy's checked Cholesky."""
    L = cholesky(scale * (rq_gram(X, X, params)
                          + params.noise * np.eye(len(y))), lower=True)
    return float(-0.5 * y @ cho_solve((L, True), y)
                 - np.sum(np.log(np.diag(L)))
                 - 0.5 * len(y) * np.log(2.0 * np.pi))


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


def reference_search(X, Y, restarts, rng, box=SEARCH_BOX):
    """fit's multi-start search over log(ell, alpha, tau) in box, from the
    same starts, by scipy's L-BFGS-B with reference_profiled as its
    objective: the best search point (None when every restart failed) and
    the summed nfev."""
    lo, hi = np.log(box)
    rng = np.random.default_rng(rng)

    def objective(log_theta):
        try:
            value, gradient = reference_profiled(
                X, Y, KernelParams.from_log_array(log_theta))
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


def evidence(X, Y, params):
    """The package's profiled evidence and gradient of Y, a vector being
    one column, at inputs X."""
    Y = np.asarray(Y, dtype=float).reshape(len(X), -1)
    return log_marginal_likelihood(Y, params, surrogate._sqdist(X, X))


def profiled(X, Y, params):
    return evidence(X, Y, params)[0]


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


def spy_searches(monkeypatch):
    """Wrap surrogate._bounded_bfgs; the returned list gets each search's
    evaluation count."""
    counts = []
    search = surrogate._bounded_bfgs

    def spy(*args):
        result = search(*args)
        counts.append(result[2])
        return result

    monkeypatch.setattr(surrogate, "_bounded_bfgs", spy)
    return counts


def quadratic(A, c):
    """f(x) = (x - c)' A (x - c) / 2 with its gradient."""
    def objective(x):
        r = A @ (x - c)
        return 0.5 * (x - c) @ r, r
    return objective


class TestBoundedBfgs:
    def test_box_quadratic_stops_on_the_projected_optimum(self):
        objective = quadratic(np.diag([1.0, 10.0, 100.0]), [2.0, -3.0, 0.5])
        lo, hi = -np.ones(3), np.ones(3)
        x, f, nfev = surrogate._bounded_bfgs(objective, np.zeros(3), lo, hi)
        assert x[:2].tolist() == [1.0, -1.0]
        assert x[2] == pytest.approx(0.5, abs=1e-6)
        assert f == objective(x)[0]
        assert np.max(np.abs(np.clip(x - objective(x)[1], lo, hi) - x)
                      ) <= surrogate._PGTOL
        assert nfev < 30

    def test_reaches_lbfgsb_optimum_on_random_quadratics(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            A = Q @ np.diag(10 ** rng.uniform(-1, 2, size=3)) @ Q.T
            objective = quadratic(A, rng.normal(scale=3, size=3))
            lo = rng.uniform(-3, 0, size=3)
            hi = lo + rng.uniform(0.5, 4, size=3)
            x0 = lo + (hi - lo) * rng.random(3)
            ref = minimize(objective, x0, jac=True, method="L-BFGS-B",
                           bounds=list(zip(lo, hi)))
            _, f, _ = surrogate._bounded_bfgs(objective, x0, lo, hi)
            assert f <= ref.fun + 1e-8

    def test_negative_curvature_grows_the_step(self):
        # Concave in x0: every step finds negative curvature, so each line
        # search starts at twice the last trial, and the bound is reached
        # in a few steps, not in one unit step at a time.
        def objective(x):
            return (-0.5 * x[0] ** 2 + (x[1] - 0.5) ** 2,
                    np.array([-x[0], 2.0 * (x[1] - 0.5)]))

        x, _, nfev = surrogate._bounded_bfgs(objective, np.array([0.1, 0.5]),
                                            np.full(2, -50.0),
                                            np.full(2, 50.0))
        assert x[0] == -50.0 or x[0] == 50.0
        assert nfev <= 12

    def test_failed_start_costs_one_evaluation(self):
        calls = []

        def failing(x):
            calls.append(x)
            return 1e25, np.zeros(3)

        lo, hi = np.zeros(3), np.ones(3)
        x, f, nfev = surrogate._bounded_bfgs(failing, np.array([0.5, 2.0, 0.2]),
                                             lo, hi)
        assert (f, nfev, len(calls)) == (1e25, 1, 1)
        assert x.tolist() == [0.5, 1.0, 0.2]

    @pytest.mark.parametrize("budget", [2, 3, 7])
    def test_evaluation_budget_is_a_hard_cap(self, monkeypatch, budget):
        # The first trial step overshoots; a budget spent inside a line
        # search keeps the last accepted point, not the rejected trial.
        monkeypatch.setattr(surrogate, "_MAXFUN", budget)
        objective = quadratic(np.diag([1e3, 1.0, 1e-2]), [0.8, -0.2, 5.0])
        calls = []

        def counted(x):
            calls.append(x)
            return objective(x)

        x0 = np.array([0.9, 0.0, 0.0])
        x, f, nfev = surrogate._bounded_bfgs(counted, x0, -np.ones(3),
                                             np.ones(3))
        assert nfev == len(calls) == budget
        assert f == objective(x)[0] <= objective(x0)[0]


class TestSqdist:
    @settings(deadline=None)
    @given(st.integers(1, 33), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-300, 1e-3, 1.0,
                                                         1e150]))
    def test_equals_cdist_bitwise(self, d, n, m, seed, scale):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * scale
        X2 = rng.normal(size=(m, d)) * scale
        X2[0] = X[0]
        assert (surrogate._sqdist(X, X2).tobytes()
                == cdist(X, X2, "sqeuclidean").tobytes())

    def test_subnormal_differences_raise_no_warning(self):
        # Rows an ulp or a subnormal apart: each square underflows to 0.
        X = np.array([[5e-324, 0.0, 1.0], [1e-310, -3e-320, 1.0],
                      [2.2250738585072014e-308, 0.0, 1.0 + 2 ** -52]])
        with np.errstate(all="raise"):
            sq = surrogate._sqdist(X, X)
        assert sq.tobytes() == cdist(X, X, "sqeuclidean").tobytes()
        assert sq[0, 1] == 0.0 and np.all(np.diag(sq) == 0.0)

    def test_vector_rows(self):
        a, b = np.array([1.0, 2.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
        assert surrogate._sqdist(a, b).tolist() == [[5.0, 4.0]]


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
    def test_zero_distance_gives_one(self):
        # The kernel is at unit scale; MultiGp.sigmas scales each objective.
        p = KernelParams(ell=0.3, alpha=2.0, noise=1e-6)
        x = np.array([[0.4, -1.2]])
        G = rq_gram(x, x, p)
        assert G.shape == (1, 1)
        assert G[0, 0] == 1.0

    def test_unit_params_at_squared_distance_two(self):
        # ell = alpha = 1 and |x - x'|^2 = 2 gives (1 + 2/2)^-1 = 0.5.
        x, x2 = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        assert rq_gram(x, x2, UNIT)[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_large_alpha_approaches_squared_exponential(self):
        p = KernelParams(ell=1.0, alpha=1e6, noise=1e-6)
        x, x2 = np.array([[0.0]]), np.array([[1.0]])
        assert rq_gram(x, x2, p)[0, 0] == pytest.approx(np.exp(-0.5),
                                                        abs=1e-3)

    def test_gram_matches_pairwise_kernel(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 3))
        X2 = rng.normal(size=(4, 3))
        p = KernelParams(ell=0.5, alpha=3.0, noise=1e-6)
        G = rq_gram(X, X2, p)
        assert G.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                sq = np.sum((X[i] - X2[j]) ** 2)
                rq = (1.0 + sq / (2.0 * p.alpha * p.ell ** 2)) ** -p.alpha
                assert G[i, j] == pytest.approx(rq, rel=1e-12)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 50.0),
           st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_kernel_decreases_with_distance(self, ell, alpha, d1, d2):
        p = KernelParams(ell=ell, alpha=alpha, noise=1e-6)
        near, far = sorted((d1, d2))
        k_near = rq_gram(np.array([[0.0]]), np.array([[near]]), p)[0, 0]
        k_far = rq_gram(np.array([[0.0]]), np.array([[far]]), p)[0, 0]
        assert k_near >= k_far
        assert 0.0 < k_far <= 1.0

    def test_tiny_squared_distance_does_not_underflow(self):
        # 1e-320 / (2 alpha ell^2) underflows to 0, and the kernel at a
        # squared distance of 0 is the correct value there.
        with np.errstate(all="raise"):
            K = surrogate._rq_from_sqdist(np.array([[0.0, 1e-320]]),
                                          KernelParams(ell=10.0))
        assert K.tolist() == [[1.0, 1.0]]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelParams(ell=-1.0, alpha=1.0, noise=1e-6)
        with pytest.raises(ValueError):
            KernelParams(ell=0.0, alpha=1.0, noise=1e-6)
        with pytest.raises(ValueError):
            KernelParams(ell=1.0, alpha=0.0, noise=1e-6)
        with pytest.raises(ValueError):
            KernelParams(ell=1.0, alpha=1.0, noise=-1e-3)

    def test_log_array_round_trip(self):
        p = KernelParams(ell=2.0, alpha=7.0, noise=1e-4)
        back = KernelParams.from_log_array(np.log([p.ell, p.alpha, p.noise]))
        for name in ("ell", "alpha", "noise"):
            assert getattr(back, name) == pytest.approx(getattr(p, name),
                                                        rel=1e-12)


class TestEvidence:
    def test_single_point_closed_form(self):
        # n = 1: B = y^2 / (1 + tau) cancels tau, and the profiled
        # evidence is -log|y| - (1 + log 2 pi) / 2.
        p = KernelParams(ell=1.0, alpha=1.0, noise=1e-8)
        for y, value in ((1.0, -1.4189385), (-3.0, -2.5175508)):
            assert profiled(np.array([[0.0]]), np.array([y]), p) == (
                pytest.approx(value, abs=1e-6))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            # A scale s and a noise variance: the profiled evidence
            # depends only on their ratio tau.
            s = float(rng.uniform(0.2, 2.0))
            p = KernelParams(ell=float(rng.uniform(0.3, 2.0)),
                             alpha=float(rng.uniform(0.5, 5.0)),
                             noise=float(rng.uniform(1e-4, 1e-1)) / s ** 2)
            assert profiled(X, y, p) == pytest.approx(
                dense_profiled(X, y[:, None], p), abs=1e-8)

    def test_duplicate_rows_survive_via_jitter(self):
        X = np.zeros((4, 2))
        y = np.array([0.1, 0.1, 0.1, 0.1])
        p = KernelParams(ell=1.0, alpha=1.0, noise=1e-8)
        val = profiled(X, y, p)
        assert np.isfinite(val)

    def test_equals_checked_reference_bitwise(self):
        rng = np.random.default_rng(29)
        for n, d in ((2, 1), (7, 2), (20, 3), (45, 2)):
            X = rng.normal(size=(n, d))
            Y = rng.normal(size=(n, 2))
            for _ in range(10):
                p = KernelParams.from_log_array(
                    LOG_LO + (LOG_HI - LOG_LO) * rng.random(3))
                value, gradient = evidence(X, Y, p)
                ref_value, ref_gradient = reference_profiled(X, Y, p)
                assert value == ref_value
                assert np.array_equal(gradient, ref_gradient)

    def test_precomputed_distances_give_the_same_bits(self):
        # The search passes one distance matrix to every evaluation, so an
        # evaluation must neither write into it nor depend on earlier ones.
        rng = np.random.default_rng(31)
        X = rng.normal(size=(30, 2))
        Y = rng.normal(size=(30, 1))
        sq = surrogate._sqdist(X, X)
        for _ in range(20):
            p = KernelParams.from_log_array(
                LOG_LO + (LOG_HI - LOG_LO) * rng.random(3))
            value, gradient = log_marginal_likelihood(Y, p, sq)
            fresh_value, fresh_gradient = evidence(X, Y, p)
            assert value == fresh_value
            assert np.array_equal(gradient, fresh_gradient)
        assert sq.tobytes() == surrogate._sqdist(X, X).tobytes()

    # At (3e4, 3e-8), K_ii + noise + jitter added in two steps rounds
    # differently from K_ii + (noise + jitter); each rung factors the
    # latter, as scipy's checked Cholesky of K + (noise + jitter) I does.
    @pytest.mark.parametrize("sigma, noise, rung", [(3e4, 3e-8, 2),
                                                    (3e5, 1e-8, 3)])
    def test_duplicate_rows_take_the_same_jitter_rung(self, sigma, noise,
                                                      rung):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 2))
        X = np.vstack([X, X[:3]])
        K = sigma ** 2 * rq_gram(X, X, UNIT)
        L, jitter = surrogate._chol_with_jitter(K, noise)
        assert jitter == JITTER_LADDER[rung]
        for below in JITTER_LADDER[:rung]:
            with pytest.raises(np.linalg.LinAlgError):
                cholesky(K + (noise + below) * np.eye(9), lower=True)
        reference = cholesky(K + (noise + jitter) * np.eye(9), lower=True)
        assert L.tobytes() == reference.tobytes()

    def test_noise_floor_enforced(self):
        with pytest.raises(ValueError):
            KernelParams(ell=1.0, alpha=1.0, noise=0.0)

    def test_shape_mismatch_rejected(self):
        # The evidence takes fit's checked arrays; fit checks the shapes.
        with pytest.raises(ValueError, match="row counts"):
            fit(np.zeros((3, 1)), np.zeros(2))


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
        p = KernelParams(ell=1.0, alpha=1.0, noise=1e-8)
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
                         KernelParams(ell=1.0, alpha=1.0, noise=1e-8), [1.0])
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
        fitted = reference_lml(X, y, model.kernel, model.sigmas[0] ** 2)
        baseline = reference_lml(X, y, KernelParams())
        assert fitted >= baseline - 1e-6

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
        assert vector.Y.shape == (X.shape[0], 1)
        assert vector.kernel == column.kernel
        assert vector.sigmas.tolist() == column.sigmas.tolist()

    @pytest.mark.parametrize("n", [1, 14])
    def test_vector_and_column_give_the_same_bits(self, n):
        X, Y = search_data(p=1)
        y = Y[:n, 0]
        vector, column = (fit(X[:n], targets, restarts=2, rng=4)
                          for targets in (y, y[:, None]))
        assert (vector.kernel, vector.jitter, vector.warned,
                vector.searched_n) == (column.kernel, column.jitter,
                                       column.warned, column.searched_n)
        for name in ("X", "Y", "sigmas", "L", "weights"):
            a, b = getattr(vector, name), getattr(column, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("call", [
        lambda X, y: fit(X, y, restarts=1, rng=0),
    ], ids=["fit"])
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

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_best_evidence_reaches_reference_search(self, seed, p):
        # L-BFGS-B from the same starts is the oracle: the in-repo search
        # may stop at other bits, but not on a lower optimum.
        X, Y = search_data(p)
        best_theta, _ = reference_search(X, Y, restarts=3, rng=seed)
        model = fit(X, Y, restarts=3, rng=seed)
        assert not model.warned
        assert (profiled(X, Y, model.kernel)
                >= profiled(X, Y, KernelParams.from_log_array(best_theta))
                - 1e-7)

    def test_every_lml_call_goes_through_the_module_attribute(
            self, monkeypatch):
        # The benchmark counts surrogate.lml calls by patching this
        # attribute; a fast path around it would zero that counter.
        X, Y = search_data()
        counts = spy_searches(monkeypatch)
        calls = count_lml_calls(monkeypatch)
        fit(X, Y, restarts=3, rng=5)
        assert len(counts) == 3 and min(counts) > 1
        assert len(calls) == sum(counts)

    def test_a_failing_start_costs_one_call(self, monkeypatch):
        # The first start's only evaluation fails; the others search.
        X, Y = search_data()
        counts = spy_searches(monkeypatch)
        calls = count_lml_calls(monkeypatch)
        counted = surrogate.log_marginal_likelihood

        def first_fails(*args, **kwargs):
            value = counted(*args, **kwargs)
            if len(calls) == 1:
                raise FitError("indefinite")
            return value

        monkeypatch.setattr(surrogate, "log_marginal_likelihood", first_fails)
        model = fit(X, Y, restarts=3, rng=5)
        assert counts[0] == 1 and min(counts[1:]) > 1
        assert len(calls) == sum(counts)
        assert not model.warned

    def test_failing_every_start_falls_back_to_defaults(self, monkeypatch):
        X, Y = search_data()
        calls = count_lml_calls(monkeypatch)
        counted = surrogate.log_marginal_likelihood

        def always_fails(*args):
            counted(*args)
            raise FitError("indefinite")

        monkeypatch.setattr(surrogate, "log_marginal_likelihood",
                            always_fails)
        with pytest.warns(UserWarning, match="every restart"):
            model = fit(X, Y, restarts=2, rng=0)
        assert model.warned and model.kernel == KernelParams()
        assert model.sigmas.tolist() == [1.0, 1.0]
        assert model.searched_n == 0
        # One call per failing start.
        assert len(calls) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_kernel_fails_like_reference(self, monkeypatch):
        # ell**2 underflows to 0 in this box, so every kernel matrix holds
        # NaN: every evaluation must fail as the checked wrappers did, for
        # the same number of evaluations, before the fallback.
        X, Y = search_data()
        box = ((1e-300, 1e-2, 1e-8), (1e-200, 1e3, 1e1))
        monkeypatch.setattr(surrogate, "SEARCH_BOX", box)
        best_theta, nfev = reference_search(X, Y, restarts=2, rng=0, box=box)
        assert best_theta is None
        calls = count_lml_calls(monkeypatch)
        with pytest.warns(UserWarning, match="every restart"):
            model = fit(X, Y, restarts=2, rng=0)
        assert model.warned and model.kernel == KernelParams()
        # One call per failing start.
        assert len(calls) == nfev == 2

    def test_bounds_are_respected(self):
        # The box of (ell, alpha, tau) and the sigma clip are fixed, at
        # values set for z-scored inputs and log10 targets.
        assert SEARCH_BOX == ((1e-2, 1e-2, 1e-8), (1e2, 1e3, 1e1))
        assert SIGMA_CLIP == (1e-3, 1e2)
        # Targets of scale 1e-5 and 1e4 clip their fitted scales.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 1))
        Y = rng.normal(size=(8, 2)) * [1e-5, 1e4]
        model = fit(X, Y, restarts=4, rng=3)
        k = model.kernel
        assert np.all(np.array(SEARCH_BOX[0]) <= [k.ell, k.alpha, k.noise])
        assert np.all([k.ell, k.alpha, k.noise] <= np.array(SEARCH_BOX[1]))
        assert model.sigmas.tolist() == [1e-3, 1e2]


class TestProfiledKernel:
    """One search over the separable kernel B (x) k with B diagonal and
    profiled out: B_jj = y_j' A^-1 y_j / n, A = RQ(ell, alpha; 1) + tau I."""

    @staticmethod
    def scales(X, Y, kernel):
        A = rq_gram(X, X, kernel) + kernel.noise * np.eye(len(Y))
        return np.einsum("ij,ij->j", Y, np.linalg.solve(A, Y)) / len(Y)

    @staticmethod
    def column_sum(X, Y, kernel, scales):
        return sum(reference_lml(X, y, kernel, b)
                   for y, b in zip(Y.T, scales))

    def random_kernels(self, seed, count=10):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield KernelParams(ell=float(rng.uniform(0.3, 3.0)),
                               alpha=float(rng.uniform(0.5, 10.0)),
                               noise=float(10 ** rng.uniform(-4, 0)))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_equals_sum_of_column_evidences_at_the_profiled_scales(self, p):
        X, Y = search_data(p)
        for kernel in self.random_kernels(p):
            b = self.scales(X, Y, kernel)
            assert profiled(X, Y, kernel) == pytest.approx(
                self.column_sum(X, Y, kernel, b), abs=1e-8)
            # Targets scaled by 3 scale every B_jj by 9 and leave the
            # kernel's fit alone: the evidence moves by -n p log 3.
            n = len(Y)
            assert profiled(X, 3.0 * Y, kernel) == pytest.approx(
                profiled(X, Y, kernel) - n * p * np.log(3.0), abs=1e-8)

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
            _, gradient = evidence(X, Y, kernel)
            h = 1e-5
            at = KernelParams.from_log_array
            numeric = [(profiled(X, Y, at(theta + h * e))
                        - profiled(X, Y, at(theta - h * e))) / (2 * h)
                       for e in np.eye(3)]
            assert gradient == pytest.approx(numeric, rel=1e-5, abs=1e-5)

    def test_search_equals_reference_bitwise(self):
        # Value and gradient through the checked scipy wrappers drive the
        # same L-BFGS-B path to the same bits.
        X, Y = search_data(p=3)
        for kernel in self.random_kernels(5, count=5):
            value, gradient = evidence(X, Y, kernel)
            ref_value, ref_gradient = reference_profiled(X, Y, kernel)
            assert value == ref_value
            assert np.array_equal(gradient, ref_gradient)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_factorization_per_evaluation_for_all_objectives(
            self, monkeypatch, p):
        # Without duplicate rows every factorization stays on the first
        # jitter rung, so each one is a single dpotrf call.
        X, Y = search_data(p)
        X[13] += 0.5
        factorizations = []
        dpotrf = surrogate.lapack.dpotrf

        def counted_dpotrf(*args, **kwargs):
            factorizations.append(1)
            return dpotrf(*args, **kwargs)

        per_call = []
        lml = surrogate.log_marginal_likelihood

        def counted_lml(Y_, *args):
            before = len(factorizations)
            value = lml(Y_, *args)
            per_call.append((Y_.shape, len(factorizations) - before))
            return value

        monkeypatch.setattr(surrogate.lapack, "dpotrf", counted_dpotrf)
        monkeypatch.setattr(surrogate, "log_marginal_likelihood", counted_lml)
        model = fit(X, Y, restarts=2, rng=0)
        assert per_call and set(per_call) == {((14, p), 1)}
        # Then one factor for the scales, which is the model's factor.
        assert len(factorizations) == len(per_call) + 1
        assert model.Y.shape[1] == p

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_triangular_solve_per_prediction_for_all_objectives(
            self, monkeypatch, p):
        X, Y = search_data(p)
        model = fit(X, Y, restarts=1, rng=0)
        solves = []
        dtrtrs = surrogate.lapack.dtrtrs

        def counted(*args, **kwargs):
            solves.append(1)
            return dtrtrs(*args, **kwargs)

        monkeypatch.setattr(surrogate.lapack, "dtrtrs", counted)
        mean, var = predict_multi_batch(model, X[:5] + 0.1)
        assert mean.shape == var.shape == (5, p)
        assert len(solves) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kept_kernel_refit_is_fits_closing_step(self, seed):
        # A refit on the search's own 10 rows is the searched model, and one
        # on 12 rows (< 1.25 x 10) is the factor and profiled scales at the
        # kept kernel, bit for bit.
        X, Y = search_data(p=2)
        searched = fit(X[:10], Y[:10], restarts=8, rng=seed)
        same = fit_multi(X[:10], Y[:10], restarts=8, rng=seed + 10,
                         last=searched)
        grown = fit_multi(X[:12], Y[:12], restarts=8, rng=seed + 10,
                          last=searched)
        reference = build_gp(X[:12], Y[:12], searched.kernel, [1.0, 1.0])
        quad = np.einsum("ij,ij->j", Y[:12], reference.weights)
        reference = dataclasses.replace(
            reference, sigmas=np.clip(np.sqrt(quad / 12), *SIGMA_CLIP),
            searched_n=10)
        for refit, expected in ((same, searched), (grown, reference)):
            assert refit.kernel == expected.kernel
            assert refit.searched_n == expected.searched_n == 10
            assert refit.jitter == expected.jitter
            assert not refit.warned
            for name in ("X", "Y", "L", "weights", "sigmas"):
                assert (getattr(refit, name).tobytes()
                        == getattr(expected, name).tobytes())


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
        assert multi.X.shape == multi.Y.shape == (7, 2)
        assert multi.sigmas.shape == (2,) and multi.L.shape == (7, 7)

    @pytest.mark.parametrize("last_n, warned, n, search", [
        (None, False, 12, True),
        (10, False, 12, False),
        (10, False, 13, True),
        (8, False, 10, True),
        (10, True, 12, True),
        (0, False, 12, True),
    ], ids=["first", "grown-20pct", "grown-30pct", "grown-25pct", "fallback",
            "unsearched"])
    def test_fit_multi_searches_only_on_growth(self, monkeypatch, last_n,
                                               warned, n, search):
        X, Y = search_data(p=2)
        last = None if last_n is None else dataclasses.replace(
            build_gp(X[:10], Y[:10], UNIT, [1.0, 1.0], warned=warned),
            searched_n=last_n)
        searches = []
        original = surrogate.fit

        def spy(*args, **kwargs):
            searches.append(kwargs["restarts"])
            return original(*args, **kwargs)

        monkeypatch.setattr(surrogate, "fit", spy)
        model = fit_multi(X[:n], Y[:n], restarts=3, rng=5, last=last)
        assert searches == ([3] if search else [])
        if search:
            expected = original(X[:n], Y[:n], restarts=3, rng=5)
            assert model.kernel == expected.kernel and model.searched_n == n
            assert model.sigmas.tobytes() == expected.sigmas.tobytes()
        else:
            assert model.kernel == UNIT and model.searched_n == last_n
        assert model.n == n

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
