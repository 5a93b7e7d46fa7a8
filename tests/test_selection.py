"""Acquisition metrics, aggregation, thresholds, per-generation selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from sagep.fields import ConfigError
from sagep.selection import (
    SelectionConfig,
    SelectionContractError,
    SelectionDecision,
    SelectionHistory,
    aggregate_multiobjective,
    apply_thresholds,
    convergence_weights,
    ei,
    lcb,
    select_generation,
)
from sagep.surrogate import KernelParams, build_gp, predict_multi_batch
from sagep.symreg import Candidate

TIGHT = KernelParams(ell=1.0, alpha=1.0, noise=1e-8)


def make_model(X, Y):
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return build_gp(X, Y, TIGHT, np.ones(Y.shape[1]))


def make_history(X, diverged=np.empty((0, 2))):
    """A history whose objectives and outcomes, unread by selection, are 0
    and empty."""
    return SelectionHistory(converged_points=X,
                            converged_objectives=np.zeros((len(X), 2)),
                            diverged_points=diverged, outcomes={})


def make_candidate(cid, emb):
    emb = np.asarray(emb, dtype=float)
    return Candidate(genotypes=(), id=cid,
                     phenotype_keys=(f"k{cid}",), embedding=emb,
                     embedding_norm=emb)


class TestLcb:
    def test_worked_examples(self):
        assert lcb(1.0, 0.5, 2.0) == 0.0
        assert lcb(0.0, 1.0, 5.0) == 5.0

    def test_vectorized(self):
        out = lcb(np.array([1.0, 0.0]), np.array([0.5, 1.0]), 2.0)
        assert np.array_equal(out, [0.0, 2.0])

    @given(st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=1,
                    max_size=20))
    def test_beta_zero_ranks_by_smallest_mean(self, means):
        means = np.asarray(means)
        # The test's own data: 0.1 times the smallest normal is subnormal.
        with np.errstate(under="ignore"):
            stds = np.abs(means) * 0.1 + 0.5
        assert np.argmax(lcb(means, stds, 0.0)) == np.argmin(means)


def ndtr_ei(mean, std, f_best, xi):
    """EI with scipy's ndtr as its normal cdf, as selection computed it
    while it imported scipy.special."""
    improve = f_best - mean - xi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        z = np.where(std > 0, improve / np.where(std > 0, std, 1.0), 0.0)
        pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
        spread = improve * ndtr(z) + std * pdf
    return np.where(std > 0, spread, np.maximum(improve, 0.0))


class TestEi:
    @given(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(0, 1),
                              st.floats(-0.5, 0.5)), min_size=1, max_size=8),
           st.floats(0, 0.2))
    def test_matches_scipy_ndtr_formula(self, rows, xi):
        mean, std, f_best = (np.array(c) for c in zip(*rows))
        assert np.max(np.abs(ei(mean, std, f_best, xi)
                             - ndtr_ei(mean, std, f_best, xi))) <= 1e-15

    def test_matches_scipy_ndtr_formula_across_z(self):
        # z from -1e4 to 1e4, through both tails and the centre.
        mean = np.linspace(-0.5, 0.5, 2001)[:, None]
        std = np.array([1e-4, 1e-2, 0.05, 0.3, 1.0])[None, :]
        mean, std = np.broadcast_arrays(mean, std)
        assert np.max(np.abs(ei(mean, std, 0.0, 0.0)
                             - ndtr_ei(mean, std, 0.0, 0.0))) <= 1e-15

    def test_at_the_incumbent(self):
        # mu = f_best, sigma = 1: EI collapses to the standard normal pdf at 0.
        assert ei(0.0, 1.0, 0.0, 0.0) == pytest.approx(0.3989423, abs=1e-6)

    def test_deterministic_improvement(self):
        assert ei(-1.0, 0.0, 0.0, 0.0) == 1.0

    def test_deterministic_no_improvement(self):
        assert ei(1.0, 0.0, 0.0, 0.0) == 0.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(size=200_000)
        for mu, sigma in [(0.0, 1.0), (0.5, 0.2), (-1.0, 2.0)]:
            mc = np.mean(np.maximum(0.0, 0.3 - (mu + sigma * draws)))
            assert ei(mu, sigma, 0.3) == pytest.approx(mc, rel=0.02)

    @given(st.floats(-5, 5), st.floats(0, 5), st.floats(-5, 5),
           st.floats(0, 2))
    def test_never_negative(self, mu, sigma, f_best, xi):
        assert ei(mu, sigma, f_best, xi) >= 0.0

    def test_tiny_spread_raises_no_floating_point_error(self):
        # z = improvement / sigma of 1e200 overflows z**2 and one of +-40
        # underflows the pdf's exp; EI is then the clipped improvement.
        with np.errstate(all="raise"):
            vals = ei(np.array([-1.0, -4e-199, 4e-199]), np.full(3, 1e-200),
                      0.0)
        assert np.array_equal(vals, [1.0, 4e-199, 0.0])

    def test_monotone_in_mean_and_spread(self):
        mus = np.linspace(-2, 2, 9)
        vals = ei(mus, np.ones_like(mus), 0.5)
        assert np.all(np.diff(vals) <= 1e-12)
        sigmas = np.linspace(0.0, 3.0, 9)
        vals = ei(np.full_like(sigmas, 0.5), sigmas, 0.5)
        assert np.all(np.diff(vals) >= -1e-12)


def weight_of(x, conv, div, delta):
    """Weight of one point, through the batch function."""
    w = convergence_weights(np.array([x], dtype=float), conv, div, delta)
    assert w.shape == (1,)
    return w[0]


def scalar_weight(x, conv, div, delta):
    """Reference weight of one point: nearest members found row by row."""
    d_div = np.linalg.norm(div - x, axis=1)
    dist_div = float(np.min(d_div))
    if conv.shape[0] == 0:
        return 0.0 if dist_div == 0.0 else 1.0
    nearest_conv = conv[int(np.argmin(np.linalg.norm(conv - x, axis=1)))]
    denom = delta * float(np.linalg.norm(nearest_conv
                                         - div[int(np.argmin(d_div))]))
    if denom == 0.0:
        return 0.0 if dist_div == 0.0 else 1.0
    return min(1.0, dist_div / denom)


class TestConvergenceWeight:
    # Geometry shared by the examples: one diverged point at the origin, one
    # converged point at distance 1, so the separation scale is exactly 1.
    conv = np.array([[1.0, 0.0]])
    div = np.array([[0.0, 0.0]])

    def test_saturates_beyond_delta_fraction(self):
        w = weight_of([0.6, 0.0], self.conv, self.div, 0.5)
        assert w == 1.0

    def test_linear_ramp_inside(self):
        w = weight_of([0.2, 0.0], self.conv, self.div, 0.5)
        assert w == pytest.approx(0.4, abs=1e-12)

    def test_zero_on_diverged_point(self):
        assert weight_of([0.0, 0.0], self.conv, self.div, 0.5) == 0.0

    def test_no_divergence_history_means_no_discount(self):
        w = weight_of([5.0, 5.0], self.conv, np.empty((0, 2)), 0.5)
        assert w == 1.0

    def test_empty_history_is_contract_violation(self):
        with pytest.raises(SelectionContractError):
            convergence_weights(np.zeros((1, 2)), np.empty((0, 2)),
                                np.empty((0, 2)), 0.5)

    def test_delta_validated(self):
        with pytest.raises(SelectionContractError):
            convergence_weights(np.zeros((1, 2)), self.conv, self.div, 0.0)
        with pytest.raises(SelectionContractError):
            convergence_weights(np.zeros((1, 2)), self.conv, self.div, 1.5)

    def test_uses_nearest_members(self):
        conv = np.array([[10.0, 0.0], [1.0, 0.0]])
        div = np.array([[0.0, 0.0], [20.0, 0.0]])
        # Nearest diverged is the origin, nearest converged is (1, 0).
        w = weight_of([0.25, 0.0], conv, div, 0.5)
        assert w == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_monotone_in_distance_from_divergence(self, d1, d2):
        near, far = sorted((d1, d2))
        w_near = weight_of([near, 0.0], self.conv, self.div, 0.75)
        w_far = weight_of([far, 0.0], self.conv, self.div, 0.75)
        assert 0.0 <= w_near <= w_far <= 1.0

    def test_subnormal_distance_raises_no_floating_point_error(self):
        # The squared difference of 5e-324 underflows to 0 in the norm.
        with np.errstate(all="raise"):
            w = weight_of([5e-324, 0.0], self.conv, self.div, 0.75)
            conv = np.vstack([self.conv, [5e-324, 5e-324]])
            w_conv = weight_of([5e-324, 0.0], conv, self.div, 0.75)
        assert 0.0 <= w <= weight_of([1e-3, 0.0], self.conv, self.div, 0.75)
        assert 0.0 <= w_conv <= 1.0

    def test_vectorized_matches_scalar(self):
        # Bit for bit: selection compares weighted values, so a last-bit
        # difference can change which candidate is evaluated.
        rng = np.random.default_rng(5)
        for trial in range(50):
            dim = int(rng.integers(1, 4))
            X = rng.normal(size=(20, dim))
            conv = rng.normal(size=(int(rng.integers(0, 6)), dim))
            div = np.vstack([rng.normal(size=(int(rng.integers(1, 6)), dim)),
                             X[:1]])
            delta = float(rng.uniform(0.1, 1.0))
            expect = [scalar_weight(row, conv, div, delta) for row in X]
            assert convergence_weights(X, conv, div, delta).tolist() == expect


class TestAggregate:
    def test_symmetric_tradeoff(self):
        scalar, front = aggregate_multiobjective(np.array([[1.0, 0.0],
                                                           [0.0, 1.0]]))
        assert np.array_equal(scalar, [1.0, 1.0])
        assert np.array_equal(front, [0, 0])

    def test_dominating_row_wins(self):
        scalar, front = aggregate_multiobjective(np.array([[2.0, 2.0],
                                                           [1.0, 1.0]]))
        assert np.array_equal(scalar, [1.0, 0.0])
        assert np.array_equal(front, [0, 1])

    def test_single_objective(self):
        scalar, front = aggregate_multiobjective(np.array([[3.0], [1.0],
                                                           [2.0]]))
        assert np.array_equal(scalar, [1.0, 0.0, 0.5])
        assert np.array_equal(front, [0, 2, 1])

    def test_zero_span_column_normalizes_to_zero(self):
        scalar, _ = aggregate_multiobjective(np.array([[4.0, 1.0],
                                                       [4.0, 0.0]]))
        assert np.array_equal(scalar, [1.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(SelectionContractError):
            aggregate_multiobjective(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_subnormal_value_raises_no_floating_point_error(self):
        # 2.2e-311 / 0.4375 is subnormal, the normalized value it rounds to.
        with np.errstate(all="raise"):
            scalar, _ = aggregate_multiobjective(np.array(
                [[0.0, 0.0], [0.0, 0.4375], [0.0, 2.225073858507e-311]]))
        assert scalar[:2].tolist() == [0.0, 1.0] and 0.0 < scalar[2] < 1e-300

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=1, max_size=15))
    def test_scalar_range_and_max_attained(self, rows):
        values = np.asarray(rows)
        scalar, front = aggregate_multiobjective(values)
        assert np.all((scalar >= 0.0) & (scalar <= 1.0))
        has_span = np.any(values.max(axis=0) > values.min(axis=0))
        if has_span:
            assert scalar.max() == 1.0
        else:
            assert np.all(scalar == 0.0)
        assert front.min() == 0


def brute_force_thresholds(scalar, front_index, config):
    passing = [i for i in range(len(scalar))
               if (config.m_rel is None or scalar[i] >= config.m_rel)
               and (config.m_pareto is None or front_index[i] < config.m_pareto)]
    if config.m_fixed is not None:
        passing = sorted(passing, key=lambda i: (-scalar[i], i))[:config.m_fixed]
    return sorted(passing)


def bare(**fields):
    """SelectionConfig with n_init 1 and no threshold or filter unless
    fields sets one."""
    return SelectionConfig(**{"n_init": 1, "m_init_rel": None,
                              "m_fixed": None, "m_rel": None, **fields})


class TestThresholds:
    def test_fixed_count_takes_top(self):
        cfg = bare(m_fixed=1)
        out = apply_thresholds(np.array([0.9, 0.3]), np.zeros(2, dtype=int),
                               cfg)
        assert out == [0]

    def test_combined_rule(self):
        # Cap of 10 with a 0.5 floor keeps exactly the candidates >= 0.5.
        cfg = bare(m_fixed=10, m_rel=0.5)
        out = apply_thresholds(np.array([0.6, 0.4, 0.7]),
                               np.zeros(3, dtype=int), cfg)
        assert out == [0, 2]

    def test_pareto_threshold(self):
        scalar, front = aggregate_multiobjective(np.array([[2.0, 2.0],
                                                           [1.0, 1.0]]))
        out = apply_thresholds(scalar, front, bare(m_pareto=1))
        assert out == [0]

    def test_ties_break_by_lower_id(self):
        cfg = bare(m_fixed=2)
        out = apply_thresholds(np.array([0.5, 0.5, 0.5]),
                               np.zeros(3, dtype=int), cfg)
        assert out == [0, 1]

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12),
           st.one_of(st.none(), st.integers(1, 12)),
           st.one_of(st.none(), st.floats(0, 1)),
           st.one_of(st.none(), st.integers(1, 4)))
    def test_matches_brute_force(self, scalars, m_fixed, m_rel, m_pareto):
        scalar = np.asarray(scalars)
        rng = np.random.default_rng(len(scalars))
        front = rng.integers(0, 4, size=len(scalars))
        cfg = bare(m_fixed=m_fixed, m_rel=m_rel, m_pareto=m_pareto)
        got = apply_thresholds(scalar, front, cfg)
        assert got == brute_force_thresholds(scalar, front, cfg)
        if m_fixed is not None:
            assert len(got) <= m_fixed


class TestSelectGeneration:
    def test_non_finite_embedding_rejected(self):
        # Unusable candidates are the caller's to handle.
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        pop = [make_candidate(0, [0.0, 0.0]), make_candidate(1, [np.nan, 0.0])]
        with pytest.raises(SelectionContractError, match="finite"):
            select_generation(1, pop, make_model(X, np.zeros((2, 2))),
                              make_history(X), bare(m_fixed=1),
                              np.random.default_rng(0))

    @pytest.mark.parametrize("gen, size", [(0, 1), (2, 0)])
    def test_ranks_a_non_empty_population_from_generation_one(self, gen,
                                                             size):
        # Generation 0 evaluates every offered candidate without ranking,
        # and the caller skips selection when nothing is offered.
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        pop = [make_candidate(0, [0.5, 0.5])][:size]
        with pytest.raises(SelectionContractError, match="generation 1"):
            select_generation(gen, pop, make_model(X, np.zeros((2, 2))),
                              make_history(X), bare(m_fixed=1),
                              np.random.default_rng(0))

    def test_gen_two_needs_a_threshold(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = make_model(X, np.zeros((2, 2)))
        history = make_history(X)
        with pytest.raises(SelectionContractError):
            select_generation(2, [make_candidate(0, [0.5, 0.5])], model,
                              history, bare(),
                              np.random.default_rng(0))

    def test_uncertain_candidate_beats_known_one_under_large_beta(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = make_model(X, np.zeros((2, 2)))
        history = make_history(X)
        pop = [make_candidate(0, [0.0, 0.0]),   # at a training embedding
               make_candidate(1, [8.0, 8.0])]   # far away, high variance
        cfg = bare(metric="lcb", beta=50.0, m_fixed=1)
        decision = select_generation(2, pop, model, history, cfg,
                                     np.random.default_rng(0))
        assert decision.selected_ids == [1]

    @pytest.mark.parametrize("gen", [1, 2])
    def test_leaves_candidates_untouched(self, gen):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = make_model(X, np.array([[1.0, 2.0], [1.0, 2.0]]))
        pop = [make_candidate(0, [0.0, 0.0]), make_candidate(1, [7.0, 7.0])]
        cfg = bare(metric="lcb", beta=50.0, n_init=1, m_fixed=1)
        decision = select_generation(gen, pop, model, make_history(X), cfg,
                                     np.random.default_rng(0))
        assert decision.selected_ids
        for cand in pop:
            assert cand.objectives is None
        # GP-space means for every candidate, selected or not.
        assert decision.means.shape == (2, 2)
        assert np.allclose(decision.means[0], [1.0, 2.0], atol=1e-3)

    def test_diverged_neighbor_discounts_weight(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = make_model(X, np.zeros((2, 2)))
        history = make_history(X, diverged=np.array([[2.0, 2.0]]))
        pop = [make_candidate(0, [2.0, 2.0]),
               make_candidate(1, [2.1, 2.1]),
               make_candidate(2, [0.0, 0.0])]
        cfg = bare(metric="lcb", beta=5.0, delta=0.75, m_fixed=1)
        decision = select_generation(2, pop, model, history, cfg,
                                     np.random.default_rng(0))
        weights = convergence_weights([c.embedding_norm for c in pop],
                                      X, history.diverged_points, cfg.delta)
        assert weights[0] == 0.0
        assert 0.0 < weights[1] < 1.0
        assert weights[2] == 1.0
        # On the diverged point the discount zeroes the large spread; next
        # to it the discounted spread still beats the known point's.
        assert decision.selected_ids == [1]

    def test_initial_sampling_bounds_and_dedupe(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(6, 2))
        model = make_model(X, np.zeros((6, 2)))
        history = make_history(X)
        pop = [make_candidate(i, rng.uniform(0, 1, size=2))
               for i in range(20)]
        cfg = bare(metric="lcb", beta=5.0, n_init=5, m_fixed=1)
        decision = select_generation(1, pop, model, history, cfg,
                                     np.random.default_rng(9))
        assert len(decision.selected_ids) <= 5
        assert len(set(decision.selected_ids)) == len(decision.selected_ids)

    def test_initial_sampling_relative_filter(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(4, 2))
        model = make_model(X, np.zeros((4, 2)))
        history = make_history(X)
        pop = [make_candidate(i, rng.uniform(0, 1, size=2)) for i in range(8)]
        cfg = bare(metric="lcb", beta=5.0, n_init=8, m_init_rel=1.0,
                   m_fixed=1)
        decision = select_generation(1, pop, model, history, cfg,
                                     np.random.default_rng(1))
        # A floor of exactly 1.0 keeps only picks at the top scalar value;
        # with no diverged history every weight is 1.
        means, variances = predict_multi_batch(
            model, [c.embedding_norm for c in pop])
        scalar, _ = aggregate_multiobjective(
            lcb(means, np.sqrt(variances), cfg.beta))
        picked = [i for i, c in enumerate(pop)
                  if c.id in decision.selected_ids]
        assert all(scalar[i] == 1.0 for i in picked)
        assert len(decision.selected_ids) < len(pop)

    def test_selection_is_deterministic(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(0, 1, size=(5, 2))
        model = make_model(X, rng.normal(size=(5, 2)))
        history = make_history(X)

        def run():
            pop = [make_candidate(i, rng_pop.uniform(0, 1, size=2))
                   for i in range(10)]
            return select_generation(1, pop, model, history,
                                     SelectionConfig().for_population(10),
                                     np.random.default_rng(77)).selected_ids

        rng_pop = np.random.default_rng(5)
        first = run()
        rng_pop = np.random.default_rng(5)
        second = run()
        assert first == second

    def test_ei_metric_route(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = make_model(X, np.array([[0.5, 0.4], [0.2, 0.3]]))
        history = make_history(X)
        pop = [make_candidate(0, [0.5, 0.5]), make_candidate(1, [4.0, 4.0])]
        cfg = bare(metric="ei", xi=0.0, m_fixed=1)
        decision = select_generation(2, pop, model, history, cfg,
                                     np.random.default_rng(0))
        assert len(decision.selected_ids) == 1
        # Each objective's EI is below its own best observed target, 0.2
        # and 0.3; no weight discounts without a diverged history.
        means, variances = predict_multi_batch(model, [[0.5, 0.5], [4.0, 4.0]])
        expect = np.column_stack([ei(means[:, j], np.sqrt(variances[:, j]),
                                     best, 0.0)
                                  for j, best in enumerate([0.2, 0.3])])
        scalar, front_index = aggregate_multiobjective(expect)
        assert np.all(np.isfinite(scalar))
        assert decision.selected_ids == apply_thresholds(scalar, front_index,
                                                         cfg, ids=[0, 1])


class TestSelectionConfig:
    @pytest.mark.parametrize("name", ["beta", "xi", "delta"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "0.5",
                                     None])
    def test_float_fields_must_be_finite_numbers(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            SelectionConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["m_init_rel", "m_rel"])
    @pytest.mark.parametrize("bad", [True, False, "0.5"])
    def test_ratios_must_be_numbers_or_none(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            SelectionConfig(**{name: bad})

    def test_integral_numbers_accepted(self):
        cfg = SelectionConfig(beta=5, xi=0, delta=1, m_init_rel=0, m_rel=1)
        assert (cfg.beta, cfg.xi, cfg.delta) == (5, 0, 1)


class TestDefaultSelectionScaling:
    def test_shape(self):
        # A run's defaults are the field defaults, n_init resolved against
        # the population where it is used.
        assert SelectionConfig().n_init is None
        cfg = SelectionConfig().for_population(96)
        assert cfg.metric == "lcb"
        assert cfg.beta == 5.0
        assert cfg.delta == 0.75
        assert cfg.n_init == 38
        assert cfg.m_init_rel == 0.5
        assert cfg.m_fixed == 1
        assert cfg.m_rel == 0.25
        assert cfg.m_pareto is None

    def test_n_init_floor(self):
        assert SelectionConfig().for_population(1).n_init == 1
        assert SelectionConfig(n_init=3).for_population(96).n_init == 3
