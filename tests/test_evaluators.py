"""Oracles: symbolic benchmark, coupled channel solver."""

import itertools

import numpy as np
import pytest

import sagep.evaluators as ev
from sagep.embedding import FeatureTable
from sagep.evaluators import (
    DIVERGENCE_SENTINEL,
    ChannelCase,
    ChannelEvaluator,
    EvaluationOutcome,
    SetupError,
    SymbolicBenchmark,
    default_channel_case,
    expensive_call_count,
    load_channel_case,
    make_reference,
    solve_channel,
)
from sagep.symreg import (ConfigurationError, ConstantsPool, ExprTree,
                          constant, op_symbol, parse_expression, terminal)


def term_orders(terms):
    """One tree per order of the terms, all with the same phenotype key."""
    return [parse_expression(" + ".join(order))
            for order in itertools.permutations(terms)]


class TestEvaluationOutcome:
    def test_sentinel_invariant_enforced(self):
        EvaluationOutcome(objectives=np.array([1.0, 2.0]), converged=True)
        EvaluationOutcome(objectives=np.array([DIVERGENCE_SENTINEL] * 2),
                          converged=False)
        with pytest.raises(ValueError):
            EvaluationOutcome(objectives=np.array([1.0, 2.0]),
                              converged=False)

    def test_sentinel_value(self):
        assert DIVERGENCE_SENTINEL == 9999.0


class TestSymbolicBenchmark:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.table = FeatureTable(columns={
            "I1": rng.uniform(0.2, 1.0, size=12),
            "I2": rng.uniform(-1.0, -0.1, size=12)})
        self.bench = SymbolicBenchmark(self.table,
                                       targets=("I1*I1", "0.5 - I2"))

    def test_exact_recovery_scores_zero(self):
        trees = [parse_expression("I1*I1"), parse_expression("0.5 - I2")]
        out = self.bench.evaluate(trees, ConstantsPool(values=(), seed=0))
        assert out.converged
        assert np.allclose(out.objectives, 0.0, atol=1e-12)

    def test_rms_of_constant_offset(self):
        trees = [parse_expression("I1*I1 + 1"), parse_expression("0.5 - I2")]
        out = self.bench.evaluate(trees, ConstantsPool(values=(), seed=0))
        assert out.objectives[0] == pytest.approx(1.0, rel=1e-12)
        assert out.objectives[1] == pytest.approx(0.0, abs=1e-12)

    def test_counter_increments_per_evaluation(self):
        before = expensive_call_count()
        trees = [parse_expression("I1"), parse_expression("I2")]
        self.bench.evaluate(trees, ConstantsPool(values=(), seed=0))
        assert expensive_call_count() == before + 1

    def test_overflow_trips_sentinel(self):
        table = FeatureTable(columns={"I1": np.array([1e300, 1e300])})
        bench = SymbolicBenchmark(table, targets=("I1",))
        trees = [parse_expression("I1*I1*I1")]
        out = bench.evaluate(trees, ConstantsPool(values=(), seed=0))
        assert not out.converged
        assert np.all(out.objectives == DIVERGENCE_SENTINEL)

    def test_slot_map_routes_objectives(self):
        bench = SymbolicBenchmark(self.table, targets=("I1", "I1"),
                                  slot_of_objective=(0, 0))
        assert bench.n_slots == 1
        out = bench.evaluate([parse_expression("I1")],
                             ConstantsPool(values=(), seed=0))
        assert np.allclose(out.objectives, 0.0, atol=1e-12)

    def test_target_must_be_finite_on_table(self):
        table = FeatureTable(columns={"I1": np.array([1e300])})
        with pytest.raises(SetupError):
            SymbolicBenchmark(table, targets=("I1*I1*I1",))

    def test_needs_targets(self):
        with pytest.raises(SetupError):
            SymbolicBenchmark(self.table, targets=())

    def test_target_naming_unknown_column_rejected(self):
        with pytest.raises(SetupError, match="Q"):
            SymbolicBenchmark(self.table, targets=("I1 + Q",))

    def test_negative_slot_rejected(self):
        with pytest.raises(SetupError, match="slot_of_objective"):
            SymbolicBenchmark(self.table, targets=("I1",),
                              slot_of_objective=(-1,))

    def test_term_order_changes_no_bit(self):
        # Objectives depend only on the phenotype key, so every order of
        # the same terms gives the same bits.
        pool = ConstantsPool(values=(), seed=0)
        for terms in (("I1", "I1*I2", "I2"), ("0.3", "I1", "I2")):
            outcomes = {self.bench.evaluate([tree, tree], pool)
                        .objectives.tobytes() for tree in term_orders(terms)}
            assert len(outcomes) == 1, terms

    def test_constant_without_pool_rejected(self):
        tree = ExprTree(op_symbol("*"), (ExprTree(constant(0)),
                                         ExprTree(terminal("I1"))))
        with pytest.raises(ConfigurationError):
            self.bench.evaluate([tree, tree], None)
        with pytest.raises(ConfigurationError):
            ChannelEvaluator(default_channel_case()).evaluate([tree, tree],
                                                              None)


class TestChannelSolver:
    def test_truth_expressions_reproduce_reference(self):
        case = default_channel_case()
        ev_channel = ChannelEvaluator(case)
        trees = [parse_expression(e) for e in case.truth_exprs]
        out = ev_channel.evaluate(trees, ConstantsPool(values=(), seed=0))
        assert out.converged
        assert np.all(out.objectives <= case.tol * 10)

    def test_zero_correction_baseline_converges(self):
        case = default_channel_case()
        out = solve_channel(case, parse_expression("0"),
                            None, parse_expression("0"))
        assert out.converged
        assert 0 < out.iterations <= case.max_iters
        assert np.all(out.objectives >= 0.0)

    def test_negative_diffusivity_diverges(self):
        case = default_channel_case()
        # Forcing alpha_expr to a large negative value makes the effective
        # thermal diffusivity negative, the canonical divergence mode.
        out = solve_channel(case, parse_expression("0"), None,
                            parse_expression("-1000"))
        assert not out.converged
        assert np.all(out.objectives == DIVERGENCE_SENTINEL)

    def test_evaluator_sentinel_on_divergence(self):
        case = default_channel_case()
        ev_channel = ChannelEvaluator(case)
        trees = [parse_expression("0"), parse_expression("-1000")]
        out = ev_channel.evaluate(trees, ConstantsPool(values=(), seed=0))
        assert not out.converged
        assert np.all(out.objectives == DIVERGENCE_SENTINEL)

    def test_evaluator_interface(self):
        ev_channel = ChannelEvaluator(default_channel_case())
        assert ev_channel.n_objectives == 2
        assert ev_channel.terminals == ("I1", "J1")
        table = ev_channel.baseline_table()
        assert set(table.names) == {"I1", "J1"}
        assert np.all(np.isfinite(table.columns["I1"]))

    def test_wall_values_pinned(self):
        case = default_channel_case()
        u, T, _, ok = ev._solve_profiles(case, parse_expression("0"), None,
                                         parse_expression("0"), None,
                                         case.tol)
        assert ok
        assert T[0] == pytest.approx(case.wall_t[0], abs=1e-12)
        assert T[-1] == pytest.approx(case.wall_t[1], abs=1e-12)
        assert np.all(np.diff(T) < 0.0)

    def test_grid_and_profile_shapes(self):
        case = default_channel_case()
        y, h = case.grid()
        nut = case.nut_profile()
        assert y.shape == nut.shape == (case.n_cells,)
        assert y[0] == 0.0 and y[-1] == 1.0
        assert h == pytest.approx(1.0 / (case.n_cells - 1))
        assert np.all(nut >= 0)
        assert nut.max() == pytest.approx(case.nut_max, rel=0.01)

    def test_make_reference_rejects_diverging_truth(self):
        case = ChannelCase(truth_exprs=("0", "-1000"))
        with pytest.raises(SetupError):
            make_reference(case)

    def test_make_reference_rejects_unknown_feature(self):
        case = ChannelCase(truth_exprs=("-0.1 - I2", "0.945 - 2.108*J1"))
        with pytest.raises(SetupError, match="I2"):
            make_reference(case)

    def test_counter_increments(self):
        ev_channel = ChannelEvaluator(default_channel_case())
        before = expensive_call_count()
        trees = [parse_expression("0"), parse_expression("0")]
        ev_channel.evaluate(trees, ConstantsPool(values=(), seed=0))
        assert expensive_call_count() == before + 1

    def test_term_order_changes_no_bit(self):
        ev_channel = ChannelEvaluator(default_channel_case())
        pool = ConstantsPool(values=(), seed=0)
        alpha = parse_expression("0.945 - 2.108*J1")
        for terms in (("I1", "I1*J1", "J1"), ("0.3", "I1", "J1")):
            outcomes = [ev_channel.evaluate([g, alpha], pool)
                        for g in term_orders(terms)]
            assert all(out.converged for out in outcomes)
            assert len({out.objectives.tobytes() for out in outcomes}) == 1

    def test_three_slot_case(self):
        case = ChannelCase(truth_exprs=("-0.1 - I1", "0", "0.945 - 2.108*J1"))
        assert case.slot_names == ("g", "r", "alpha")
        ev_channel = ChannelEvaluator(case)
        trees = [parse_expression(e) for e in case.truth_exprs]
        out = ev_channel.evaluate(trees, ConstantsPool(values=(), seed=0))
        assert out.converged
        assert np.all(out.objectives <= case.tol * 10)


class TestLoadChannelCase:
    def test_defaults_round_trip(self, tmp_path):
        import json
        payload = {"n_cells": 32, "coupling": 12.0, "nut_max": 0.2,
                   "alpha_base": 2.0,
                   "truth": {"g": "-0.1 - I1", "alpha": "0.945 - 2.108*J1"}}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(payload))
        case = load_channel_case(path)
        assert case.n_cells == 32
        assert case.truth_exprs == ("-0.1 - I1", "0.945 - 2.108*J1")
        assert case.reference_u is not None

    def test_unknown_fields_rejected(self):
        with pytest.raises(SetupError):
            load_channel_case({"bogus": 1,
                               "truth": {"g": "0", "alpha": "0"}})

    def test_unknown_truth_slot_rejected(self):
        with pytest.raises(SetupError):
            load_channel_case({"truth": {"g": "0", "alpha": "0", "zz": "0"}})

    @pytest.mark.parametrize("payload", [{"n_cells": "64"},
                                         {"wall_u": ["a", 0.0]}])
    def test_ill_typed_fields_rejected(self, payload):
        with pytest.raises(SetupError, match="invalid channel case"):
            load_channel_case(payload)

    def test_shipped_default_case_matches_builtin(self):
        case = load_channel_case("configs/channel_default.json")
        built = default_channel_case()
        assert case.n_cells == built.n_cells
        assert case.coupling == built.coupling
        assert case.nut_max == built.nut_max
        assert case.alpha_base == built.alpha_base
        assert case.truth_exprs == built.truth_exprs
