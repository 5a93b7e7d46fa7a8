"""Oracles: symbolic benchmark, coupled channel solver."""

import dataclasses
import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded
from scipy.linalg.lapack import dgtsv

import sagep.evaluators as ev
from sagep.embedding import FeatureTable
from sagep.evaluators import (
    DIVERGENCE_SENTINEL,
    ChannelCase,
    ChannelEvaluator,
    EvaluationOutcome,
    SymbolicBenchmark,
    default_channel_case,
    expensive_call_count,
    load_channel_case,
    make_reference,
)
from sagep.fields import ConfigError
from sagep.symreg import parse_expression, tree_polynomial


THREE_SLOT_TRUTH = ("-0.1 - I1", "0.0", "0.945 - 2.108*J1")


def reference_tridiag_solve(diff_face, source, walls, h):
    """One row of the channel's tridiagonal solve through scipy's banded
    route, which calls dgtsv on that row's system alone."""
    n = len(source)
    lower = diff_face[:-1]
    upper = diff_face[1:]
    rhs = -source[1:-1] * h * h
    rhs[0] -= lower[0] * walls[0]
    rhs[-1] -= upper[-1] * walls[1]
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = -(diff_face[:-1] + diff_face[1:])
    ab[2, :-1] = lower[1:]
    inner = solve_banded((1, 1), ab, rhs, check_finite=False)
    return np.concatenate([[walls[0]], inner, [walls[1]]])


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
        out = self.bench.evaluate(trees)
        assert out.converged
        assert np.allclose(out.objectives, 0.0, atol=1e-12)

    def test_rms_of_constant_offset(self):
        trees = [parse_expression("I1*I1 + 1"), parse_expression("0.5 - I2")]
        out = self.bench.evaluate(trees)
        assert out.objectives[0] == pytest.approx(1.0, rel=1e-12)
        assert out.objectives[1] == pytest.approx(0.0, abs=1e-12)

    def test_counter_increments_per_evaluation(self):
        before = expensive_call_count()
        trees = [parse_expression("I1"), parse_expression("I2")]
        self.bench.evaluate(trees)
        assert expensive_call_count() == before + 1

    def test_overflow_trips_sentinel(self):
        table = FeatureTable(columns={"I1": np.array([1e300, 1e300])})
        bench = SymbolicBenchmark(table, targets=("I1",))
        trees = [parse_expression("I1*I1*I1")]
        out = bench.evaluate(trees)
        assert not out.converged
        assert np.all(out.objectives == DIVERGENCE_SENTINEL)

    def test_slot_map_routes_objectives(self):
        bench = SymbolicBenchmark(self.table, targets=("I1", "I1"),
                                  slot_of_objective=(0, 0))
        assert bench.n_slots == 1
        out = bench.evaluate([parse_expression("I1")])
        assert np.allclose(out.objectives, 0.0, atol=1e-12)

    def test_target_must_be_finite_on_table(self):
        table = FeatureTable(columns={"I1": np.array([1e300])})
        with pytest.raises(ConfigError):
            SymbolicBenchmark(table, targets=("I1*I1*I1",))

    def test_needs_targets(self):
        with pytest.raises(ConfigError):
            SymbolicBenchmark(self.table, targets=())

    def test_target_naming_unknown_column_rejected(self):
        with pytest.raises(ConfigError, match="Q"):
            SymbolicBenchmark(self.table, targets=("I1 + Q",))

    def test_negative_slot_rejected(self):
        with pytest.raises(ConfigError, match="slot_of_objective"):
            SymbolicBenchmark(self.table, targets=("I1",),
                              slot_of_objective=(-1,))

    def test_term_order_changes_no_bit(self):
        # Objectives depend only on the phenotype key, so every order of
        # the same terms gives the same bits.
        for terms in (("I1", "I1*I2", "I2"), ("0.3", "I1", "I2")):
            outcomes = {self.bench.evaluate([tree, tree])
                        .objectives.tobytes() for tree in term_orders(terms)}
            assert len(outcomes) == 1, terms


class TestChannelSolver:
    def test_truth_expressions_reproduce_reference(self):
        case = default_channel_case()
        ev_channel = ChannelEvaluator(case)
        trees = [parse_expression(e) for e in case.truth_exprs]
        out = ev_channel.evaluate(trees)
        assert out.converged
        assert np.all(out.objectives <= case.tol * 10)

    def test_zero_correction_baseline_converges(self):
        case = default_channel_case()
        out = ChannelEvaluator(case).evaluate([parse_expression("0"),
                                               parse_expression("0")])
        assert out.converged
        assert 0 < out.iterations <= case.max_iters
        assert np.all(out.objectives >= 0.0)

    def test_negative_diffusivity_diverges(self):
        case = default_channel_case()
        # Forcing alpha_expr to a large negative value makes the effective
        # thermal diffusivity negative, the canonical divergence mode.
        out = ChannelEvaluator(case).evaluate([parse_expression("0"),
                                               parse_expression("-1000")])
        assert not out.converged
        assert np.all(out.objectives == DIVERGENCE_SENTINEL)

    def test_evaluator_sentinel_on_divergence(self):
        case = default_channel_case()
        ev_channel = ChannelEvaluator(case)
        trees = [parse_expression("0"), parse_expression("-1000")]
        out = ev_channel.evaluate(trees)
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
        zero = tree_polynomial(parse_expression("0"))
        u, T, _, ok = ev._solve_batch(case, [(zero, {}, zero)], case.tol)[0]
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
        with pytest.raises(ConfigError):
            make_reference(case)

    def test_make_reference_rejects_unknown_feature(self):
        case = ChannelCase(truth_exprs=("-0.1 - I2", "0.945 - 2.108*J1"))
        with pytest.raises(ConfigError, match="I2"):
            make_reference(case)

    def test_counter_increments(self):
        ev_channel = ChannelEvaluator(default_channel_case())
        before = expensive_call_count()
        trees = [parse_expression("0"), parse_expression("0")]
        ev_channel.evaluate(trees)
        assert expensive_call_count() == before + 1

    def test_term_order_changes_no_bit(self):
        ev_channel = ChannelEvaluator(default_channel_case())
        alpha = parse_expression("0.945 - 2.108*J1")
        for terms in (("I1", "I1*J1", "J1"), ("0.3", "I1", "J1")):
            outcomes = [ev_channel.evaluate([g, alpha])
                        for g in term_orders(terms)]
            assert all(out.converged for out in outcomes)
            assert len({out.objectives.tobytes() for out in outcomes}) == 1

    def test_three_slot_case(self):
        case = ChannelCase(truth_exprs=("-0.1 - I1", "0", "0.945 - 2.108*J1"))
        ev_channel = ChannelEvaluator(case)
        assert ev_channel.n_slots == 3
        trees = [parse_expression(e) for e in case.truth_exprs]
        out = ev_channel.evaluate(trees)
        assert out.converged
        assert np.all(out.objectives <= case.tol * 10)

    @pytest.mark.parametrize("r", ["1e200*1e200", "1e300*I1*I1*I1"],
                             ids=["infinite-production", "feature-overflow"])
    def test_non_finite_closure_gives_sentinel_without_warning(self, r):
        # r = inf makes the source NaN at the walls, where nut is 0; a huge
        # finite r overflows the squared gradients of the next iterate.
        ev_channel = ChannelEvaluator(ChannelCase(truth_exprs=THREE_SLOT_TRUTH))
        trees = [parse_expression(e) for e in
                 (THREE_SLOT_TRUTH[0], r, THREE_SLOT_TRUTH[2])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ev_channel.evaluate(trees)
        assert out.converged is False
        assert np.all(out.objectives == DIVERGENCE_SENTINEL)


# sha256 of u.tobytes() + T.tobytes(), iterations and converged of the
# batch-of-one _solve_batch on the default case at its tolerance.
SOLVE_PINS = {
    "truth": (("-0.1 - I1", "0.945 - 2.108*J1"), None,
              "3eb261cabd4604bada973195d8b00535ebccf9024f3b45f2cabf42255775e146",
              29, True),
    "zero": ((None, None), None,
             "ef729a65fbbb371f3c67624b6143be8a4b05ed9208aa94471e850af614e544bd",
             15, True),
    "gep-linear": (("0.3*I1 - 0.2*J1", "0.5 + I1*J1"), None,
                   "d13590032bdd3f6e339fa760a223a7be0fcde9a6152f14a20d6b6f6e180647b1",
                   14, True),
    "gep-square": (("-0.05 - 0.8*I1*I1", "1.2*J1 - 0.3*I1"), None,
                   "24bcf9817e801c7db45d47a33c84abc3e48000f011e0c1e0ea4502ae966f79ac",
                   15, True),
    "gep-cross": (("I1 + J1 + 0.1*I1*J1", "0.945 - 2.108*J1*J1"), None,
                  "315615b1c391b525d8f55d0605a48cad7f4e5b0781505d52cb8ee7ac3b404773",
                  10, False),
    "gep-strong": (("-1.7*I1 + 0.4", "-0.9 + 3.1*J1"), None,
                   "9984d8de33e60da536f0f58225c2a43113ec1ed5da8ce36f19aea9a6d0953b57",
                   17, True),
    "negative-diffusivity": (("0", "-1000"), None,
                             "cf0b8a67f44786d645e071fdaa49813e23e349dbddd183e43739014ad26f1d0c",
                             1, False),
    "cut-off": (("-0.1 - I1", "0.945 - 2.108*J1"), 4,
                "e323f3c42cff730213f1b610110154a89a2372171574efd8cb044f94d03585cc",
                4, False),
}

positive = st.floats(1e-3, 1e3)
finite = st.floats(-1e3, 1e3)


@st.composite
def stacked_system(draw, n):
    """(faces, source, walls) of one row of a stacked solve.  Some rows
    are all zeros, whose solution is zeros of one sign, and some carry an
    inf or nan source cell."""
    faces = draw(st.lists(positive, min_size=n - 1, max_size=n - 1))
    kind = draw(st.sampled_from(["random", "zeros", "inf", "nan"]))
    if kind == "zeros":
        return faces, [0.0] * n, (0.0, 0.0)
    source = draw(st.lists(finite, min_size=n, max_size=n))
    if kind != "random":
        source[draw(st.integers(0, n - 1))] = float(kind) * draw(
            st.sampled_from([1.0, -1.0]))
    return faces, source, draw(st.tuples(finite, finite))


class TestSolveBits:
    @pytest.mark.parametrize("name", SOLVE_PINS)
    def test_solve_bits_pinned(self, name):
        exprs, max_iters, digest, iterations, converged = SOLVE_PINS[name]
        case = default_channel_case()
        if max_iters is not None:
            case = dataclasses.replace(case, max_iters=max_iters)
        u, T, its, ok = ev._solve_batch(case, [pin_closures(name)],
                                        case.tol)[0]
        assert hashlib.sha256(u.tobytes() + T.tobytes()).hexdigest() == digest
        assert (its, ok) == (iterations, converged)

    @given(st.integers(8, 80).flatmap(lambda n: st.tuples(
        st.lists(positive, min_size=n - 1, max_size=n - 1),
        st.lists(finite, min_size=n, max_size=n))),
        st.tuples(finite, finite), st.floats(1e-2, 1.0))
    def test_tridiag_solve_equals_banded_route_bitwise(self, arrays, walls, h):
        diff_face, source = (np.array(a) for a in arrays)
        with np.errstate(all="ignore"):
            got = ev._tridiag_solve(diff_face[None], source[None],
                                    np.array([walls]), h)
            ref = reference_tridiag_solve(diff_face, source, walls, h)
        assert got.shape == (1, len(source))
        assert got[0].tobytes() == ref.tobytes()

    @given(st.integers(8, 24).flatmap(lambda n: st.lists(
        stacked_system(n), min_size=1, max_size=6)), st.floats(1e-2, 1.0))
    def test_stacked_rows_equal_their_lone_solves_bitwise(self, systems, h):
        # Zero links join the rows into one system: no non-finite row may
        # leak into a neighbour, nor a link flip the sign of a zero.
        diff_face, source, walls = (np.array(a) for a in zip(*systems))
        with np.errstate(all="ignore"):
            got = ev._tridiag_solve(diff_face, source, walls, h)
            for i, row in enumerate(got):
                ref = reference_tridiag_solve(diff_face[i], source[i],
                                              walls[i], h)
                assert row.tobytes() == ref.tobytes(), i

    def test_finite_rows_take_one_dgtsv_call(self, monkeypatch):
        # A non-finite middle row leaks nan into both neighbours through
        # the zero links, so all three are solved again on their own.
        calls = count_dgtsv(monkeypatch)
        rng = np.random.default_rng(3)
        diff_face = rng.uniform(0.5, 2.0, (3, 15))
        source = rng.uniform(-1.0, 1.0, (3, 16))
        walls = np.array([[0.0, 0.0], [0.5, -0.5], [1.0, 2.0]])
        ev._tridiag_solve(diff_face, source, walls, 0.1)
        assert len(calls) == 1
        source[1, 1] = np.inf
        with np.errstate(all="ignore"):
            got = ev._tridiag_solve(diff_face, source, walls, 0.1)
        assert calls[1:] == [42, 14, 14, 14]
        assert not np.isfinite(got[1]).all()
        for i in (0, 2):
            ref = reference_tridiag_solve(diff_face[i], source[i], walls[i],
                                          0.1)
            assert got[i].tobytes() == ref.tobytes()

    def test_zero_row_keeps_the_sign_of_its_lone_zeros(self):
        # The lone solve of the zero row gives +0.0; the link to the
        # negative row below would give -0.0, so that row is solved alone.
        diff_face = np.ones((2, 9))
        source = np.zeros((2, 10))
        walls = np.array([[0.0, 0.0], [-1.0, -1.0]])
        got = ev._tridiag_solve(diff_face, source, walls, 0.1)
        for i in range(2):
            ref = reference_tridiag_solve(diff_face[i], source[i], walls[i],
                                          0.1)
            assert got[i].tobytes() == ref.tobytes(), i
        assert np.signbit(got[0]).sum() == 0

    def test_singular_system_raises_like_banded_route(self):
        args = (np.zeros(7), np.ones(8), (0.0, 1.0), 0.1)
        with pytest.raises(LinAlgError):
            reference_tridiag_solve(*args)
        with pytest.raises(LinAlgError):
            ev._tridiag_solve(np.zeros((1, 7)), np.ones((1, 8)),
                              np.array([[0.0, 1.0]]), 0.1)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=80),
           st.floats(1e-3, 10.0))
    def test_gradient_equals_numpy_bitwise(self, values, h):
        f = np.array(values)
        with np.errstate(all="ignore"):
            got = ev._gradient(f, h)
            ref = np.gradient(f, h)
        assert got.tobytes() == ref.tobytes()


def count_dgtsv(monkeypatch):
    """The list that gains one entry, the system's size, per dgtsv call of
    the evaluators."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(ev, "dgtsv", counted)
    return calls


def pin_closures(name):
    exprs = SOLVE_PINS[name][0]
    return ev._closure_slots([{} if e is None
                              else tree_polynomial(parse_expression(e))
                              for e in exprs])


def profile_digest(u, T):
    return hashlib.sha256(u.tobytes() + T.tobytes()).hexdigest()


SOLO: dict = {}


def solo(name):
    """The batch-of-one solve of a pin's closures on the default case."""
    if name not in SOLO:
        case = default_channel_case()
        SOLO[name] = ev._solve_batch(case, [pin_closures(name)],
                                     case.tol)[0]
    return SOLO[name]


class TestSolveBatch:
    def test_default_case_batch_reproduces_the_pins(self):
        # Exit at iteration 1, divergence at 10 and convergence at 14-29,
        # all in one batch.
        case = default_channel_case()
        solved = ev._solve_batch(case, [pin_closures(name)
                                        for name in SOLVE_PINS], case.tol)
        rows = dict(zip(SOLVE_PINS, solved))
        for name, (_, max_iters, digest, iterations, converged) in (
                SOLVE_PINS.items()):
            u, T, its, ok = rows[name if max_iters is None else "truth"]
            if max_iters is None:
                assert profile_digest(u, T) == digest, name
                assert (its, ok) == (iterations, converged), name
            else:  # the cut-off pin's closures are the truth's
                assert rows[name][0].tobytes() == u.tobytes()
                assert rows[name][1].tobytes() == T.tobytes()

    def test_cut_off_batch_reproduces_the_pins(self):
        # On the case cut off at 4 iterations, the cut-off pin and the exit
        # at iteration 1 reproduce their pins; every other row is cut off.
        case = dataclasses.replace(default_channel_case(), max_iters=4)
        solved = ev._solve_batch(case, [pin_closures(name)
                                        for name in SOLVE_PINS], case.tol)
        for (name, (_, max_iters, digest, iterations, converged)), (
                u, T, its, ok) in zip(SOLVE_PINS.items(), solved):
            if max_iters == 4 or iterations < 4:
                assert profile_digest(u, T) == digest, name
                assert (its, ok) == (iterations, converged), name
            else:
                assert (its, ok) == (4, False), name

    def test_non_finite_rows_leak_into_no_neighbour(self):
        # The non-finite r closures of the sentinel test, between finite
        # rows of a three-slot batch: every row is its solo solve.
        case = make_reference(ChannelCase(truth_exprs=THREE_SLOT_TRUTH))
        g, zero, alpha = THREE_SLOT_TRUTH
        rows = [(g, zero, alpha), (g, "1e200*1e200", alpha),
                ("0.3*I1 - 0.2*J1", "0.1*J1", "0.5 + I1*J1"),
                (g, "1e300*I1*I1*I1", alpha), ("0", "I1", "0")]
        closures = [tuple(tree_polynomial(parse_expression(e)) for e in row)
                    for row in rows]
        solved = ev._solve_batch(case, closures, case.tol)
        for row, closure, (u, T, its, ok) in zip(rows, closures, solved):
            su, sT, s_its, s_ok = ev._solve_batch(case, [closure],
                                                  case.tol)[0]
            assert u.tobytes() == su.tobytes(), row
            assert T.tobytes() == sT.tobytes(), row
            assert (its, ok) == (s_its, s_ok), row
        assert [ok for *_, ok in solved] == [True, False, True, False, True]

    def test_three_slot_batch_of_constant_and_quadratic_closures(self):
        # Constant and degree-2 closures in one (g, r, alpha) batch, whose
        # rows leave at iterations 1 to 29: every row is its solo solve.
        case = make_reference(ChannelCase(truth_exprs=THREE_SLOT_TRUTH))
        rows = [("-0.1", "0.0", "0.9"), THREE_SLOT_TRUTH,
                ("0.2*I1*I1 - 0.1", "0.05*I1*J1", "1.0 - J1*J1"),
                ("-40", "0", "1"), ("0.3", "-0.2", "0.5"),
                ("-0.1 - I1*I1", "0", "0.945 - 2.108*J1*J1"),
                ("0.5", "0.3*I1*I1", "2")]
        closures = [tuple(tree_polynomial(parse_expression(e)) for e in row)
                    for row in rows]
        solved = ev._solve_batch(case, closures, case.tol)
        for row, closure, (u, T, its, ok) in zip(rows, closures, solved):
            su, sT, s_its, s_ok = ev._solve_batch(case, [closure],
                                                  case.tol)[0]
            assert u.tobytes() + T.tobytes() == su.tobytes() + sT.tobytes()
            assert (its, ok) == (s_its, s_ok), row
        assert [(its, ok) for *_, its, ok in solved] == [
            (14, True), (29, True), (14, True), (1, False), (14, True),
            (10, False), (13, True)]

    def test_one_dgtsv_call_per_iteration(self, monkeypatch):
        # Both equations of every finite row go to one call, from the
        # first iteration to the last row's exit.
        case = default_channel_case()
        calls = count_dgtsv(monkeypatch)
        names = ["truth", "zero", "gep-linear", "gep-square", "gep-strong",
                 "negative-diffusivity"]
        solved = ev._solve_batch(case, [pin_closures(n) for n in names],
                                 case.tol)
        assert len(calls) == max(its for _, _, its, _ in solved) == 29
        assert calls[0] == 2 * len(names) * (case.n_cells - 2)

    @given(st.lists(st.sampled_from(list(SOLVE_PINS)), max_size=10))
    def test_rows_equal_their_solo_solve(self, names):
        # Any order, subset or repetition of the pins' closures: each row
        # has the bits of its batch-of-one solve.
        case = default_channel_case()
        solved = ev._solve_batch(case, [pin_closures(n) for n in names],
                                 case.tol)
        assert len(solved) == len(names)
        for name, (u, T, its, ok) in zip(names, solved):
            su, sT, s_its, s_ok = solo(name)
            assert u.tobytes() == su.tobytes(), name
            assert T.tobytes() == sT.tobytes(), name
            assert (its, ok) == (s_its, s_ok), name

    def test_evaluate_equals_evaluate_batch(self):
        evaluator = ChannelEvaluator(default_channel_case())
        trees = [[parse_expression(e) for e in SOLVE_PINS[name][0]]
                 for name in SOLVE_PINS if None not in SOLVE_PINS[name][0]]
        batch = evaluator.evaluate_batch(trees)
        for t, in_batch in zip(trees, batch):
            alone = evaluator.evaluate(t)
            for other in (evaluator.evaluate_batch([t])[0], in_batch):
                assert other.objectives.tobytes() == alone.objectives.tobytes()
                assert (other.converged, other.iterations) == (
                    alone.converged, alone.iterations)

    @pytest.mark.parametrize("kind", ["channel", "symbolic"])
    def test_counter_counts_candidates(self, kind):
        if kind == "channel":
            evaluator = ChannelEvaluator(default_channel_case())
            trees = [parse_expression("0"), parse_expression("I1")]
        else:
            table = FeatureTable(columns={"I1": np.array([0.5, 1.0])})
            evaluator = SymbolicBenchmark(table, targets=("I1",))
            trees = [parse_expression("I1")]
        before = expensive_call_count()
        assert evaluator.evaluate_batch([]) == []
        assert expensive_call_count() == before
        outcomes = evaluator.evaluate_batch([trees] * 3)
        assert len(outcomes) == 3
        assert expensive_call_count() == before + 3

    def test_symbolic_batch_is_evaluate_per_candidate(self):
        rng = np.random.default_rng(7)
        table = FeatureTable(columns={"I1": rng.uniform(0.2, 1.0, size=12),
                                      "I2": rng.uniform(-1.0, 0.0, size=12)})
        bench = SymbolicBenchmark(table, targets=("I1*I1", "0.5 - I2"))
        trees = [[parse_expression(a), parse_expression(b)]
                 for a, b in (("I1", "I2"), ("I1*I1", "0.5 - I2"))]
        batch = bench.evaluate_batch(trees)
        for t, outcome in zip(trees, batch):
            assert (outcome.objectives.tobytes()
                    == bench.evaluate(t).objectives.tobytes())

    def test_bad_slot_count_rejected_before_counting(self):
        evaluator = ChannelEvaluator(default_channel_case())
        before = expensive_call_count()
        with pytest.raises(ValueError, match="expected 2 slots"):
            evaluator.evaluate_batch([[parse_expression("0")] * 2,
                                      [parse_expression("0")]])
        assert expensive_call_count() == before


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
        with pytest.raises(ConfigError):
            load_channel_case({"bogus": 1,
                               "truth": {"g": "0", "alpha": "0"}})
        # The truth block is the one way to give a truth.
        truth = {"g": "-0.1 - I1", "alpha": "0.945 - 2.108*J1"}
        for raw in ({"truth_exprs": list(truth.values())},
                    {"truth": truth, "truth_exprs": ["0", "1", "2", "3"]}):
            with pytest.raises(ConfigError,
                               match=r"unknown channel case fields "
                                     r"\['truth_exprs'\]"):
                load_channel_case(raw)

    def test_unknown_truth_slot_rejected(self):
        with pytest.raises(ConfigError):
            load_channel_case({"truth": {"g": "0", "alpha": "0", "zz": "0"}})

    @pytest.mark.parametrize("truth", [{"g": "0"}, {"alpha": "0"},
                                       {"r": "0", "alpha": "0"}, {}])
    def test_missing_truth_slot_rejected(self, truth):
        with pytest.raises(ConfigError, match="truth needs slots"):
            load_channel_case({"truth": truth})

    @pytest.mark.parametrize("payload", [
        {"n_cells": "64"}, {"wall_u": ["a", 0.0]}, {"wall_u": ["1.0", 0.0]},
        {"wall_u": [0, 0, 0]}, {"wall_u": [0]}, {"wall_t": 0.5},
        {"wall_t": [True, 0.0]}, {"wall_t": [0.5, float("inf")]},
        {"nu": "1.0"}, {"coupling": True}, {"omega": float("inf")},
        {"forcing": None}, {"tol": float("nan")}, {"damping": [0.7]},
        {"n_cells": 16, "reference_u": [float("nan")] * 16,
         "reference_t": [0.0] * 16},
        {"n_cells": 16, "reference_u": ["1.0"] * 16,
         "reference_t": [0.0] * 16},
        {"n_cells": 16, "reference_u": [0.0] * 16,
         "reference_t": [0.0] * 15 + [True]},
        {"n_cells": 16, "reference_u": [[0.0]] * 16,
         "reference_t": [0.0] * 16},
        {"n_cells": 16, "reference_u": 0.0, "reference_t": [0.0] * 16},
        {"n_cells": 16, "reference_u": [0.0] * 16},
        {"n_cells": 16, "reference_t": [0.0] * 16},
        {"truth": {"g": True, "alpha": "0"}}])
    def test_ill_typed_fields_rejected(self, payload):
        with pytest.raises(ConfigError, match="invalid channel case"):
            load_channel_case(payload)

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_below_one_rejected(self, max_iters):
        # Once read as a truth that diverges on the case.
        with pytest.raises(ConfigError, match="max_iters must be >= 1"):
            load_channel_case({"max_iters": max_iters})

    def test_float_fields_must_be_finite_numbers(self):
        for name in ("forcing", "coupling", "nu", "alpha_base", "nut_max",
                     "omega", "tol", "damping"):
            for bad in (True, "1.0", float("nan"), float("-inf")):
                with pytest.raises(ConfigError, match=name):
                    ChannelCase(**{name: bad})

    def test_reference_cells_must_be_finite_numbers(self):
        good = [0.0] * 16
        for bad in (float("nan"), float("inf"), "1.0", True, None):
            for name in ("reference_u", "reference_t"):
                refs = {"reference_u": good, "reference_t": good,
                        name: good[:-1] + [bad]}
                with pytest.raises(ConfigError, match=name):
                    ChannelCase(n_cells=16, **refs)

    def test_reference_profiles_come_in_pairs(self):
        with pytest.raises(ConfigError, match="reference_u and reference_t"):
            ChannelCase(n_cells=16, reference_u=[0.0] * 16)
        with pytest.raises(ConfigError, match="reference_u and reference_t"):
            ChannelCase(n_cells=16, reference_t=[0.0] * 16)

    def test_given_reference_profiles_are_kept(self):
        u = [0.5 * k for k in range(16)]
        case = load_channel_case({"n_cells": 16, "reference_u": u,
                                  "reference_t": list(range(16))})
        assert case.reference_u.tolist() == u
        assert case.reference_t.tolist() == [float(k) for k in range(16)]

    def test_integral_numbers_accepted(self):
        case = load_channel_case({"wall_u": [0, 1], "coupling": 12,
                                  "truth": {"g": "0", "alpha": "0"}})
        assert case.wall_u == (0.0, 1.0) and case.coupling == 12

    @pytest.mark.parametrize("payload", [[{"n_cells": 16}], "n_cells", 3])
    def test_case_file_must_hold_an_object(self, tmp_path, payload):
        import json
        path = tmp_path / "case.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="JSON object"):
            load_channel_case(path)
    def test_shipped_default_case_matches_builtin(self):
        case = load_channel_case("configs/channel_default.json")
        built = default_channel_case()
        assert case.n_cells == built.n_cells
        assert case.coupling == built.coupling
        assert case.nut_max == built.nut_max
        assert case.alpha_base == built.alpha_base
        assert case.truth_exprs == built.truth_exprs
