"""Pareto fronts, hypervolume, run-level reporting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagep.metrics import (
    GenerationMetrics,
    RunMetrics,
    emit_report,
    hypervolume,
    pareto_front,
    surrogate_relative_error,
)
from sagep.symreg import fast_nondominated_sort


def mc_dominated_area(points, ref, ideal, n=200_000, seed=0):
    """Monte Carlo estimate of the volume dominated within [ideal, ref]."""
    rng = np.random.default_rng(seed)
    dim = len(ref)
    samples = ideal + (np.asarray(ref) - ideal) * rng.random((n, dim))
    dominated = np.zeros(n, dtype=bool)
    for p in np.atleast_2d(points):
        dominated |= np.all(samples >= p, axis=1)
    return dominated.mean() * np.prod(np.asarray(ref) - ideal)


def simplex_front(p, n):
    """The integer points of p objectives summing to n, which are mutually
    non-dominated, and their exact hypervolume up to (n + 1, ..., n + 1):
    a unit cell with corner c is dominated iff sum(c) >= n, and
    comb(n - 1 + p, p) corners in the box have a smaller sum."""
    pts = np.array([c for c in itertools.product(range(n + 1), repeat=p)
                    if sum(c) == n], dtype=float)
    return pts, np.full(p, n + 1.0), (n + 1) ** p - math.comb(n - 1 + p, p)


class TestParetoFront:
    def test_drops_dominated_and_duplicates(self):
        pts = np.array([[1.0, 3.0], [2.0, 2.0], [2.0, 2.0], [3.0, 3.0]])
        front = pareto_front(pts)
        assert front.shape == (2, 2)
        assert [1.0, 3.0] in front.tolist()
        assert [2.0, 2.0] in front.tolist()

    def test_single_point(self):
        assert pareto_front(np.array([[1.0, 2.0]])).shape == (1, 2)

    def test_empty_input(self):
        assert pareto_front(np.empty((0, 3))).shape == (0, 3)

    @given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 5)),
                    min_size=1, max_size=14))
    def test_front_members_mutually_nondominated(self, rows):
        def dominates(a, b):
            return bool(np.all(a <= b) and np.any(a < b))

        pts = np.asarray(rows)
        front = pareto_front(pts)
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                if i == j:
                    continue
                assert not dominates(front[j], front[i])
        # Complete: every input row is a front row or dominated by one, and
        # no non-dominated input row is missing.
        members = {tuple(row) for row in front}
        assert len(members) == front.shape[0]
        for row in pts:
            if tuple(row) not in members:
                assert any(dominates(f, row) for f in front)
                assert any(dominates(other, row) for other in pts)

    @given(st.integers(2, 3).flatmap(lambda p: st.lists(
        st.lists(st.integers(0, 4).map(lambda k: k / 2),
                 min_size=p, max_size=p), min_size=1, max_size=20)),
        st.data())
    def test_equals_first_front_of_the_sort(self, rows, data):
        # Repeat some rows, so deduplication has work to do.
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=10))
        pts = np.asarray(rows, dtype=float)
        u = np.unique(pts, axis=0)
        expect = u[fast_nondominated_sort(u)[0]]
        front = pareto_front(pts)
        assert front.shape == expect.shape
        assert np.array_equal(front, expect)


class TestHypervolume:
    def test_staircase_example(self):
        pts = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert hypervolume(pts, np.array([3.0, 3.0])) == pytest.approx(1.0)

    def test_single_point_rectangle(self):
        pts = np.array([[1.0, 1.0]])
        assert hypervolume(pts, np.array([3.0, 4.0])) == pytest.approx(6.0)

    def test_point_outside_reference_ignored(self):
        pts = np.array([[1.0, 1.0], [5.0, 0.0]])
        assert hypervolume(pts, np.array([2.0, 2.0])) == pytest.approx(1.0)

    def test_one_dimensional(self):
        pts = np.array([[1.0], [0.5]])
        assert hypervolume(pts, np.array([2.0])) == pytest.approx(1.5)

    def test_three_dimensional_cube(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        assert hypervolume(pts, np.array([2.0, 2.0, 2.0])) == pytest.approx(8.0)

    def test_overlapping_boxes_in_3d(self):
        pts = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        # Inclusion-exclusion: 3*1*1*2 pairwise overlaps 1, triple 1.
        ref = np.array([2.0, 2.0, 2.0])
        expect = 3 * 2.0 - 3 * 1.0 + 1.0
        assert hypervolume(pts, ref) == pytest.approx(expect)

    def test_many_points_in_3d(self):
        for n in (5, 12):  # 21 and 91 points
            pts, ref, expect = simplex_front(3, n)
            assert hypervolume(pts, ref) == expect

    def test_four_objectives(self):
        for n in (2, 5):  # 10 and 56 points
            pts, ref, expect = simplex_front(4, n)
            assert hypervolume(pts, ref) == expect
        rng = np.random.default_rng(0)
        pts = rng.random((6, 4))
        ref = np.full(4, 1.1)
        assert hypervolume(pts, ref) == pytest.approx(
            mc_dominated_area(pts, ref, np.zeros(4)), abs=0.01)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=8),
           st.integers(0, 10))
    @settings(max_examples=10, deadline=None)
    def test_2d_sweep_matches_monte_carlo(self, rows, seed):
        pts = np.asarray(rows)
        ref = np.array([1.2, 1.2])
        exact = hypervolume(pts, ref)
        approx = mc_dominated_area(pts, ref, np.zeros(2), seed=seed)
        assert exact == pytest.approx(approx, abs=0.02)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(0, 11), st.floats(0, 2),
                              st.floats(0, 2)), max_size=8))
    def test_2d_front_filter_changes_nothing(self, grid, shifted):
        # Grid rows repeat often; shifted rows are dominated by (or equal
        # to) an existing row.  The sweep alone must match the front exactly.
        pts = 0.25 * np.asarray(grid, dtype=float)
        extra = [pts[i % len(pts)] + [dx, dy] for i, dx, dy in shifted]
        pts = np.vstack([pts] + extra) if extra else pts
        ref = np.array([1.2, 1.4])
        assert hypervolume(pts, ref) == hypervolume(pareto_front(pts), ref)

    def test_subnormal_strip_raises_no_warning(self):
        # The last strip's area, 0.2 * 2.2e-309, underflows to a subnormal.
        pts = np.array([[0.0, 2.225073858507203e-309], [1.0, 0.0]])
        assert hypervolume(pts, np.array([1.2, 1.2])) == 1.2 * 1.2

    def test_monotone_in_points(self):
        pts = np.array([[0.5, 0.5]])
        more = np.array([[0.5, 0.5], [0.1, 0.9]])
        ref = np.array([1.0, 1.0])
        assert hypervolume(more, ref) >= hypervolume(pts, ref)


class TestCoverage:
    """Hypervolume against one fixed reference point, the one measure two
    fronts (two runs) are compared on."""

    def test_staircase_coverage(self):
        pts = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        ref = pts.max(axis=0)
        box = np.prod(ref - pts.min(axis=0))
        assert hypervolume(pts, ref) / box == pytest.approx(0.25)

    def test_degenerate_box_is_zero(self):
        assert hypervolume(np.array([[1.0, 2.0]]), np.array([1.0, 2.0])) == 0.0
        pts = np.array([[1.0, 2.0], [1.0, 3.0]])
        assert hypervolume(pts, pts.max(axis=0)) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hypervolume(np.array([[np.nan, 1.0]]), np.array([2.0, 2.0]))
        with pytest.raises(ValueError):
            hypervolume(np.array([[1.0, 1.0]]), np.array([np.inf, 2.0]))

    def test_coverage_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pts = rng.uniform(0, 1, size=(6, 2))
            ref = pts.max(axis=0)
            box = np.prod(ref - pts.min(axis=0))
            assert 0.0 <= hypervolume(pts, ref) <= box

    def test_shared_reference_comparison(self):
        a = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        b = np.array([[1.0, 1.0]])
        ref = np.array([3.0, 3.0])
        # b dominates everything, so it fills the whole box below ref.
        assert hypervolume(b, ref) == 4.0
        assert hypervolume(a, ref) < hypervolume(b, ref)

    def test_shared_reference_identical_fronts(self):
        a = np.array([[1.0, 3.0], [3.0, 1.0]])
        ref = np.array([4.0, 4.0])
        assert hypervolume(a, ref) == hypervolume(a.copy(), ref)

    def test_union_degenerate_gives_zeros(self):
        ref = np.array([1.0, 1.0])
        assert hypervolume(np.array([[1.0, 1.0]]), ref) == 0.0
        assert hypervolume(np.array([[1.0, 0.5], [0.5, 1.0]]), ref) == 0.0


class TestRatiosAndErrors:
    def test_relative_error_componentwise(self):
        pairs = [(np.array([1.0, 2.0]), np.array([1.1, 2.2]))]
        assert surrogate_relative_error(pairs) == pytest.approx(0.1)

    def test_relative_error_skips_zero_truth(self):
        pairs = [(np.array([0.0, 2.0]), np.array([5.0, 2.2]))]
        assert surrogate_relative_error(pairs) == pytest.approx(0.1)

    def test_relative_error_no_pairs(self):
        assert surrogate_relative_error([]) == 0.0


class TestRunMetrics:
    def make_row(self, gen, cum, hv=0.5):
        return GenerationMetrics(generation=gen, expensive_cumulative=cum,
                                 hypervolume=hv, selection_ratio=1.0,
                                 relative_error=0.0,
                                 best_objectives=(0.1, 0.2))

    def test_append_enforces_monotone_cumulative(self):
        run = RunMetrics()
        run.append(self.make_row(0, 10))
        run.append(self.make_row(1, 10))
        with pytest.raises(ValueError):
            run.append(self.make_row(2, 9))

    def test_summary_properties(self):
        run = RunMetrics()
        assert run.final_hypervolume == 0.0
        assert run.final_selection_ratio == 0.0
        assert run.total_expensive == 0
        assert run.reference == ()
        run.append(self.make_row(0, 10, hv=0.3))
        run.append(self.make_row(1, 12, hv=0.6))
        assert run.final_hypervolume == 0.6
        assert run.final_selection_ratio == 1.0
        assert run.total_expensive == 12

    def test_emit_report_files(self, tmp_path):
        run = RunMetrics(final_relative_error=0.1, reference=(0.5, 0.25))
        run.append(self.make_row(0, 10))
        run.append(self.make_row(1, 11))
        csv_path, summary_path = emit_report(run, tmp_path / "out")
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == ("generation,expensive_cumulative,hypervolume,"
                            "selection_ratio,relative_error,"
                            "best_objective_0,best_objective_1")
        assert len(lines) == 3
        summary = summary_path.read_text().splitlines()
        assert "expensive evaluations: 11" in summary
        assert "final hypervolume: 0.5" in summary
        assert summary[-1] == "reference: [0.5, 0.25]"

    def test_emit_report_is_reproducible(self, tmp_path):
        run = RunMetrics(final_relative_error=0.07)
        run.append(self.make_row(0, 5, hv=1 / 7))
        first, _ = emit_report(run, tmp_path / "a")
        second, _ = emit_report(run, tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()
