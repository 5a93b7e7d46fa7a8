"""Feature-space embedding and frozen normalization."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sagep.embedding import (
    FeatureTable,
    IngestError,
    NormStats,
    embed,
    fit_norm_stats,
    ingest_feature_table,
    normalize,
    write_feature_table,
)
from sagep.symreg import (
    ConstantsPool,
    ExprTree,
    constant,
    op_symbol,
    parse_expression,
    terminal,
)


def table_from(**columns):
    return FeatureTable(columns={k: np.asarray(v, dtype=float)
                                 for k, v in columns.items()})


class TestFeatureTable:
    def test_rejects_ragged_columns(self):
        with pytest.raises(IngestError):
            table_from(a=[1.0, 2.0], b=[1.0])

    def test_rejects_empty(self):
        with pytest.raises(IngestError):
            FeatureTable(columns={})
        with pytest.raises(IngestError):
            table_from(a=[])

    def test_mean_row(self):
        t = table_from(I1=[1.0, 3.0], I2=[2.0, 4.0])
        assert t.mean_row() == {"I1": 2.0, "I2": 3.0}
        assert t.n_rows == 2
        assert t.names == ("I1", "I2")


class TestIngest:
    def test_round_trip(self, tmp_path):
        t = table_from(I1=[1.0, 0.25], J1=[-3.5, 2.0])
        path = tmp_path / "features.csv"
        write_feature_table(t, path)
        back = ingest_feature_table(path)
        assert back.names == t.names
        for name in t.names:
            assert np.array_equal(back.columns[name], t.columns[name])

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("I1,J1\n1.0,2.0\noops,3.0\n")
        with pytest.raises(IngestError, match=r"row 3.*'I1'"):
            ingest_feature_table(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("I1\ninf\n")
        with pytest.raises(IngestError, match="non-finite"):
            ingest_feature_table(path)

    def test_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("I1,J1\n1.0\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_feature_table(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("I1,I1\n1.0,2.0\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest_feature_table(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_feature_table(tmp_path / "absent.csv")


class TestEmbed:
    def test_slot_mean_worked_example(self):
        # Rows (1, 2) and (3, 4) have the mean row (2, 3), where I1 + I2 is 5.
        t = table_from(I1=[1.0, 3.0], I2=[2.0, 4.0])
        tree = parse_expression("I1 + I2")
        assert embed([tree], t)[0] == 5.0

    def test_nonlinear_expression_embeds_at_mean_row(self):
        # I1 * I1 at the mean I1 = 1, not the mean 2 of its row values 0, 4.
        t = table_from(I1=[0.0, 2.0])
        assert embed([parse_expression("I1 * I1")], t)[0] == 1.0

    def test_linear_expression_embeds_at_mean_row(self):
        # 2*I1 - I2 at the mean row (2, 2) is 2, which for a linear
        # expression is also the mean 2 of its row values 3 and 1.
        t = table_from(I1=[1.0, 3.0], I2=[-1.0, 5.0])
        assert embed([parse_expression("2*I1 - I2")], t)[0] == 2.0

    def test_one_coordinate_per_slot(self):
        t = table_from(I1=[1.0, 3.0])
        trees = [parse_expression(s) for s in ("I1", "I1*I1", "1 - I1")]
        coords = embed(trees, t)
        assert coords.shape == (3,)
        assert np.array_equal(coords, [2.0, 4.0, -1.0])

    def test_equal_phenotypes_embed_identically(self):
        # Same polynomial reached through different trees must give the same
        # coordinate bit for bit, otherwise the phenotype key contract breaks.
        t = table_from(I1=[0.3, 1.7, -2.2], I2=[1.1, 0.0, 4.4])
        a = parse_expression("(I1 + I1) * I2")
        b = parse_expression("I2 * I1 + I1 * I2")
        ca, cb = embed([a], t)[0], embed([b], t)[0]
        assert ca == cb
        # So must every order of the terms of a polynomial.
        rng = np.random.default_rng(7)
        t = table_from(I1=rng.uniform(0.2, 1.0, size=12),
                       I2=rng.uniform(-1.0, -0.1, size=12))
        for terms in (("I1", "I1*I2", "I2"), ("0.3", "I1", "I2")):
            trees = [parse_expression(" + ".join(order))
                     for order in itertools.permutations(terms)]
            coords = {embed([tree], t).tobytes() for tree in trees}
            assert len(coords) == 1, terms

    def test_pool_constants_fold_into_embedding(self):
        t = table_from(I1=[2.0, 4.0])
        pool = ConstantsPool(values=(0.5,), seed=0)
        tree = ExprTree(op_symbol("*"), (ExprTree(constant(0)),
                                         ExprTree(terminal("I1"))))
        assert embed([tree], t, pool=pool)[0] == 1.5

    def test_overflow_becomes_non_finite(self):
        t = table_from(I1=[1e200, 1e200])
        tree = parse_expression("I1 * I1 * I1")
        assert not np.isfinite(embed([tree], t)[0])


class TestNormalization:
    def test_fit_worked_example(self):
        stats = fit_norm_stats(np.array([[-1.0], [1.0]]))
        assert stats.mean[0] == 0.0 and stats.std[0] == 1.0

    def test_frozen_stats_applied_to_new_point(self):
        stats = NormStats(mean=np.array([2.0]), std=np.array([2.0]))
        assert normalize(np.array([[6.0]]), stats)[0, 0] == 2.0

    def test_zero_variance_dimension_maps_to_zero(self):
        stats = fit_norm_stats(np.array([[5.0], [5.0], [5.0]]))
        assert stats.std[0] == 0.0
        out = normalize(np.array([[5.0], [7.0]]), stats)
        assert np.array_equal(out, [[0.0], [0.0]])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            fit_norm_stats(np.array([[1.0, 2.0]]))

    def test_population_std_uses_ddof_zero(self):
        stats = fit_norm_stats(np.array([[0.0], [2.0]]))
        assert stats.std[0] == 1.0

    # Quantized elements keep each column either exactly constant or spanned
    # by at least 0.01; ulp-level spans make z-scoring ill-conditioned.
    @given(hnp.arrays(np.float64, (5, 3),
                      elements=st.floats(-100, 100, allow_nan=False).map(
                          lambda v: round(v, 2))))
    def test_refit_on_normalized_data_is_standard(self, pts):
        stats = fit_norm_stats(pts)
        z = normalize(pts, stats)
        refit = fit_norm_stats(z)
        assert np.allclose(refit.mean, 0.0, atol=1e-9)
        live = stats.std > 0
        assert np.allclose(refit.std[live], 1.0, atol=1e-9)
        assert np.all(refit.std[~live] == 0.0)

    def test_constant_column_with_inexact_mean_maps_to_zero(self):
        # The float mean of five copies of this value is off by one ulp, so
        # a naive std would be tiny but nonzero.
        pts = np.full((5, 2), 51.31456658)
        stats = fit_norm_stats(pts)
        assert np.all(stats.std == 0.0)
        assert np.all(normalize(pts, stats) == 0.0)

    @given(hnp.arrays(np.float64, (4, 2),
                      elements=st.floats(-50, 50, allow_nan=False)))
    def test_normalize_preserves_shape(self, pts):
        stats = fit_norm_stats(pts)
        assert normalize(pts, stats).shape == pts.shape

    def test_tiny_spread_raises_no_floating_point_error(self):
        # Deviations near 2e-205 square below the smallest subnormal, and
        # a third of 5e-324 rounds to 0.
        pts = np.array([[2.84372217e-205, 5e-324, 1.0],
                        [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
        with np.errstate(all="raise"):
            stats = fit_norm_stats(pts)
            out = normalize(pts, stats)
        assert stats.std[0] >= 0.0 and np.all(np.isfinite(out))
