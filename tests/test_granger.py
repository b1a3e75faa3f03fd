"""Granger F-tests, lag selection, masks, and the pairwise matrix."""

import math

import numpy as np
import pytest

from factorregimes import (
    DegenerateDesignError,
    FactorPanel,
    SampleSizeError,
    build_design,
    f_sf,
    full_mask,
    granger_f_test,
    granger_results_to_csv,
    ols_rss,
    pairwise_regime_matrix,
    regime_lag_mask,
    select_lag_bic,
)


def make_panel(X, names=None):
    X = np.asarray(X, dtype=float)
    dates = np.busday_offset("2000-01-03", np.arange(len(X))).astype(
        "datetime64[D]")
    if names is None:
        names = tuple(f"F{i}" for i in range(X.shape[1]))
    return FactorPanel(dates, X, names)


def lagged_pair(T, seed, coef=0.0, lag=2):
    """y driven by x at `lag` when coef != 0; both unit-variance noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    y = rng.standard_normal(T)
    if coef:
        y[lag:] += coef * x[:-lag]
    return y, x


class TestMasks:
    def test_warmup_always_false(self):
        labels = np.ones(10, dtype=int)
        mask = regime_lag_mask(labels, 1, 3)
        assert not mask[:3].any()
        assert mask[3:].all()

    def test_alternating_labels_leave_nothing(self):
        labels = np.tile([0, 1], 20)
        assert not regime_lag_mask(labels, 1, 2).any()

    def test_requires_full_history_in_regime(self):
        labels = np.array([0, 1, 1, 1, 0, 1, 1, 1, 1])
        mask = regime_lag_mask(labels, 1, 2)
        # t qualifies iff labels[t-2], labels[t-1], labels[t] are all 1
        np.testing.assert_array_equal(
            mask,
            [False, False, False, True, False, False, False, True, True],
        )

    def test_full_mask(self):
        assert full_mask(4).all() and full_mask(4).shape == (4,)


class TestBuildDesign:
    def test_hand_checked_columns(self):
        T = 15
        y = np.arange(1.0, T + 1)
        x = 10.0 * np.arange(1.0, T + 1)
        mask = np.ones(T, dtype=bool)
        mask[5] = False
        Y, X_r, X_u = build_design(y, x, 1, mask)
        sel = [t for t in range(1, T) if t != 5]
        np.testing.assert_array_equal(Y, y[sel])
        assert X_r.shape == (len(sel), 2)
        assert X_u.shape == (len(sel), 3)
        np.testing.assert_array_equal(X_u[:, 0], 1.0)
        np.testing.assert_array_equal(X_u[:, 1], y[np.array(sel) - 1])
        np.testing.assert_array_equal(X_u[:, 2], x[np.array(sel) - 1])
        np.testing.assert_array_equal(X_r, X_u[:, :2])

    def test_mask_rows_below_lag_dropped(self):
        T = 20
        y = np.arange(float(T))
        x = np.arange(float(T)) * 2
        Y, _, _ = build_design(y, x, 2, np.ones(T, dtype=bool))
        assert len(Y) == T - 2  # t = 2..T-1
        assert Y[0] == y[2]

    def test_sample_size_enforced(self):
        y = np.arange(20.0)
        x = np.arange(20.0)
        with pytest.raises(SampleSizeError) as info:
            build_design(y, x, 4, np.ones(20, dtype=bool))
        # lag 4 needs 2*4 + 1 parameters plus 10 spare rows; t = 4..19 remain
        assert str(info.value) == (
            "lag 4 design: need at least 19 observations, have 16")
        assert info.value.required == 19
        assert info.value.available == 16


class TestOlsRss:
    def test_exact_fit_zero_residual(self):
        rng = np.random.default_rng(3)
        Z = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        beta = np.array([0.5, -1.0, 2.0])
        y = Z @ beta
        rss, rank = ols_rss(Z, y)
        assert rank == 3
        assert rss <= 1e-18 * float(y @ y)

    def test_intercept_only_is_centered_ss(self):
        y = np.array([1.0, 2.0, 4.0, 9.0])
        rss, _ = ols_rss(np.ones((4, 1)), y)
        assert rss == pytest.approx(float(((y - y.mean()) ** 2).sum()),
                                    rel=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        Z = np.column_stack([np.ones(50), rng.standard_normal((50, 4))])
        y = rng.standard_normal(50)
        rss, _ = ols_rss(Z, y)
        beta = np.linalg.solve(Z.T @ Z, Z.T @ y)
        resid = y - Z @ beta
        assert rss == pytest.approx(float(resid @ resid), rel=1e-8)


class TestGrangerFTest:
    def test_p_value_consistent_with_f_sf(self):
        from factorregimes import FTestDistribution

        y, x = lagged_pair(400, 5, coef=0.3, lag=1)
        res = granger_f_test(y, x, 3, full_mask(400))
        dist = FTestDistribution(3, res.n_obs - 7)
        assert res.p_value == pytest.approx(f_sf(res.f_stat, dist),
                                            abs=1e-12)

    def test_f_stat_nonnegative_under_null(self):
        for seed in range(20):
            y, x = lagged_pair(200, 50 + seed)
            res = granger_f_test(y, x, 2, full_mask(200))
            assert res.f_stat >= 0.0

    def test_affine_rescale_invariance(self):
        y, x = lagged_pair(500, 6, coef=0.4, lag=2)
        base = granger_f_test(y, x, 3, full_mask(500))
        scaled = granger_f_test(3.0 * y + 7.0, 0.5 * x - 2.0, 3,
                                full_mask(500))
        assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-6)

    def test_constructed_signal_detected(self):
        y, x = lagged_pair(2000, 7, coef=0.5, lag=2)
        res = granger_f_test(y, x, 5, full_mask(2000))
        assert res.p_value < 1e-6
        assert res.r2_increment > 0.0

    def test_permutation_destroys_significance(self):
        y, x = lagged_pair(2000, 8, coef=0.5, lag=2)
        rng = np.random.default_rng(9)
        ps = []
        for _ in range(100):
            ps.append(granger_f_test(y, rng.permutation(x), 5,
                                     full_mask(2000)).p_value)
        assert np.median(ps) > 0.2

    def test_bonferroni_flag(self):
        y, x = lagged_pair(2000, 7, coef=0.5, lag=2)
        sig = granger_f_test(y, x, 5, full_mask(2000),
                             bonferroni_threshold=1e-4)
        insig = granger_f_test(y, x, 5, full_mask(2000),
                               bonferroni_threshold=1e-300)
        assert sig.significant_bonferroni and not insig.significant_bonferroni

    def test_constant_regressor_degenerate(self):
        y = np.random.default_rng(10).standard_normal(100)
        x = np.zeros(100)
        with pytest.raises(DegenerateDesignError):
            granger_f_test(y, x, 2, full_mask(100))

    def test_metadata_passthrough(self):
        y, x = lagged_pair(300, 11)
        res = granger_f_test(y, x, 1, full_mask(300), source="HML",
                             target="SMB", regime="2")
        assert (res.source, res.target, res.regime) == ("HML", "SMB", "2")
        assert res.lag == 1


class TestSelectLagBic:
    def test_concentrates_on_true_lag(self):
        hits = 0
        for seed in range(20):
            y, x = lagged_pair(2000, 200 + seed, coef=0.5, lag=2)
            L, _ = select_lag_bic(y, x, lambda L: full_mask(2000), 15)
            hits += L == 2
        assert hits >= 18

    def test_white_noise_prefers_smallest(self):
        hits = 0
        for seed in range(20):
            y, x = lagged_pair(1500, 300 + seed)
            L, _ = select_lag_bic(y, x, lambda L: full_mask(1500), 10)
            hits += L == 1
        assert hits >= 15

    def test_table_covers_grid(self):
        y, x = lagged_pair(800, 12, coef=0.4, lag=3)
        L, table = select_lag_bic(y, x, lambda L: full_mask(800), 6)
        assert [row["lag"] for row in table] == [1, 2, 3, 4, 5, 6]
        feasible = [r for r in table if r["error"] is None]
        best = min(feasible, key=lambda r: (r["bic"], r["lag"]))
        assert best["lag"] == L

    def test_all_infeasible_raises(self):
        y = np.arange(12.0)
        x = np.arange(12.0)
        with pytest.raises(SampleSizeError):
            select_lag_bic(y, x, lambda L: full_mask(12), 5)

    def test_shrinking_mask_skips_infeasible_lags(self):
        y, x = lagged_pair(400, 13, coef=0.4, lag=1)
        labels = np.zeros(400, dtype=int)
        labels[:360] = 1

        def builder(L):
            return regime_lag_mask(labels, 1, L)

        L, table = select_lag_bic(y, x, builder, 15)
        assert all(row["error"] is None for row in table)
        assert 1 <= L <= 15


class TestPairwiseMatrix:
    def test_cell_count_and_ordering(self):
        rng = np.random.default_rng(14)
        panel = make_panel(rng.standard_normal((900, 2)), names=("A", "B"))
        labels = np.zeros(900, dtype=int)
        labels[450:] = 1
        matrix = pairwise_regime_matrix(panel, labels, L_max=4)
        assert len(matrix) == 4  # 2 ordered pairs x 2 regimes
        keys = [(r.source, r.target, r.regime) for r in matrix]
        assert keys == [("A", "B", 0), ("A", "B", 1),
                        ("B", "A", 0), ("B", "A", 1)]
        assert not matrix.failures

    def test_bonferroni_threshold_value(self):
        rng = np.random.default_rng(15)
        panel = make_panel(rng.standard_normal((600, 3)))
        labels = np.zeros(600, dtype=int)
        matrix = pairwise_regime_matrix(panel, labels, L_max=3, alpha=0.06)
        # d=3 gives 6 ordered pairs
        for res in matrix:
            assert res.significant_bonferroni == (res.p_value < 0.01)

    def test_single_regime_matches_pooled_test(self):
        y, x = lagged_pair(1200, 16, coef=0.5, lag=2)
        panel = make_panel(np.column_stack([x, y]), names=("X", "Y"))
        labels = np.zeros(1200, dtype=int)
        matrix = pairwise_regime_matrix(panel, labels, L_max=8)
        cell = next(r for r in matrix
                    if r.source == "X" and r.target == "Y")
        L_star, _ = select_lag_bic(
            y, x, lambda L: regime_lag_mask(labels, 0, L), 8)
        direct = granger_f_test(y, x, L_star,
                                regime_lag_mask(labels, 0, L_star))
        assert cell.lag == L_star
        assert cell.f_stat == pytest.approx(direct.f_stat, rel=1e-12)
        assert cell.p_value == pytest.approx(direct.p_value, rel=1e-12)

    def test_sparse_regime_recorded_as_failure(self):
        rng = np.random.default_rng(17)
        panel = make_panel(rng.standard_normal((400, 2)))
        labels = np.zeros(400, dtype=int)
        labels[:5] = 1  # far too few rows for any lag
        matrix = pairwise_regime_matrix(panel, labels, L_max=5)
        regimes_ok = {r.regime for r in matrix}
        assert regimes_ok == {0}
        assert len(matrix.failures) == 2
        assert all(f.regime == 1 for f in matrix.failures)


class TestCsv:
    def test_header_and_formats(self, tmp_path):
        y, x = lagged_pair(600, 18, coef=0.4, lag=1)
        panel = make_panel(np.column_stack([x, y]), names=("X", "Y"))
        matrix = pairwise_regime_matrix(panel, np.zeros(600, dtype=int),
                                        L_max=4)
        path = tmp_path / "granger.csv"
        granger_results_to_csv(matrix, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("source,target,regime,lag,f_stat,p_value,"
                            "n_obs,r2_increment,significant")
        assert len(lines) == 1 + len(matrix)
        fields = lines[1].split(",")
        assert fields[0] in ("X", "Y")
        float(fields[4])
        assert "e" in fields[5]  # scientific notation for p
        assert fields[8] in ("True", "False")
