"""Robustness battery: threshold detector, lag sweep, splits, transitions."""

import numpy as np
import pytest

from factorregimes import (
    DegenerateDesignError,
    FactorPanel,
    SampleSizeError,
    granger_f_test,
    lag_sweep,
    regime_lag_mask,
    select_lag_bic,
    subsample_split,
    threshold_regimes,
    transition_window_analysis,
    volatility_norm,
)
from factorregimes.granger import _segment_test
from factorregimes.robustness import (THRESHOLD_QUANTILE, _quantile,
                                     _transition_starts)

from conftest import (lstsq_nested_f, pair_design, random_series,
                      reference_design, same_bits)


def dated(n, start="2005-01-03"):
    return np.busday_offset(start, np.arange(n)).astype("datetime64[D]")


def noise_panel(T, d=2, seed=0, scale=1.0, names=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((T, d)) * scale
    if names is None:
        names = tuple(f"F{i}" for i in range(d))
    return FactorPanel(dated(T), X, names)


class TestThresholdRegimes:
    def test_crisis_share_near_complement_of_quantile(self):
        panel = noise_panel(5000, seed=50)
        labels = threshold_regimes(panel)
        share = labels.mean()
        # about 10% of realized-vol days exceed their own 0.90 quantile,
        # diluted slightly by the warm-up zeros
        assert 0.05 < share < 0.13

    def test_constant_series_no_crisis(self):
        X = np.ones((200, 2))
        panel = FactorPanel(dated(200), X, ("A", "B"))
        labels = threshold_regimes(panel)
        assert not labels.any()

    def test_warmup_labeled_zero(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((100, 2))
        X[:30] *= 20.0  # violent start would exceed any cutoff
        panel = FactorPanel(dated(100), X, ("A", "B"))
        labels = threshold_regimes(panel)
        assert not labels[:20].any()

    def test_flags_the_volatile_block(self):
        rng = np.random.default_rng(52)
        X = rng.standard_normal((1000, 2))
        X[600:700] *= 8.0
        panel = FactorPanel(dated(1000), X, ("A", "B"))
        labels = threshold_regimes(panel)
        # interior of the block, past the window rebuild, must be flagged
        assert labels[640:700].all()
        assert not labels[:600].any()

    def test_too_short_raises(self):
        panel = noise_panel(15)
        with pytest.raises(SampleSizeError):
            threshold_regimes(panel)

    def test_cutoff_is_np_quantile(self):
        """The cutoff comes from np.quantile's linear rule, computed without
        loading numpy.ma, at the detector's quantile and others."""
        rng = np.random.default_rng(53)
        for values in random_series(rng):
            if values.size == 0:
                continue
            for q in (THRESHOLD_QUANTILE, 0.0, 0.5, 1.0, float(rng.random())):
                with np.errstate(invalid="ignore"):  # inf - inf, in both
                    assert same_bits(_quantile(values, q),
                                     np.quantile(values, q)), (values, q)


class TestLagSweep:
    def lagged(self, T, seed, coef=0.5, lag=2):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        y[lag:] += coef * x[:-lag]
        return y, x

    def test_stable_choice_across_bounds(self):
        y, x = self.lagged(3000, 53)
        rows = lag_sweep(y, x, lambda L: np.ones(3000, dtype=bool), [5, 10, 15, 20])
        assert [r["L_max"] for r in rows] == [5, 10, 15, 20]
        assert all(r["error"] is None for r in rows)
        assert len({r["L_star"] for r in rows}) == 1
        assert all(r["p_value"] < 1e-6 for r in rows)

    def test_bound_caps_selection(self):
        y, x = self.lagged(2000, 54, lag=4)
        rows = lag_sweep(y, x, lambda L: np.ones(2000, dtype=bool), [2, 8])
        assert rows[0]["L_star"] <= 2
        assert rows[1]["L_star"] == 4

    def test_rows_identical_once_bound_exceeds_choice(self):
        y, x = self.lagged(2500, 55, lag=2)
        rows = lag_sweep(y, x, lambda L: np.ones(2500, dtype=bool), [10, 15, 20])
        first = rows[0]
        for row in rows[1:]:
            assert row["L_star"] == first["L_star"]
            assert row["f_stat"] == first["f_stat"]
            assert row["p_value"] == first["p_value"]

    def test_infeasible_bound_recorded(self):
        y, x = self.lagged(30, 56)
        rows = lag_sweep(y, x, lambda L: np.ones(30, dtype=bool), [3, 50])
        assert rows[0]["error"] is None
        assert rows[1]["error"] is None or rows[1]["L_star"] is not None
        # a bound with no feasible lag at all
        rows2 = lag_sweep(y[:12], x[:12], lambda L: np.ones(12, dtype=bool), [5])
        assert rows2[0]["error"] is not None

    def test_callable_mask(self):
        from factorregimes import regime_lag_mask

        y, x = self.lagged(2000, 57)
        labels = np.zeros(2000, dtype=int)
        rows = lag_sweep(y, x, lambda L: regime_lag_mask(labels, 0, L),
                         [5, 10])
        assert all(r["error"] is None for r in rows)

    def test_rows_equal_select_then_test_per_bound(self):
        rng = np.random.default_rng(65)
        T = 1500
        y, x = self.lagged(T, 66, lag=3)
        labels = (rng.random(T) < 0.9).astype(int)
        cases = [
            (y, x, lambda L: np.ones(T, dtype=bool), [7, 1, 4, 12]),
            (y, x, lambda L: regime_lag_mask(labels, 1, L), [2, 9, 5, 15]),
            # lags 5..8 too long
            (y[:25], x[:25], lambda L: np.ones(25, dtype=bool), [1, 3, 8]),
            # no feasible lag
            (y[:12], x[:12], lambda L: np.ones(12, dtype=bool), [2, 5]),
        ]
        for yy, xx, builder, bounds in cases:
            for row, bound in zip(lag_sweep(yy, xx, builder, bounds), bounds):
                want = {"L_max": bound, "L_star": None, "n_obs": None,
                        "error": None}
                try:
                    L, _ = select_lag_bic(yy, xx, builder, bound)
                except (SampleSizeError, DegenerateDesignError) as exc:
                    want.update(f_stat=None, p_value=None, error=str(exc))
                else:
                    fixed = granger_f_test(yy, xx, L, builder(L))
                    want.update(L_star=L, n_obs=fixed.n_obs)
                    # a chain up to another bound, or the fixed-lag chain,
                    # orders its columns and folds its rows differently: F
                    # agrees to rounding, and p to F's error times the
                    # tail's log-slope (about 140 at p = 1e-79)
                    assert row["f_stat"] == pytest.approx(fixed.f_stat, rel=1e-12)
                    assert row["p_value"] == pytest.approx(fixed.p_value, rel=1e-10)
                assert {k: row[k] for k in want} == want

    def test_bound_row_equals_sweep_ending_at_that_bound(self):
        """One bound's row is the same bit for bit whether it is swept
        alone or as the largest of several bounds."""
        rng = np.random.default_rng(69)
        T = 1500
        y, x = self.lagged(T, 70, lag=3)
        labels = (rng.random(T) < 0.9).astype(int)
        for builder in (lambda L: np.ones(T, dtype=bool),
                        lambda L: regime_lag_mask(labels, 1, L)):
            for bounds in ([3, 1, 12], [12, 5], [2, 9, 4]):
                b = max(bounds)
                (alone,) = lag_sweep(y, x, builder, [b])
                assert lag_sweep(y, x, builder, bounds)[bounds.index(b)] == alone

    def test_one_bic_table_for_all_bounds(self, monkeypatch):
        import factorregimes.granger as granger

        chains = []
        lag_fits = granger._lag_fits

        def counted(series, rows, depth, lags, pairs):
            chains.append(list(lags))
            return lag_fits(series, rows, depth, lags, pairs)

        monkeypatch.setattr(granger, "_lag_fits", counted)
        y, x = self.lagged(1000, 67)
        lag_sweep(y, x, lambda L: np.ones(1000, dtype=bool), [5, 10, 15, 20])
        # one chain over lags 1..20 gives every bound's table and F test
        assert chains == [list(range(1, 21))]

    def test_rejects_bad_bound(self):
        y, x = self.lagged(100, 58)
        with pytest.raises(ValueError):
            lag_sweep(y, x, lambda L: np.ones(100, dtype=bool), [0, 5])


class TestSubsampleSplit:
    def test_split_partitions_rows(self):
        panel = noise_panel(1200, seed=59)
        labels = np.zeros(1200, dtype=int)
        split = panel.dates[700]
        pre, post = subsample_split(panel, labels, split, L_max=4)
        ns = {r.n_obs for r in pre.results}
        assert ns and all(n <= 700 for n in ns)
        assert len(pre.results) == len(post.results) == 2  # d=2, one regime per side

    def test_structure_only_after_split(self):
        rng = np.random.default_rng(60)
        T = 3000
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        y[1500 + 2:] += 0.6 * x[1500:-2]  # cross-lag only in second half
        panel = FactorPanel(dated(T), np.column_stack([x, y]), ("X", "Y"))
        labels = np.zeros(T, dtype=int)
        pre, post = subsample_split(panel, labels, panel.dates[1500],
                                    L_max=5)
        pre_cell = next(r for r in pre.results if r.source == "X")
        post_cell = next(r for r in post.results if r.source == "X")
        assert post_cell.p_value < 1e-6
        assert pre_cell.p_value > 0.01

    def test_split_before_start_leaves_pre_empty(self):
        panel = noise_panel(600, seed=61)
        pre, post = subsample_split(panel, np.zeros(600, dtype=int),
                                    "1990-01-01", L_max=3)
        assert len(pre.results) == 0 and not pre.failures
        assert len(post.results) == 2

    def test_misaligned_labels_rejected(self):
        panel = noise_panel(100, seed=62)
        with pytest.raises(ValueError):
            subsample_split(panel, np.zeros(5, dtype=int), "2005-06-01")


class TestTransitionStarts:
    def test_one_clean_entry_and_exit(self):
        labels = np.array([0] * 10 + [1] * 10 + [0] * 10)
        entries = _transition_starts(labels, 1, 5, True)
        exits = _transition_starts(labels, 1, 5, False)
        assert entries.tolist() == [10]
        assert exits.tolist() == [20]

    def test_short_burst_ignored(self):
        labels = np.array([0] * 10 + [1] * 3 + [0] * 10)
        assert _transition_starts(labels, 1, 5, True).tolist() == []

    def test_series_opening_in_crisis_not_an_entry(self):
        labels = np.array([1] * 10 + [0] * 10)
        assert _transition_starts(labels, 1, 5, True).tolist() == []

    def test_run_length_below_one_rejected(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            _transition_starts(np.array([0, 1, 1]), 1, 0, True)

    def test_matches_day_by_day_definition(self):
        """A start opens m days in the state and follows a day outside it."""
        rng = np.random.default_rng(67)
        for _ in range(300):
            T, K = int(rng.integers(1, 120)), int(rng.integers(2, 4))
            m = int(rng.choice([1, 3, 5, 8]))
            labels = np.repeat(rng.integers(0, K, T), rng.integers(1, 9, T))[:T]
            for entering in (True, False):
                state = (labels == 1) == entering
                ref = [t for t in range(1, T - m + 1)
                       if state[t:t + m].all() and not state[t - 1]]
                got = _transition_starts(labels, 1, m, entering)
                assert got.tolist() == ref


class TestTransitionWindows:
    def make_panel_with_transitions(self, seed=63, coef=0.0):
        """Three long crisis episodes inside a 2400-day panel."""
        rng = np.random.default_rng(seed)
        T = 2400
        labels = np.zeros(T, dtype=int)
        for lo in (400, 1100, 1800):
            labels[lo:lo + 150] = 1
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        if coef:
            crisis = labels == 1
            for t in range(2, T):
                if crisis[t]:
                    y[t] += coef * x[t - 2]
        panel = FactorPanel(dated(T), np.column_stack([x, y]), ("HML", "SMB"))
        return panel, labels

    def test_counts_transitions(self):
        panel, labels = self.make_panel_with_transitions()
        report = transition_window_analysis(panel, labels, 1)
        assert report.entry.n_transitions == 3
        assert report.exit.n_transitions == 3
        assert report.entry.n_after > 0
        assert report.entry.n_before > 0

    def test_relation_switches_on_at_entry(self):
        panel, labels = self.make_panel_with_transitions(seed=64, coef=0.9)
        report = transition_window_analysis(panel, labels, 1)
        assert report.entry.p_after < 0.01
        assert report.entry.p_before > 0.01

    def test_null_panel_shows_nothing(self):
        rejected = 0
        for seed in range(5):
            panel, labels = self.make_panel_with_transitions(seed=70 + seed)
            report = transition_window_analysis(panel, labels, 1)
            for p in (report.entry.p_before, report.entry.p_after,
                      report.exit.p_before, report.exit.p_after):
                if p is not None and p < 0.05:
                    rejected += 1
        assert rejected <= 3  # 20 null tests at the 5% level

    def test_pooled_design_and_p_match_stacked_segments(self):
        """Overlapping windows keep their duplicate rows: the pooled test
        equals stacking one reference design per segment."""
        rng = np.random.default_rng(68)
        T, L = 600, 3
        y, x = rng.standard_normal(T), rng.standard_normal(T)
        y[2:] += 0.3 * x[:-2]
        starts = [100, 130, 150, 400, 420]  # windows of 60 overlap
        for segments in ([(max(0, t - 60), t - 1) for t in starts],
                         [(t, min(T - 1, t + 59)) for t in starts]):
            parts = [np.arange(lo + L, hi + 1) for lo, hi in segments]
            refs = [reference_design(y, x, L, r) for r in parts]
            Y_ref = np.concatenate([ref[0] for ref in refs])
            X_r = np.vstack([ref[1] for ref in refs])
            X_u = np.vstack([ref[2] for ref in refs])
            Y, Z_r, Z_u = pair_design(y, x, L, np.concatenate(parts))
            np.testing.assert_array_equal(Y, Y_ref)
            np.testing.assert_array_equal(Z_u, X_u)
            np.testing.assert_array_equal(Z_r, X_r)
            p, n_rows = _segment_test(y, x, segments, L)
            assert n_rows == Y_ref.size
            # the SVD two-fit reference on the stacked reference design
            assert p == pytest.approx(lstsq_nested_f(Y_ref, X_u, L)[1], rel=1e-9)

    def test_pooled_too_few_rows_is_none(self):
        y = x = np.arange(50.0)
        assert _segment_test(y, x, [], 3) == (None, 0)
        assert _segment_test(y, x, [(0, 10)], 3) == (None, 8)

    def test_no_transitions_reports_empty(self):
        panel = noise_panel(300, seed=65, names=("HML", "SMB"))
        report = transition_window_analysis(panel,
                                            np.zeros(300, dtype=int), 1)
        assert report.entry.n_transitions == 0
        assert report.entry.p_before is None
        assert report.entry.n_before == 0


class TestVolatilityNormAgreement:
    def test_threshold_and_norm_consistent(self):
        """Days flagged by the detector have higher average norm."""
        rng = np.random.default_rng(66)
        X = rng.standard_normal((2000, 3))
        X[800:900] *= 6.0
        panel = FactorPanel(dated(2000), X, ("A", "B", "C"))
        labels = threshold_regimes(panel)
        norm = volatility_norm(panel)
        assert norm[labels == 1].mean() > 2.0 * norm[labels == 0].mean()
