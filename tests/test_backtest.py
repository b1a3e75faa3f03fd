"""Backtest metrics, signal construction, and the no-look-ahead property."""

import json
import math

import numpy as np
import pytest

from factorregimes import (
    FactorPanel,
    performance_metrics,
    run_backtest,
    strategy_signal,
    write_backtest_json,
    write_returns_csv,
)


def dated(n, start="2010-01-04"):
    return np.busday_offset(start, np.arange(n)).astype("datetime64[D]")


def panel_from(hml, smb):
    hml = np.asarray(hml, dtype=float)
    return FactorPanel(dated(len(hml)),
                       np.column_stack([hml, smb]), ("HML", "SMB"))


class TestPerformanceMetrics:
    def test_constant_return_closed_form(self):
        r = np.full(504, 0.03)
        rep = performance_metrics(r)
        expected = 100.0 * (1.0003**252 - 1.0)
        assert rep.annual_return == pytest.approx(expected, rel=1e-12)
        assert rep.max_drawdown == 0.0
        assert rep.sharpe is None  # zero variance

    def test_two_day_drawdown(self):
        rep = performance_metrics(np.array([10.0, -10.0]))
        assert rep.max_drawdown == pytest.approx(-10.0, rel=1e-12)

    def test_annual_return_is_geometric(self):
        r = np.array([1.0, -1.0, 2.0, -2.0] * 63)  # T = 252
        rep = performance_metrics(r)
        wealth = np.prod(1.0 + r / 100.0)
        assert rep.annual_return == pytest.approx(100.0 * (wealth - 1.0),
                                                  rel=1e-12)

    def test_sharpe_closed_form(self):
        r = np.array([0.5, -0.3, 0.2, 0.1, -0.4, 0.6])
        rep = performance_metrics(r)
        expected = r.mean() / r.std(ddof=1) * math.sqrt(252)
        assert rep.sharpe == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_returns_no_drawdown(self):
        rng = np.random.default_rng(40)
        rep = performance_metrics(rng.uniform(0.0, 0.5, 100))
        assert rep.max_drawdown == 0.0

    def test_active_days_default_counts_nonzero(self):
        rep = performance_metrics(np.array([0.0, 0.1, 0.0, -0.2]))
        assert rep.n_active_days == 2

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            performance_metrics(np.array([]))


class TestStrategySignal:
    def test_flat_before_window(self):
        hml = np.full(20, 1.0)
        labels = np.ones(20, dtype=int)
        sig = strategy_signal(hml, labels, 1, window=9)
        assert not sig[:9].any()
        np.testing.assert_array_equal(sig[9:], 1.0)

    def test_flat_outside_crisis(self):
        hml = np.full(20, 1.0)
        labels = np.zeros(20, dtype=int)
        labels[12] = 2
        sig = strategy_signal(hml, labels, 2, window=9)
        assert sig[12] == 1.0
        assert np.count_nonzero(sig) == 1

    def test_sign_follows_trailing_hml(self):
        hml = np.concatenate([np.full(10, -0.5), np.full(10, 0.8)])
        labels = np.ones(20, dtype=int)
        sig = strategy_signal(hml, labels, 1, window=9)
        assert sig[9] == -1.0  # trailing window all negative
        assert sig[19] == 1.0  # trailing window all positive

    def test_zero_trailing_return_stays_flat(self):
        hml = np.zeros(15)
        labels = np.ones(15, dtype=int)
        sig = strategy_signal(hml, labels, 1, window=9)
        assert not sig.any()

    def test_depends_only_on_past_hml(self):
        """Perturbing hml at t must not change the signal at or before t."""
        rng = np.random.default_rng(41)
        hml = rng.standard_normal(60)
        labels = np.ones(60, dtype=int)
        base = strategy_signal(hml, labels, 1, window=9)
        bumped = hml.copy()
        bumped[30] = -99.0  # crushes every trailing window containing day 30
        new = strategy_signal(bumped, labels, 1, window=9)
        np.testing.assert_array_equal(new[: 30 + 1], base[: 30 + 1])
        assert not np.array_equal(new[31:], base[31:])  # future does move

    def test_trailing_window_is_exact(self):
        # nonzero hml only inside t-window..t-1 should drive the signal
        hml = np.zeros(30)
        hml[10] = 2.0
        labels = np.ones(30, dtype=int)
        sig = strategy_signal(hml, labels, 1, window=9)
        # day 10 lies in the trailing window of t = 11..19 only
        assert not sig[:11].any()
        np.testing.assert_array_equal(sig[11:20], 1.0)
        assert not sig[20:].any()

    def test_matches_day_by_day_definition(self):
        """On a crisis day t >= window the position is the sign of the HML
        growth over days t-window..t-1, bit for bit."""
        rng = np.random.default_rng(71)
        for _ in range(300):
            T, window = int(rng.integers(0, 120)), int(rng.integers(1, 15))
            hml = rng.standard_normal(T) * 2.0
            hml[rng.random(T) < 0.1] = 0.0
            labels = rng.integers(0, 3, T)
            growth = np.cumprod(1.0 + hml / 100.0)
            ref = np.zeros(T)
            for t in range(window, T):
                if labels[t] == 2:
                    prev = growth[t - window - 1] if t > window else 1.0
                    ref[t] = np.sign(growth[t - 1] / prev - 1.0)
            got = strategy_signal(hml, labels, 2, window)
            assert got.tobytes() == ref.tobytes()


class TestRunBacktest:
    def test_benchmark_is_buy_and_hold(self):
        rng = np.random.default_rng(42)
        smb = rng.standard_normal(300) * 0.5
        panel = panel_from(rng.standard_normal(300), smb)
        _, bench = run_backtest(panel, np.zeros(300, dtype=int), 1)
        direct = performance_metrics(smb)
        assert bench.annual_return == pytest.approx(direct.annual_return,
                                                    rel=1e-12)
        assert bench.n_active_days == 300

    def test_no_crisis_days_strategy_flat(self):
        rng = np.random.default_rng(43)
        panel = panel_from(rng.standard_normal(100),
                           rng.standard_normal(100))
        strat, _ = run_backtest(panel, np.zeros(100, dtype=int), 1)
        assert strat.n_active_days == 0
        assert strat.annual_return == 0.0
        assert strat.sharpe is None

    def test_date_range_slices(self):
        rng = np.random.default_rng(44)
        panel = panel_from(rng.standard_normal(200),
                           rng.standard_normal(200))
        labels = np.ones(200, dtype=int)
        full_strat, _ = run_backtest(panel, labels, 1)
        sub_strat, _ = run_backtest(panel, labels, 1,
                                    start=panel.dates[50],
                                    end=panel.dates[149])
        assert len(sub_strat.daily_returns) == 100
        assert len(full_strat.daily_returns) == 200

    def test_empty_range_rejected(self):
        rng = np.random.default_rng(45)
        panel = panel_from(rng.standard_normal(50), rng.standard_normal(50))
        with pytest.raises(ValueError):
            run_backtest(panel, np.zeros(50, dtype=int), 1,
                         start="2050-01-01")

    def test_execution_lag_shifts_application(self):
        rng = np.random.default_rng(46)
        hml = rng.standard_normal(120)
        smb = rng.standard_normal(120)
        panel = panel_from(hml, smb)
        labels = np.ones(120, dtype=int)
        same_day, _ = run_backtest(panel, labels, 1, execution_lag=0)
        next_day, _ = run_backtest(panel, labels, 1, execution_lag=1)
        sig = strategy_signal(hml, labels, 1, window=9)
        expected = np.concatenate([[0.0], sig[:-1]]) * smb
        np.testing.assert_allclose(next_day.daily_returns, expected)
        assert not np.allclose(same_day.daily_returns,
                               next_day.daily_returns)

    def test_negative_execution_lag_rejected(self):
        rng = np.random.default_rng(46)
        panel = panel_from(rng.standard_normal(50), rng.standard_normal(50))
        with pytest.raises(ValueError, match="^execution_lag must be >= 0, got -1$"):
            run_backtest(panel, np.ones(50, dtype=int), 1, execution_lag=-1)

    @pytest.mark.parametrize("lag", [50, 51])
    def test_execution_lag_past_the_range_is_flat(self, lag):
        rng = np.random.default_rng(46)
        panel = panel_from(rng.standard_normal(50), rng.standard_normal(50))
        strat, bench = run_backtest(panel, np.ones(50, dtype=int), 1,
                                    execution_lag=lag)
        np.testing.assert_array_equal(strat.daily_returns, 0.0)
        assert strat.n_active_days == 0 and strat.sharpe is None
        assert strat.daily_returns.shape == bench.daily_returns.shape == (50,)

    def test_misaligned_labels_rejected(self):
        rng = np.random.default_rng(47)
        panel = panel_from(rng.standard_normal(50), rng.standard_normal(50))
        with pytest.raises(ValueError):
            run_backtest(panel, np.zeros(10, dtype=int), 1)


class TestSerialization:
    def test_json_layout(self, tmp_path):
        rng = np.random.default_rng(48)
        panel = panel_from(rng.standard_normal(300),
                           rng.standard_normal(300))
        strat, bench = run_backtest(panel, np.ones(300, dtype=int), 1)
        path = tmp_path / "backtest.json"
        write_backtest_json(strat, bench, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"strategy", "benchmark"}
        for side in doc.values():
            assert set(side) == {"annual_return", "sharpe", "max_drawdown",
                                 "n_active_days", "n_days"}
        assert doc["benchmark"]["n_days"] == 300

    def test_returns_csv_round_trip(self, tmp_path):
        from factorregimes import read_panel_csv

        rng = np.random.default_rng(49)
        panel = panel_from(rng.standard_normal(100),
                           rng.standard_normal(100))
        strat, bench = run_backtest(panel, np.ones(100, dtype=int), 1)
        path = tmp_path / "returns.csv"
        write_returns_csv(strat, bench, path)
        back = read_panel_csv(path)
        assert back.factor_names == ("STRATEGY", "BENCHMARK")
        np.testing.assert_allclose(back.column("BENCHMARK"),
                                   bench.daily_returns, atol=5e-7)
