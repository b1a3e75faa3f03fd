"""Crisis-gated trading strategy evaluation.

The strategy holds SMB only on days decoded as the crisis regime,
long or short by the sign of the trailing compounded HML return.
The strategy's daily return is position times SMB return; the benchmark
is buy-and-hold SMB, and both legs are scored by performance_metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .panel import (FactorPanel, _aligned, _in_range, _tested_pair, _write_text,
                    write_panel_csv)

TRADING_DAYS_PER_YEAR = 252
SIGNAL_WINDOW = 9  # trading days of the strategy's trailing HML return


@dataclass(frozen=True)
class BacktestReport:
    """Daily strategy returns plus the three summary metrics.

    annual_return : geometric annualized return, percent
    sharpe        : annualized mean/std of daily returns; None when the
                    return series has zero variance
    max_drawdown  : minimum percent decline of the wealth curve from its
                    running maximum (always <= 0)
    """

    dates: np.ndarray
    daily_returns: np.ndarray
    annual_return: float
    sharpe: float | None
    max_drawdown: float
    n_active_days: int


def strategy_signal(hml, labels, crisis_index: int,
                    window: int = SIGNAL_WINDOW) -> np.ndarray:
    """Position series in {-1, 0, +1}.

    On a crisis-labeled day t (with t >= window), the position is the
    sign of the compounded HML return over days t-window..t-1; all other
    days are flat. An exactly zero trailing return is flat as well. The
    signal at t uses data only through t-1, so it is computable at the
    prior close.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    hml = np.asarray(hml, dtype=float).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if hml.shape != labels.shape:
        raise ValueError("hml and labels must have equal length")
    signal = np.zeros(hml.shape[0])
    # growth[t] is the compounded HML growth over days 0..t-1
    growth = np.concatenate([[1.0], np.cumprod(1.0 + hml / 100.0)])
    on = np.flatnonzero(labels[window:] == crisis_index) + window
    signal[on] = np.sign(growth[on] / growth[on - window] - 1.0)
    return signal


def performance_metrics(returns, dates=None, n_active_days: int | None = None
                        ) -> BacktestReport:
    """Annualized geometric return, Sharpe ratio, and maximum drawdown.

    With no explicit active-day count, days with nonzero return are
    counted as active.
    """
    returns = np.asarray(returns, dtype=float).reshape(-1)
    T = returns.shape[0]
    if T == 0:
        raise ValueError("return series is empty")
    if dates is None:
        dates = np.arange(T).astype("datetime64[D]")
    dates = np.asarray(dates, dtype="datetime64[D]")
    wealth = np.cumprod(1.0 + returns / 100.0)
    annual = 100.0 * (wealth[-1] ** (TRADING_DAYS_PER_YEAR / T) - 1.0)
    # a constant series has zero variance even when std(ddof=1) returns
    # rounding noise, so test constancy exactly
    if T > 1 and np.ptp(returns) > 0.0:
        sd = returns.std(ddof=1)
        sharpe = float(returns.mean() / sd * math.sqrt(TRADING_DAYS_PER_YEAR))
    else:
        sharpe = None
    drawdown = wealth / np.maximum.accumulate(wealth) - 1.0
    mdd = float(drawdown.min() * 100.0)
    if n_active_days is None:
        n_active_days = int(np.count_nonzero(returns))
    return BacktestReport(
        dates=dates,
        daily_returns=returns,
        annual_return=float(annual),
        sharpe=sharpe,
        max_drawdown=mdd,
        n_active_days=n_active_days,
    )


def run_backtest(panel: FactorPanel, labels, crisis_index: int, *,
                 window: int = SIGNAL_WINDOW, start=None, end=None,
                 execution_lag: int = 0) -> tuple[BacktestReport, BacktestReport]:
    """Strategy and buy-and-hold benchmark over an optional date range.

    execution_lag=1 applies each signal to the following day's return,
    removing even the same-day convention's timing assumption; a lag of
    at least the range's length leaves the strategy flat.
    """
    if execution_lag < 0:
        raise ValueError(f"execution_lag must be >= 0, got {execution_lag}")
    labels = _aligned(np.asarray(labels).reshape(-1), panel.n_days, "labels")
    keep = _in_range(panel.dates, start, end)
    if not keep.any():
        raise ValueError("date range selects no rows")
    sub_dates = panel.dates[keep]
    smb_r, hml_r = (series[keep] for series in _tested_pair(panel))
    sub_labels = labels[keep]
    signal = strategy_signal(hml_r, sub_labels, crisis_index, window)
    signal = np.concatenate([np.zeros(execution_lag), signal])[:signal.size]
    strat = performance_metrics(
        signal * smb_r, sub_dates,
        n_active_days=int(np.count_nonzero(signal)),
    )
    bench = performance_metrics(
        smb_r, sub_dates,
        n_active_days=smb_r.shape[0],
    )
    return strat, bench


def _report_doc(r: BacktestReport) -> dict:
    return {
        "annual_return": r.annual_return,
        "sharpe": r.sharpe,
        "max_drawdown": r.max_drawdown,
        "n_active_days": r.n_active_days,
        "n_days": int(r.daily_returns.shape[0]),
    }


def write_backtest_json(strategy: BacktestReport, benchmark: BacktestReport,
                        path) -> None:
    doc = {"strategy": _report_doc(strategy), "benchmark": _report_doc(benchmark)}
    _write_text(path, [json.dumps(doc, indent=2), "\n"])


def write_returns_csv(strategy: BacktestReport, benchmark: BacktestReport,
                      path) -> None:
    """Daily return series of both legs in the canonical panel layout."""
    if strategy.daily_returns.shape != benchmark.daily_returns.shape:
        raise ValueError("strategy and benchmark series differ in length")
    p = FactorPanel(
        strategy.dates,
        np.column_stack([strategy.daily_returns, benchmark.daily_returns]),
        ("STRATEGY", "BENCHMARK"),
    )
    write_panel_csv(p, path)
