"""Robustness battery: threshold regime detector, lag-selection sweeps,
subsample splits, and transition-window analysis.

These re-run the main causality test under weaker or alternative
assumptions. The threshold detector is deliberately model-free (rolling
realized volatility against a quantile cutoff) so agreement with the
HMM-based result is informative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDesignError, SampleSizeError
from .granger import (
    PairwiseMatrix,
    full_mask,
    ols_rss,
    pairwise_regime_matrix,
    select_lag_bic,
    granger_f_test,
)
from .numerics import FTestDistribution, f_sf
from .panel import FactorPanel, as_date64, volatility_norm


def threshold_regimes(panel: FactorPanel, window: int = 21,
                      quantile: float = 0.90) -> np.ndarray:
    """Two-state labels from a rolling realized-volatility threshold.

    Realized volatility is the trailing `window`-day mean of the daily
    volatility norm. Days where it strictly exceeds the full-sample
    quantile are labeled 1 (crisis), all others 0, including the warm-up
    days that have no complete window. A constant series yields zero
    crisis days because the comparison is strict.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    T = panel.n_days
    if T <= window:
        raise SampleSizeError(window + 1, T, f"a {window}-day window")
    norm = volatility_norm(panel)
    csum = np.concatenate([[0.0], np.cumsum(norm)])
    realized = (csum[window:] - csum[:-window]) / window  # ends at t = window-1..T-1
    cutoff = np.quantile(realized, quantile)
    labels = np.zeros(T, dtype=np.int64)
    labels[window - 1:] = (realized > cutoff).astype(np.int64)
    return labels


def lag_sweep(y, x, mask, L_max_values: Sequence[int]) -> list[dict]:
    """BIC lag choice and test p-value as the search bound varies.

    `mask` may be a fixed boolean mask or a callable L -> mask for
    lag-complete regime conditioning. Rows keep input order; infeasible
    bounds record the error instead of aborting the sweep.
    """
    if any(v < 1 for v in L_max_values):
        raise ValueError("every L_max must be >= 1")
    builder: Callable[[int], np.ndarray]
    if callable(mask):
        builder = mask
    else:
        fixed = np.asarray(mask, dtype=bool)
        builder = lambda L: fixed
    rows = []
    for L_max in L_max_values:
        row = {"L_max": L_max, "L_star": None, "f_stat": None,
               "p_value": None, "n_obs": None, "error": None}
        try:
            L_star, _ = select_lag_bic(y, x, builder, L_max)
            res = granger_f_test(y, x, L_star, builder(L_star))
        except (SampleSizeError, DegenerateDesignError) as exc:
            row["error"] = str(exc)
            rows.append(row)
            continue
        row.update(L_star=L_star, f_stat=res.f_stat, p_value=res.p_value,
                   n_obs=res.n_obs)
        rows.append(row)
    return rows


def subsample_split(panel: FactorPanel, labels, split_date,
                    L_max: int = 15, alpha: float = 0.01
                    ) -> tuple[PairwiseMatrix, PairwiseMatrix]:
    """Pairwise regime matrices on the rows before and from split_date.

    Each side is tested independently with its own lag-complete masks.
    A side without enough usable rows simply reports its cells as
    failures (or nothing at all when empty).
    """
    labels = np.asarray(labels)
    if labels.shape[0] != panel.n_days:
        raise ValueError("labels must align with the panel rows")
    split = as_date64(split_date)
    pre_keep = panel.dates < split
    post_keep = ~pre_keep
    sides = []
    for keep in (pre_keep, post_keep):
        sub = FactorPanel(panel.dates[keep], panel.returns[keep],
                          panel.factor_names)
        if sub.n_days == 0:
            sides.append(PairwiseMatrix((), ()))
            continue
        sides.append(pairwise_regime_matrix(sub, labels[keep], L_max, alpha))
    return sides[0], sides[1]


@dataclass(frozen=True)
class TransitionPair:
    """Pooled before/after test around one transition direction."""

    n_transitions: int
    p_before: float | None
    p_after: float | None
    n_before: int
    n_after: int


@dataclass(frozen=True)
class TransitionReport:
    entry: TransitionPair
    exit: TransitionPair


def _segment_rows(y, x, L, lo, hi):
    """Design rows for global indices lo+L..hi, lags confined to [lo, hi]."""
    ts = np.arange(lo + L, hi + 1)
    if ts.size == 0:
        return None
    Y = y[ts]
    cols = [np.ones(ts.size)]
    for lag in range(1, L + 1):
        cols.append(y[ts - lag])
    X_r = np.column_stack(cols)
    for lag in range(1, L + 1):
        cols.append(x[ts - lag])
    X_u = np.column_stack(cols)
    return Y, X_r, X_u


def _pooled_f(segments, L: int) -> tuple[float | None, int]:
    """Stacked-design F test over per-transition segments.

    Returns (p_value, n_rows); p is None when the pooled design is too
    small or degenerate.
    """
    parts = [s for s in segments if s is not None]
    if not parts:
        return None, 0
    Y = np.concatenate([s[0] for s in parts])
    X_r = np.vstack([s[1] for s in parts])
    X_u = np.vstack([s[2] for s in parts])
    n = Y.shape[0]
    df2 = n - 2 * L - 1
    if n < 2 * L + 1 + 10 or df2 <= 0:
        return None, n
    rss_u, rank_u = ols_rss(X_u, Y)
    if rank_u < X_u.shape[1] or rss_u <= 0.0:
        return None, n
    rss_r, _ = ols_rss(X_r, Y)
    f_stat = max(0.0, (rss_r - rss_u) / L / (rss_u / df2))
    return f_sf(f_stat, FTestDistribution(L, df2)), n


def _transition_starts(labels, crisis_index, m, entering: bool, entry_from):
    """Indices t that begin >= m consecutive days in (entering: crisis,
    else non-crisis), with the prior day on the other side."""
    crisis = labels == crisis_index
    state = crisis if entering else ~crisis
    T = labels.shape[0]
    if T < m + 1:
        return []
    runs = np.convolve(state.astype(int), np.ones(m, dtype=int), "valid") == m
    starts = []
    for t in range(1, T - m + 1):
        if not runs[t]:
            continue
        if entering:
            prev_ok = (labels[t - 1] == entry_from) if entry_from is not None \
                else not crisis[t - 1]
        else:
            prev_ok = crisis[t - 1]
        if prev_ok:
            starts.append(t)
    return starts


def transition_window_analysis(panel: FactorPanel, labels, crisis_index: int,
                               m: int = 5, window: int = 60, L: int = 9, *,
                               source: str = "HML", target: str = "SMB",
                               entry_from: int | None = None
                               ) -> TransitionReport:
    """Does the source->target relation switch on at crisis entry?

    Entries are first days of >= m consecutive crisis labels preceded by
    a non-crisis day (or by `entry_from` when given); exits are the
    mirror image. For each transition the `window` days before and the
    `window` days starting at the transition form separate design
    segments (lags never cross the boundary), pooled into one stacked
    regression per side. Returns pooled p-values; a direction with no
    transitions reports an empty pair.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != panel.n_days:
        raise ValueError("labels must align with the panel rows")
    y = panel.column(target)
    x = panel.column(source)
    T = panel.n_days
    out = {}
    for name, entering in (("entry", True), ("exit", False)):
        starts = _transition_starts(labels, crisis_index, m, entering, entry_from)
        before, after = [], []
        for t in starts:
            lo_b = max(0, t - window)
            if t - 1 >= lo_b:
                before.append(_segment_rows(y, x, L, lo_b, t - 1))
            hi_a = min(T - 1, t + window - 1)
            after.append(_segment_rows(y, x, L, t, hi_a))
        p_b, n_b = _pooled_f(before, L)
        p_a, n_a = _pooled_f(after, L)
        out[name] = TransitionPair(len(starts), p_b, p_a, n_b, n_a)
    return TransitionReport(entry=out["entry"], exit=out["exit"])
