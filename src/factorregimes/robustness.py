"""Robustness battery: threshold regime detector, lag-selection sweeps,
subsample splits, and transition-window analysis.

These re-run the main causality test under weaker or alternative
assumptions; the transition windows test the HML -> SMB pair. The
threshold detector is deliberately model-free (rolling realized
volatility against a quantile cutoff) so agreement with the HMM-based
result is informative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDesignError, SampleSizeError
from .granger import (
    PairwiseMatrix,
    _bic_granger_tests,
    _fixed_lag_fit,
    _granger_result,
    pairwise_regime_matrix,
)
from .panel import TESTED_PAIR, FactorPanel, as_date64, volatility_norm


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


def lag_sweep(y, x, mask_builder: Callable[[int], np.ndarray],
              L_max_values: Sequence[int]) -> list[dict]:
    """BIC lag choice and test p-value as the search bound varies.

    mask_builder(L) gives the lag-complete mask at lag L, as for
    select_lag_bic. Rows keep input order; infeasible bounds record the
    error instead of aborting the sweep. One chain up to the largest
    bound serves every bound: its BIC table's prefix picks the lag, and
    its fit at that lag gives the test.
    """
    if any(v < 1 for v in L_max_values):
        raise ValueError("every L_max must be >= 1")
    if not L_max_values:
        return []
    rows = []
    results = _bic_granger_tests(y, x, mask_builder, L_max_values)
    for L_max, res in zip(L_max_values, results):
        row = {"L_max": L_max, "L_star": None, "f_stat": None,
               "p_value": None, "n_obs": None, "error": None}
        if isinstance(res, Exception):
            row["error"] = str(res)
        else:
            row.update(L_star=res.lag, f_stat=res.f_stat, p_value=res.p_value,
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


def _pooled_f(y, x, segments, L: int) -> tuple[float | None, int]:
    """Stacked-design F test over per-transition segments.

    Each segment (lo, hi) contributes design rows lo+L..hi, so lags stay
    inside [lo, hi]. Returns (p_value, n_rows); p is None when the
    pooled design is too small or degenerate.
    """
    rows = np.concatenate([np.arange(0), *(np.arange(lo + L, hi + 1)
                                           for lo, hi in segments)])
    try:
        res = _granger_result(_fixed_lag_fit(y, x, rows, L), L)
    except (SampleSizeError, DegenerateDesignError):
        return None, rows.size
    return res.p_value, rows.size


def _transition_starts(labels, crisis_index, m, entering: bool) -> np.ndarray:
    """Indices t that begin >= m consecutive days of the state (entering:
    crisis, else non-crisis) and follow a day outside it."""
    crisis = labels == crisis_index
    state = crisis if entering else ~crisis
    T = labels.shape[0]
    if T < m + 1:
        return np.zeros(0, dtype=np.int64)
    runs = np.convolve(state.astype(int), np.ones(m, dtype=int), "valid") == m
    return np.flatnonzero(runs[1:] & ~state[:T - m]) + 1


def transition_window_analysis(panel: FactorPanel, labels, crisis_index: int,
                               m: int = 5, window: int = 60, L: int = 9
                               ) -> TransitionReport:
    """Does the HML -> SMB relation switch on at crisis entry?

    Entries are first days of >= m consecutive crisis labels preceded by
    a non-crisis day; exits are the mirror image. For each transition the
    `window` days before and the `window` days starting at the transition
    form separate design segments (lags never cross the boundary), pooled
    into one stacked regression per side. Returns pooled p-values; a
    direction with no transitions reports an empty pair.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != panel.n_days:
        raise ValueError("labels must align with the panel rows")
    source, target = TESTED_PAIR
    y = panel.column(target)
    x = panel.column(source)
    T = panel.n_days
    out = {}
    for name, entering in (("entry", True), ("exit", False)):
        starts = _transition_starts(labels, crisis_index, m, entering)
        before = [(max(0, t - window), t - 1) for t in starts]
        after = [(t, min(T - 1, t + window - 1)) for t in starts]
        p_b, n_b = _pooled_f(y, x, before, L)
        p_a, n_a = _pooled_f(y, x, after, L)
        out[name] = TransitionPair(len(starts), p_b, p_a, n_b, n_a)
    return TransitionReport(entry=out["entry"], exit=out["exit"])
