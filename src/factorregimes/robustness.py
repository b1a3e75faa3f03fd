"""Robustness battery: threshold regime detector, lag-selection sweeps,
subsample splits, and transition-window analysis.

These re-run the main causality test under weaker or alternative
assumptions; the transition windows test the HML -> SMB pair. The
threshold detector is deliberately model-free (rolling realized
volatility against a quantile cutoff) so agreement with the HMM-based
result is informative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDesignError, SampleSizeError
from .granger import (
    PairwiseMatrix,
    _bic_lag,
    _granger_result,
    _lag_search,
    _runs_from,
    _segment_test,
    pairwise_regime_matrix,
)
from .panel import (DEFAULT_ALPHA, DEFAULT_L_MAX, TESTED_LAG, FactorPanel, _aligned,
                    _in_range, _tested_pair, volatility_norm)

THRESHOLD_WINDOW = 21  # trading days of the detector's realized volatility
THRESHOLD_QUANTILE = 0.90  # full-sample cutoff of the detector's crisis days
TRANSITION_MIN_RUN = 5  # days a state must last for a transition into it
TRANSITION_WINDOW = 60  # days tested on each side of a transition


def threshold_regimes(panel: FactorPanel) -> np.ndarray:
    """Two-state labels from a rolling realized-volatility threshold.

    Realized volatility is the trailing THRESHOLD_WINDOW-day mean of the
    daily volatility norm. Days where it strictly exceeds the full-sample
    THRESHOLD_QUANTILE quantile are labeled 1 (crisis), all others 0,
    including the warm-up days that have no complete window. A constant
    series yields zero crisis days because the comparison is strict.
    """
    T, w = panel.n_days, THRESHOLD_WINDOW
    if T <= w:
        raise SampleSizeError(w + 1, T, f"a {w}-day window")
    norm = volatility_norm(panel)
    csum = np.concatenate([[0.0], np.cumsum(norm)])
    realized = (csum[w:] - csum[:-w]) / w  # ends at t = w-1..T-1
    cutoff = _quantile(realized, THRESHOLD_QUANTILE)
    labels = np.zeros(T, dtype=np.int64)
    labels[w - 1:] = (realized > cutoff).astype(np.int64)
    return labels


def _quantile(values: np.ndarray, q: float) -> np.floating:
    """np.quantile(values, q) of a non-empty 1-D array by its default
    linear rule, without the numpy.ma import that np.quantile makes. As in
    numpy, at or past the last value both neighbours are the last and the
    weight counts from -1, and a NaN anywhere gives NaN. The two agree to
    the bit but for the sign of a zero, which np.quantile takes from its
    partition order."""
    s = np.sort(values)
    i = (s.size - 1) * q
    lo, hi = (math.floor(i), math.floor(i) + 1) if i < s.size - 1 else (-1, -1)
    a, b, t = s[lo], s[hi], i - lo
    value = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return s[-1] if np.isnan(s[-1]) else value


def lag_sweep(y, x, mask_builder: Callable[[int], np.ndarray],
              L_max_values: Sequence[int]) -> list[dict]:
    """BIC lag choice and test p-value as the search bound varies.

    mask_builder(L) gives the lag-complete mask at lag L, as for
    select_lag_bic. Rows keep input order; infeasible bounds record the
    error instead of aborting the sweep. One chain up to the largest
    bound serves every bound: its fits up to the bound pick the lag by
    BIC, and its fit at that lag gives the test.
    """
    if any(v < 1 for v in L_max_values):
        raise ValueError("every L_max must be >= 1")
    if not L_max_values:
        return []
    fits = _lag_search(y, x, mask_builder, max(L_max_values))
    rows = []
    for L_max in L_max_values:
        row = {"L_max": L_max, "L_star": None, "f_stat": None,
               "p_value": None, "n_obs": None, "error": None}
        try:
            L = _bic_lag(fits, L_max)
            res = _granger_result(fits[L], L)
        except (SampleSizeError, DegenerateDesignError) as exc:
            row["error"] = str(exc)
        else:
            row.update(L_star=res.lag, f_stat=res.f_stat, p_value=res.p_value,
                       n_obs=res.n_obs)
        rows.append(row)
    return rows


def subsample_split(panel: FactorPanel, labels, split_date,
                    L_max: int = DEFAULT_L_MAX, alpha: float = DEFAULT_ALPHA
                    ) -> tuple[PairwiseMatrix, PairwiseMatrix]:
    """Pairwise regime matrices on the rows before and from split_date.

    Each side is tested independently with its own lag-complete masks.
    A side without enough usable rows simply reports its cells as
    failures (or nothing at all when empty).
    """
    labels = _aligned(labels, panel.n_days, "labels")
    post = _in_range(panel.dates, split_date)
    sides = []
    for keep in (~post, post):
        sub = FactorPanel(panel.dates[keep], panel.returns[keep], panel.factor_names)
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


def _transition_starts(labels, crisis_index, m, entering: bool) -> np.ndarray:
    """Indices t that begin >= m consecutive days of the state (entering:
    crisis, else non-crisis) and follow a day outside it."""
    crisis = labels == crisis_index
    state = crisis if entering else ~crisis
    return np.flatnonzero(_runs_from(state, m)[1:] & ~state[:-1]) + 1


def transition_window_analysis(panel: FactorPanel, labels,
                               crisis_index: int) -> TransitionReport:
    """Does the HML -> SMB relation switch on at crisis entry?

    Entries are first days of >= TRANSITION_MIN_RUN crisis days preceded
    by a non-crisis day; exits are the mirror image. The TRANSITION_WINDOW
    days before each transition and from it on form separate design
    segments (lags never cross the boundary), pooled into one regression
    per side at TESTED_LAG. Returns pooled p-values; a direction with no
    transitions reports an empty pair.
    """
    labels = _aligned(labels, panel.n_days, "labels")
    y, x = _tested_pair(panel)
    T, w = panel.n_days, TRANSITION_WINDOW
    out = {}
    for name, entering in (("entry", True), ("exit", False)):
        starts = _transition_starts(labels, crisis_index,
                                    TRANSITION_MIN_RUN, entering)
        before = [(max(0, t - w), t - 1) for t in starts]
        after = [(t, min(T - 1, t + w - 1)) for t in starts]
        p_b, n_b = _segment_test(y, x, before, TESTED_LAG)
        p_a, n_a = _segment_test(y, x, after, TESTED_LAG)
        out[name] = TransitionPair(len(starts), p_b, p_a, n_b, n_a)
    return TransitionReport(entry=out["entry"], exit=out["exit"])
