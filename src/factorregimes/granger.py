"""Regime-conditioned Granger causality.

Within-regime tests require lag-complete rows: day t enters the design
for regime k at lag L only if t and all of t-1..t-L carry label k, so no
regression row straddles a regime boundary. Lag order is chosen per cell
by BIC on the unrestricted model, then the F test compares restricted
(own lags) against unrestricted (own plus source lags) on the identical
row set.

One core serves every test in the package: `_lagged_design` builds each
lagged design from row indices and `_nested_f` runs each F test, with the
one copy of the rank, exact-fit and constant-response checks. The
lag-selection policy lives in one function, `bic_granger_test`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DegenerateDesignError, SampleSizeError
from .numerics import FTestDistribution, f_sf
from .panel import FactorPanel

DEFAULT_L_MAX = 15
DEFAULT_ALPHA = 0.01
MIN_EXTRA_ROWS = 10  # design rows beyond parameter count


@dataclass(frozen=True)
class GrangerResult:
    """One directed test: does `source` improve prediction of `target`?"""

    source: str
    target: str
    regime: int | str
    lag: int
    f_stat: float
    p_value: float
    n_obs: int
    r2_increment: float
    significant_bonferroni: bool


@dataclass(frozen=True)
class CellFailure:
    """A matrix cell that could not be tested, with the reason."""

    source: str
    target: str
    regime: int | str
    error: str


@dataclass(frozen=True)
class PairwiseMatrix:
    """All-pairs result collection; iterating yields the successful cells."""

    results: tuple[GrangerResult, ...]
    failures: tuple[CellFailure, ...] = ()

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


def regime_lag_mask(labels, k: int, L: int) -> np.ndarray:
    """Days in regime k whose previous L days are also regime k.

    mask[t] is true iff labels[t] == k and labels[t-l] == k for every
    l in 1..L; the first L positions are always false.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    labels = np.asarray(labels)
    ok = labels == k
    mask = ok.copy()
    for lag in range(1, L + 1):
        mask[lag:] &= ok[:-lag]
    mask[: min(L, mask.shape[0])] = False
    return mask


def full_mask(n: int) -> np.ndarray:
    """All-true mask for pooled (regime-free) tests; build_design trims warm-up."""
    return np.ones(n, dtype=bool)


def _lagged_design(y, x, rows, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Response and unrestricted regressors at the given row indices.

    X_u columns are [1, y lags 1..L, x lags 1..L]; the restricted model
    is X_u[:, :L + 1]. Rows are used as given, duplicates included, and
    must all be >= L. Every lagged regression in the package is built here.
    """
    n = rows.shape[0]
    required = 2 * L + 1 + MIN_EXTRA_ROWS
    if n < required:
        raise SampleSizeError(required, n, f"lag {L} design")
    lags = rows[:, None] - np.arange(1, L + 1)
    X_u = np.hstack([np.ones((n, 1)), y[lags], x[lags]])
    return y[rows], X_u


def build_design(y, x, L: int, mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble response and regressor matrices for the two nested models.

    Selected rows are the masked positions with t >= L, in time order.
    Restricted columns: intercept, y lags 1..L. Unrestricted appends
    x lags 1..L.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if not (y.shape == x.shape == mask.shape):
        raise ValueError("y, x, and mask must have equal length")
    if L < 1:
        raise ValueError("L must be >= 1")
    sel = np.flatnonzero(mask)
    Y, X_u = _lagged_design(y, x, sel[sel >= L], L)
    return Y, X_u[:, :L + 1], X_u


def ols_rss(X: np.ndarray, Y: np.ndarray) -> tuple[float, int]:
    """Residual sum of squares and rank of the least-squares fit.

    Solved by orthogonal decomposition (SVD), stable for the
    near-collinear lag matrices these designs produce. Rank-deficient
    inputs still return, with rank below the column count.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    if X.shape[0] < X.shape[1]:
        raise SampleSizeError(
            X.shape[1], X.shape[0], f"least squares with {X.shape[1]} columns"
        )
    beta, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ beta
    return float(resid @ resid), int(rank)


def _unrestricted_rss(Y, X_u) -> float:
    """RSS of the full-rank, inexact unrestricted fit; raises otherwise.

    _lagged_design leaves at least MIN_EXTRA_ROWS residual degrees of
    freedom, so the F test's n - 2L - 1 is always positive.
    """
    rss_u, rank_u = ols_rss(X_u, Y)
    if rank_u < X_u.shape[1]:
        raise DegenerateDesignError(
            f"unrestricted design rank {rank_u} < {X_u.shape[1]} columns"
        )
    if rss_u <= 0.0:
        raise DegenerateDesignError("unrestricted model fits exactly (zero RSS)")
    return rss_u


def _nested_f(Y, X_u, L: int) -> tuple[float, float, float]:
    """(F, p-value, R^2 increment) of the x lags in the design X_u, as
    granger_f_test defines them."""
    rss_u = _unrestricted_rss(Y, X_u)
    rss_r, _ = ols_rss(X_u[:, :L + 1], Y)
    tss = float(np.sum((Y - Y.mean()) ** 2))
    if tss <= 0.0:
        raise DegenerateDesignError("response is constant on the selected rows")
    df2 = Y.shape[0] - 2 * L - 1
    # rounding can push RSS_r a hair below RSS_u; the ratio is then 0
    f_stat = max(0.0, (rss_r - rss_u) / L / (rss_u / df2))
    p_value = f_sf(f_stat, FTestDistribution(L, df2))
    return f_stat, p_value, max(0.0, (rss_r - rss_u) / tss)


def granger_f_test(y, x, L: int, mask, *, source: str = "x", target: str = "y",
                   regime: int | str = "pooled",
                   bonferroni_threshold: float = DEFAULT_ALPHA / 30.0) -> GrangerResult:
    """F test of the null that lags of x add nothing to the AR model of y.

    F = ((RSS_r - RSS_u)/L) / (RSS_u/(n - 2L - 1)), upper-tail p-value
    from the F(L, n-2L-1) distribution.
    """
    Y, _, X_u = build_design(y, x, L, mask)
    f_stat, p_value, r2_increment = _nested_f(Y, X_u, L)
    return GrangerResult(
        source=source,
        target=target,
        regime=regime,
        lag=L,
        f_stat=f_stat,
        p_value=p_value,
        n_obs=Y.shape[0],
        r2_increment=r2_increment,
        significant_bonferroni=bool(p_value < bonferroni_threshold),
    )


def _bic_table(y, x, mask_builder: Callable[[int], np.ndarray],
               L_max: int) -> list[dict]:
    """Per-L rows (lag, n_obs, bic, error) for L in 1..L_max."""
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    table = []
    for L in range(1, L_max + 1):
        row = {"lag": L, "n_obs": None, "bic": None, "error": None}
        try:
            Y, _, X_u = build_design(y, x, L, mask_builder(L))
            rss_u = _unrestricted_rss(Y, X_u)
        except (SampleSizeError, DegenerateDesignError) as exc:
            row["error"] = str(exc)
        else:
            n = Y.shape[0]
            row["n_obs"] = n
            row["bic"] = n * math.log(rss_u / n) + (2 * L + 1) * math.log(n)
        table.append(row)
    return table


def _min_bic_lag(table: list[dict], mask_builder) -> int:
    """The lag of the table's smallest BIC, the smaller lag on ties."""
    fits = [(row["bic"], row["lag"]) for row in table if row["bic"] is not None]
    if not fits:
        rows = int(np.count_nonzero(np.asarray(mask_builder(1), dtype=bool)[1:]))
        raise SampleSizeError(
            2 * 1 + 1 + MIN_EXTRA_ROWS, rows, f"no feasible lag in 1..{len(table)}"
        )
    return min(fits)[1]


def select_lag_bic(y, x, mask_builder: Callable[[int], np.ndarray],
                   L_max: int) -> tuple[int, list[dict]]:
    """Choose the lag order minimizing BIC of the unrestricted model.

    Each candidate L is evaluated on its own lag-complete mask, since
    the admissible sample shrinks as L grows. BIC = n ln(RSS_u/n)
    + (2L+1) ln n; ties break toward the smaller L. Returns the winner
    and a per-L table (lag, n_obs, bic, error).
    """
    table = _bic_table(y, x, mask_builder, L_max)
    return _min_bic_lag(table, mask_builder), table


def bic_granger_test(y, x, mask_builder: Callable[[int], np.ndarray], L_max: int,
                     *, table: list[dict] | None = None, **fields) -> GrangerResult:
    """select_lag_bic over 1..L_max, then granger_f_test at the chosen lag.

    Every lag-selected test in the package goes through here, so the
    lag-selection policy lives in this one function. `table`, a
    select_lag_bic table covering at least 1..L_max, saves the search.
    `fields` are granger_f_test's keyword arguments.
    """
    if table is None:
        table = _bic_table(y, x, mask_builder, L_max)
    L_star = _min_bic_lag(table[:L_max], mask_builder)
    return granger_f_test(y, x, L_star, mask_builder(L_star), **fields)


def pairwise_regime_matrix(panel: FactorPanel, labels, L_max: int = DEFAULT_L_MAX,
                           alpha: float = DEFAULT_ALPHA) -> PairwiseMatrix:
    """BIC-lagged Granger tests for every ordered factor pair and regime.

    The Bonferroni threshold divides alpha by the d(d-1) directed pairs.
    Cells without a feasible design are recorded as failures rather than
    aborting the matrix. Ordering is (source, target, regime) with factor
    order taken from the panel.
    """
    d = panel.n_factors
    if d < 2:
        raise ValueError("need at least two factors for pairwise tests")
    labels = np.asarray(labels)
    if labels.shape[0] != panel.n_days:
        raise ValueError("labels must align with the panel rows")
    threshold = alpha / (d * (d - 1))
    regimes = [int(k) for k in np.unique(labels)]
    results = []
    failures = []
    for i, source in enumerate(panel.factor_names):
        x = panel.returns[:, i]
        for j, target in enumerate(panel.factor_names):
            if i == j:
                continue
            y = panel.returns[:, j]
            for k in regimes:
                try:
                    res = bic_granger_test(
                        y, x, lambda L, k=k: regime_lag_mask(labels, k, L), L_max,
                        source=source, target=target, regime=k,
                        bonferroni_threshold=threshold,
                    )
                except (SampleSizeError, DegenerateDesignError) as exc:
                    failures.append(CellFailure(source, target, k, str(exc)))
                    continue
                results.append(res)
    return PairwiseMatrix(tuple(results), tuple(failures))


def granger_results_to_csv(results: Iterable[GrangerResult], path_or_buf) -> None:
    """Write results in the canonical CSV layout; p-values in scientific
    notation with 6 significant digits."""
    own = not hasattr(path_or_buf, "write")
    fh = open(path_or_buf, "w", encoding="utf-8") if own else path_or_buf
    try:
        fh.write("source,target,regime,lag,f_stat,p_value,n_obs,"
                 "r2_increment,significant\n")
        for r in results:
            fh.write(
                f"{r.source},{r.target},{r.regime},{r.lag},{r.f_stat:.6f},"
                f"{r.p_value:.5e},{r.n_obs},{r.r2_increment:.6f},"
                f"{r.significant_bonferroni}\n"
            )
    finally:
        if own:
            fh.close()
