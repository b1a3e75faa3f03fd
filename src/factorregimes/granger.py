"""Regime-conditioned Granger causality.

Within-regime tests require lag-complete rows: day t enters the design
for regime k at lag L only if t and all of t-1..t-L carry label k, so no
regression row straddles a regime boundary. Lag order is chosen per cell
by BIC on the unrestricted model, then the F test compares restricted
(own lags) against unrestricted (own plus source lags) on the identical
row set.

One least-squares core serves every test in the package. `_lag_block`
builds every lagged design, `[1, each series' lags, each series' same-day
value]`, from row indices. `_r_chain` folds design rows into Householder
R factors: lag-complete masks are nested, so each row has a depth (the
largest lag at which it is usable), and folding rows in from the deepest
level down gives the R factor of every lag's row set in one pass. A column
subset of such a factor factors that column subset of the design, so one
chain per regime serves every ordered pair and every lag of the pairwise
matrix, and one chain over (y, x) serves a lag search. A small QR of the
columns [1, y lags, x lags, y] then gives the unrestricted RSS (its last
diagonal entry squared) and the x lags' RSS reduction (the squared x-lag
entries of its last column), without subtracting two fits. Fixed-lag F
tests run one QR of `[X_u | Y]` through `_nested_f`. The rank, exact-fit
and constant-response checks exist once, and the lag-selection policy
(smallest BIC, ties to the smaller lag) lives in `_min_bic_lag`.
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
BLOCK_ROWS = 512  # design rows folded into an R factor at once


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


def _check_rows(n: int, L: int) -> None:
    """SampleSizeError unless n rows leave MIN_EXTRA_ROWS spare at lag L."""
    required = 2 * L + 1 + MIN_EXTRA_ROWS
    if n < required:
        raise SampleSizeError(required, n, f"lag {L} design")


def _lag_block(series: np.ndarray, L_max: int) -> Callable[[np.ndarray], np.ndarray]:
    """Row builder of the lagged design over the (T, m) array `series`.

    `block(rows)` returns, at those row indices, the columns [1, series 0
    lags 1..L_max, ..., series m-1 lags 1..L_max, each series' same-day
    value]: series j's lag l sits in column 1 + j*L_max + l - 1 and its
    same-day value in 1 + m*L_max + j. Rows are used as given, duplicates
    included. Lags reaching before the first day read day 0; a row of
    depth D is only ever fitted at lags up to D, so those cells are unused.
    """
    m = series.shape[1]
    steps = np.arange(1, L_max + 1)

    def block(rows: np.ndarray) -> np.ndarray:
        lags = series[np.maximum(rows[:, None] - steps, 0)]  # (rows, L_max, m)
        return np.hstack([np.ones((rows.size, 1)),
                          lags.transpose(0, 2, 1).reshape(rows.size, m * L_max),
                          series[rows]])
    return block


def _lagged_design(y, x, rows, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Response and unrestricted regressors at the given row indices.

    X_u columns are [1, y lags 1..L, x lags 1..L]; the restricted model
    is X_u[:, :L + 1]. Rows are used as given, duplicates included, and
    must all be >= L.
    """
    _check_rows(rows.shape[0], L)
    Z = _lag_block(np.column_stack([y, x]), L)(rows)
    return Z[:, 2 * L + 1], Z[:, :2 * L + 1]


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


def _lag_depth(mask_builder: Callable[[int], np.ndarray], L_max: int,
               n: int) -> np.ndarray:
    """Each row's lag depth: the rows usable at lag L are depth >= L.

    Row t is usable at L when mask_builder(L)[t] holds and t >= L, as in
    build_design. The masks must be nested, mask(L) a subset of
    mask(L-1), as lag-complete and fixed masks are; a ValueError names
    the first L at which they are not.
    """
    depth = np.zeros(n, dtype=np.intp)
    prev = None
    for L in range(1, L_max + 1):
        mask = np.asarray(mask_builder(L), dtype=bool).reshape(-1)
        if mask.shape[0] != n:
            raise ValueError("y, x, and mask must have equal length")
        if prev is not None and np.any(mask & ~prev):
            raise ValueError(f"mask_builder({L}) is not a subset of "
                             f"mask_builder({L - 1}); lag masks must be nested")
        depth[L:] += mask[L:]
        prev = mask
    return depth


def _r_chain(block: Callable[[np.ndarray], np.ndarray], depth: np.ndarray,
             L_max: int) -> list[np.ndarray | None]:
    """R factors of the design rows of depth >= L, for L = 1..L_max.

    `block(rows)` builds the design rows at those row indices. Rows are
    folded in from the deepest level down, at most BLOCK_ROWS at a time,
    R_L = qr([R_{L+1}; rows of depth L]), so the whole design is never
    held at once (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
    Comput. 2012). R_L'R_L is the Gram matrix of those rows, so a column
    subset of R_L factors exactly as that column subset of the design
    would. Entry L-1 is R_L, None while no row reaches L.
    """
    chain: list[np.ndarray | None] = [None] * L_max
    R = None
    for L in range(L_max, 0, -1):
        rows = np.flatnonzero(depth == L)
        for lo in range(0, rows.size, BLOCK_ROWS):
            Z = block(rows[lo:lo + BLOCK_ROWS])
            R = np.linalg.qr(Z if R is None else np.vstack([R, Z]), mode="r")
        chain[L - 1] = R
    return chain


def _r_factor(Z: np.ndarray) -> np.ndarray:
    """R factor of all rows of Z: a chain of one level."""
    return _r_chain(lambda rows: Z[rows], np.ones(Z.shape[0], dtype=np.intp), 1)[0]


def _rank(s: np.ndarray, n: int) -> np.ndarray:
    """Numerical rank from the singular values s (..., k) of an n-row
    design, by numpy's least-squares rule: count s > eps * max(n, k) * s_max."""
    tol = np.finfo(float).eps * max(n, s.shape[-1])
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def ols_rss(X: np.ndarray, Y: np.ndarray) -> tuple[float, int]:
    """Residual sum of squares and rank of the least-squares fit.

    Solved by a Householder QR of [X | Y] and an SVD of X's R factor,
    stable for the near-collinear lag matrices these designs produce.
    Rank-deficient inputs still return, with rank below the column count
    and the RSS of the minimum-norm fit, as an SVD solver gives them.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    n, p = X.shape
    if n < p:
        raise SampleSizeError(p, n, f"least squares with {p} columns")
    r = _r_factor(np.column_stack([X, Y]))
    u, s, _ = np.linalg.svd(r[:p, :p])
    rank = int(_rank(s, n))
    dropped = (u.T @ r[:p, p])[rank:]  # Y along directions the fit leaves out
    rss = dropped @ dropped + (r[p, p] ** 2 if r.shape[0] > p else 0.0)
    return float(rss), rank


def _unrestricted_fit(r: np.ndarray, n: int, L: int):
    """(rank, RSS_u, RSS_r - RSS_u) from R factors r (..., 2L+2, 2L+2) of
    [1, y lags 1..L, x lags 1..L, Y] on n rows.

    The rank is that of the leading 2L+1 block, which has the design's
    singular values. RSS_u is the last diagonal entry squared. The
    restricted model drops the x lags, so the RSS it adds is the sum of
    squares of the last column's x-lag entries, with no subtraction.
    """
    k = 2 * L + 1
    rank = _rank(np.linalg.svd(r[..., :k, :k], compute_uv=False), n)
    return rank, r[..., k, k] ** 2, np.sum(r[..., L + 1:k, k] ** 2, axis=-1)


def _check_unrestricted(rank, rss_u, k: int) -> None:
    """DegenerateDesignError unless the k-column unrestricted fit is full
    rank and inexact."""
    if rank < k:
        raise DegenerateDesignError(f"unrestricted design rank {rank} < {k} columns")
    if rss_u <= 0.0:
        raise DegenerateDesignError("unrestricted model fits exactly (zero RSS)")


def _f_test(Y, L: int, rss_u: float, gain: float) -> tuple[float, float, float]:
    """(F, p-value, R^2 increment) of the x lags, as granger_f_test defines
    them, from the unrestricted RSS and the RSS the x lags remove."""
    tss = float(np.sum((Y - Y.mean()) ** 2))
    if tss <= 0.0:
        raise DegenerateDesignError("response is constant on the selected rows")
    df2 = Y.shape[0] - 2 * L - 1
    f_stat = gain / L / (rss_u / df2)
    return f_stat, f_sf(f_stat, FTestDistribution(L, df2)), gain / tss


def _nested_f(Y, X_u, L: int) -> tuple[float, float, float]:
    """(F, p-value, R^2 increment) of the x lags in the design X_u, from
    one QR of [X_u | Y].

    _lagged_design leaves at least MIN_EXTRA_ROWS residual degrees of
    freedom, so the F test's n - 2L - 1 is always positive.
    """
    rank, rss_u, gain = _unrestricted_fit(_r_factor(np.column_stack([X_u, Y])),
                                          Y.shape[0], L)
    _check_unrestricted(rank, rss_u, 2 * L + 1)
    return _f_test(Y, L, float(rss_u), float(gain))


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


def _lag_fits(series: np.ndarray, depth: np.ndarray, L_max: int,
              pairs) -> tuple[list[list[dict]], list[dict]]:
    """Lag-search tables of every (target, source) pair of `series` columns.

    One chain over the design `_lag_block(series, L_max)` serves every
    pair and lag: cell (pair, L) is one small QR of the columns [1,
    target lags 1..L, source lags 1..L, target] of R_L, batched over the
    pairs. Returns per pair the select_lag_bic table (lag, n_obs, bic,
    error) for L in 1..L_max, and a dict mapping each feasible L to
    (RSS_u, RSS_r - RSS_u).
    """
    m = series.shape[1]
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    chain = _r_chain(_lag_block(series, L_max), depth, L_max)
    tables: list[list[dict]] = [[] for _ in pairs]
    fits: list[dict] = [{} for _ in pairs]
    for L in range(1, L_max + 1):
        n = int(np.count_nonzero(depth >= L))
        try:
            _check_rows(n, L)
        except SampleSizeError as exc:
            for table in tables:
                table.append({"lag": L, "n_obs": None, "bic": None, "error": str(exc)})
            continue
        k = 2 * L + 1
        lag = np.arange(L)
        cols = np.column_stack([np.zeros(len(pairs), dtype=np.intp),
                                1 + pairs[:, :1] * L_max + lag,
                                1 + pairs[:, 1:] * L_max + lag,
                                1 + m * L_max + pairs[:, 0]])
        r = np.linalg.qr(chain[L - 1].T[cols].swapaxes(1, 2), mode="r")
        rank, rss_u, gain = _unrestricted_fit(r, n, L)
        for p, (table, fit) in enumerate(zip(tables, fits)):
            row = {"lag": L, "n_obs": None, "bic": None, "error": None}
            try:
                _check_unrestricted(rank[p], rss_u[p], k)
            except DegenerateDesignError as exc:
                row["error"] = str(exc)
            else:
                fit[L] = (float(rss_u[p]), float(gain[p]))
                row["n_obs"] = n
                row["bic"] = n * math.log(fit[L][0] / n) + k * math.log(n)
            table.append(row)
    return tables, fits


def _bic_table(y, x, mask_builder: Callable[[int], np.ndarray],
               L_max: int) -> list[dict]:
    """Per-L rows (lag, n_obs, bic, error) for L in 1..L_max, from one
    factorization chain over (y, x)."""
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    y = np.asarray(y, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    if y.shape != x.shape:
        raise ValueError("y, x, and mask must have equal length")
    depth = _lag_depth(mask_builder, L_max, y.shape[0])
    return _lag_fits(np.column_stack([y, x]), depth, L_max, [(0, 1)])[0][0]


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
    and a per-L table (lag, n_obs, bic, error). The masks must be
    nested, mask_builder(L) a subset of mask_builder(L-1); a ValueError
    names the first L at which they are not.
    """
    table = _bic_table(y, x, mask_builder, L_max)
    return _min_bic_lag(table, mask_builder), table


def bic_granger_test(y, x, mask_builder: Callable[[int], np.ndarray], L_max: int,
                     *, table: list[dict] | None = None, **fields) -> GrangerResult:
    """select_lag_bic over 1..L_max, then granger_f_test at the chosen lag.

    `table`, a select_lag_bic table covering at least 1..L_max, saves the
    search. `fields` are granger_f_test's keyword arguments.
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
    order taken from the panel. Each regime's lag searches and F tests
    all come from one factorization chain over the whole panel.
    """
    d = panel.n_factors
    if d < 2:
        raise ValueError("need at least two factors for pairwise tests")
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    labels = np.asarray(labels)
    if labels.shape[0] != panel.n_days:
        raise ValueError("labels must align with the panel rows")
    threshold = alpha / (d * (d - 1))
    regimes = [int(k) for k in np.unique(labels)]
    names = panel.factor_names
    pairs = [(j, i) for i in range(d) for j in range(d) if i != j]  # (target, source)
    cells: dict[tuple[int, int, int], GrangerResult | CellFailure] = {}
    for k in regimes:
        builder = lambda L, k=k: regime_lag_mask(labels, k, L)
        depth = _lag_depth(builder, L_max, panel.n_days)
        tables, fits = _lag_fits(panel.returns, depth, L_max, pairs)
        for (j, i), table, fit in zip(pairs, tables, fits):
            try:
                L = _min_bic_lag(table, builder)
                Y = panel.returns[depth >= L, j]
                f_stat, p_value, r2_increment = _f_test(Y, L, *fit[L])
            except (SampleSizeError, DegenerateDesignError) as exc:
                cells[i, j, k] = CellFailure(names[i], names[j], k, str(exc))
                continue
            cells[i, j, k] = GrangerResult(
                source=names[i], target=names[j], regime=k, lag=L,
                f_stat=f_stat, p_value=p_value, n_obs=Y.shape[0],
                r2_increment=r2_increment,
                significant_bonferroni=bool(p_value < threshold),
            )
    ordered = [cells[i, j, k] for j, i in pairs for k in regimes]
    return PairwiseMatrix(
        tuple(c for c in ordered if isinstance(c, GrangerResult)),
        tuple(c for c in ordered if isinstance(c, CellFailure)),
    )


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
