"""Regime-conditioned Granger causality.

Within-regime tests require lag-complete rows: day t enters the design
for regime k at lag L only if t and all of t-1..t-L carry label k, so no
regression row straddles a regime boundary. Lag order is chosen per cell
by BIC on the unrestricted model, then the F test compares restricted
(own lags) against unrestricted (own plus source lags) on the identical
row set.

One routine, `_lag_fits`, does every least-squares fit in the package.
It takes design rows, duplicates allowed, each with a lag depth (the
largest lag at which it is usable; lag-complete masks are nested, so
every row has one), and folds them from the deepest level down into one
chain of Householder R factors, one per lag. A column subset of such a
factor factors that column subset of the design, so one chain per regime
serves every ordered pair and every lag of the pairwise matrix, one chain
over (y, x) serves a lag search and the F test at its chosen lag, and a
fixed-lag test over day segments (`_segment_test`) is a chain whose rows
all have that depth. The rank, exact-fit and constant-response checks run
there once, every GrangerResult is assembled by `_granger_result`, and
the lag-selection policy (smallest BIC, ties to the smaller lag) lives in
`_bic_lag` alone.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DegenerateDesignError, SampleSizeError
from .numerics import FTestDistribution, f_sf
from .panel import DEFAULT_ALPHA, DEFAULT_L_MAX, FactorPanel, _aligned, _write_table

MIN_EXTRA_ROWS = 10  # design rows beyond parameter count
BLOCK_ROWS = 512  # design rows folded into an R factor at once
EPS = np.finfo(float).eps
RANK_SAFETY = 2.0 ** 20  # the rank certificate's margin; see _ranks


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
    """The tested cells of an all-pairs run and the untestable ones."""

    results: tuple[GrangerResult, ...]
    failures: tuple[CellFailure, ...]
    threshold: float  # the Bonferroni level the cells were flagged against


def regime_lag_mask(labels, k: int, L: int) -> np.ndarray:
    """Days in regime k whose previous L days are also regime k.

    mask[t] is true iff labels[t] == k and labels[t-l] == k for every
    l in 1..L; the first L positions are always false.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    return _run_lengths(np.asarray(labels) == k) > L


def _run_lengths(state) -> np.ndarray:
    """For each day, the number of consecutive true days of `state`
    ending there (0 on a false day)."""
    days = np.arange(len(state))
    return days - np.maximum.accumulate(np.where(state, -1, days))


def _runs_from(state, m: int) -> np.ndarray:
    """True on each day that starts m or more consecutive true days of
    `state`, all inside the series."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _run_lengths(state[::-1])[::-1] >= m


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
    A non-finite value on a day the block reads raises a ValueError that
    names the earliest such day.
    """
    m = series.shape[1]
    steps = np.arange(1, L_max + 1)

    def block(rows: np.ndarray) -> np.ndarray:
        days = np.maximum(rows[:, None] - steps, 0)
        Z = np.hstack([np.ones((rows.size, 1)),
                       series[days].transpose(0, 2, 1).reshape(rows.size, m * L_max),
                       series[rows]])
        if not np.isfinite(Z).all():
            read = np.concatenate([rows, days.ravel()])
            day = read[~np.isfinite(series[read]).all(axis=1)].min()
            raise ValueError(f"non-finite value on day {day}")
        return Z
    return block


def _lag_depth(mask_builder: Callable[[int], np.ndarray], L_max: int,
               n: int) -> np.ndarray:
    """Each row's lag depth: the rows usable at lag L are depth >= L.

    Row t is usable at L when mask_builder(L)[t] holds and t >= L, as in
    granger_f_test. The masks must be nested, mask(L) a subset of
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


def _ranks(r: np.ndarray, n: int, floor: np.ndarray) -> np.ndarray:
    """Numerical ranks of the (pairs, k, k) triangular factors r of n-row
    designs, by numpy's least-squares rule: count the singular values
    s > tol * s_max, tol = eps * max(n, k).

    floor[p] is the smallest singular value computed for pair p at a
    deeper lag of the same chain, or 0 before any. The design at this lag
    is that design with rows added and columns deleted, neither of which
    can lower a smallest singular value, and s_max <= ||r||_F. So floor >
    tol * ||r||_F certifies full rank, and the SVD runs only for the pairs
    without a certificate, each of which takes its new smallest singular
    value as its floor.

    That holds in exact arithmetic. The floor, r and the SVDs come from
    backward-stable steps (Householder QR: Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002, Thm 19.4; the SVD: LAPACK
    Users' Guide, 3rd ed., §4.9), so each computed singular value is off
    by at most about c * eps * ||design||, with c a small multiple of the
    rows and columns of one step: some 6e4 for a BLOCK_ROWS fold of six
    series at L_max = 15. The certificate therefore asks for a floor
    RANK_SAFETY = 2**20 times the threshold, which leaves 1e6 * eps * n *
    s_max for rounding; a verdict closer than that goes to the SVD. On
    the benchmark's panels the floor clears tol * ||r||_F by more than
    eleven orders of magnitude.
    """
    k = r.shape[-1]
    tol = EPS * max(n, k)
    rank = np.full(r.shape[0], k)
    doubt = floor <= RANK_SAFETY * tol * np.linalg.norm(r, axis=(1, 2))
    if doubt.any():
        s = np.linalg.svd(r[doubt], compute_uv=False)
        rank[doubt] = np.count_nonzero(s > tol * s[:, :1], axis=-1)
        floor[doubt] = s[:, -1]
    return rank


def _check_fit(rank: int, rss_u: float, tss: float, ssq: float, n: int,
               k: int) -> None:
    """DegenerateDesignError unless the k-column unrestricted fit on n rows
    is full rank, inexact and of a response that varies.

    Exact and constant are judged on the response's own scale by _ranks'
    rule on norms: a residual within eps * max(n, k) of the centred
    response's norm fits exactly, and a centred response within that of
    the response's norm is constant.
    """
    tol = (EPS * max(n, k)) ** 2
    if rank < k:
        raise DegenerateDesignError(f"unrestricted design rank {rank} < {k} columns")
    if rss_u <= tol * tss:
        raise DegenerateDesignError("unrestricted model fits exactly (zero RSS)")
    if tss <= tol * ssq:
        raise DegenerateDesignError("response is constant on the selected rows")


def _lag_fits(series: np.ndarray, rows: np.ndarray, depth: np.ndarray, lags,
              pairs) -> list[dict[int, tuple | Exception]]:
    """The least-squares fits behind every test in the package.

    `rows` are design row indices into the (T, m) array `series`,
    duplicates allowed, and depth[i] <= max(lags) is the largest lag at
    which rows[i] is usable. Rows are folded into Householder R factors
    from the deepest level down, at most BLOCK_ROWS at a time, R_L =
    qr([R_{L+1}; rows of depth L]), so R_L covers exactly the rows usable
    at L and the whole design is never held at once (TSQR: Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 2012). R_L'R_L is the Gram matrix of
    those rows, so a column subset of R_L factors exactly as that column
    subset of the design would: the fit of (target, source) at L is one
    small QR of R_L's columns [1, target lags 1..L, source lags 1..L,
    target], batched over the pairs. Its last column holds the target's
    coordinates in an orthonormal basis whose first vector is constant:
    the last entry squared is RSS_u, the squared source-lag entries sum to
    RSS_r - RSS_u, and all but the first sum to the target's centred sum
    of squares (TSS), each with no subtraction.

    Returns per (target, source) pair a dict mapping each L in `lags` to
    (n_obs, RSS_u, RSS_r - RSS_u, TSS), or to the SampleSizeError or
    DegenerateDesignError that L raised.
    """
    m = series.shape[1]
    L_max = max(lags)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    block = _lag_block(series, L_max)
    fits: list[dict] = [{} for _ in pairs]
    floor = np.zeros(len(pairs))  # see _ranks
    R = None
    for L in range(L_max, 0, -1):
        level = rows[depth == L]
        for lo in range(0, level.size, BLOCK_ROWS):
            Z = block(level[lo:lo + BLOCK_ROWS])
            R = np.linalg.qr(Z if R is None else np.vstack([R, Z]), mode="r")
        if L not in lags:
            continue
        n = int(np.count_nonzero(depth >= L))
        try:
            _check_rows(n, L)
        except SampleSizeError as exc:
            for fit in fits:
                fit[L] = exc
            continue
        k = 2 * L + 1
        lag = np.arange(L)
        cols = np.column_stack([np.zeros(len(pairs), dtype=np.intp),
                                1 + pairs[:, :1] * L_max + lag,
                                1 + pairs[:, 1:] * L_max + lag,
                                1 + m * L_max + pairs[:, 0]])
        r = np.linalg.qr(R.T[cols].swapaxes(1, 2), mode="r")
        rank = _ranks(r[:, :k, :k], n, floor)
        y2 = r[:, :, k] ** 2
        rss_u, gain = y2[:, k], np.sum(y2[:, L + 1:k], axis=-1)
        tss, ssq = np.sum(y2[:, 1:], axis=-1), np.sum(y2, axis=-1)
        for p, fit in enumerate(fits):
            try:
                _check_fit(rank[p], rss_u[p], tss[p], ssq[p], n, k)
            except DegenerateDesignError as exc:
                fit[L] = exc
            else:
                fit[L] = (n, float(rss_u[p]), float(gain[p]), float(tss[p]))
    return fits


def _bic(fit: tuple, L: int) -> float:
    """BIC of a _lag_fits fit at lag L: n ln(RSS_u/n) + (2L+1) ln n."""
    n, rss_u = fit[0], fit[1]
    return n * math.log(rss_u / n) + (2 * L + 1) * math.log(n)


def _bic_lag(fits: dict[int, tuple | Exception], L_max: int) -> int:
    """The lag in 1..L_max of the smallest BIC, the smaller lag on ties.

    With no lag feasible, raises a DegenerateDesignError naming the first
    degenerate lag, or else a SampleSizeError counting the lag-1 rows.
    """
    lags = range(1, L_max + 1)
    feasible = [(_bic(fits[L], L), L) for L in lags
                if not isinstance(fits[L], Exception)]
    if feasible:
        return min(feasible)[1]
    for L in lags:
        if isinstance(fits[L], DegenerateDesignError):
            raise DegenerateDesignError(f"no feasible lag in 1..{L_max}; "
                                        f"lag {L}: {fits[L]}")
    raise SampleSizeError(fits[1].required, fits[1].available,
                          f"no feasible lag in 1..{L_max}")


def _bic_rows(fits: dict[int, tuple | Exception]) -> list[dict]:
    """The select_lag_bic table (lag, n_obs, bic, error) of one pair's fits."""
    return [{"lag": L, "n_obs": None, "bic": None, "error": str(fit)}
            if isinstance(fit, Exception) else
            {"lag": L, "n_obs": fit[0], "bic": _bic(fit, L), "error": None}
            for L, fit in sorted(fits.items())]


def _granger_result(fit: tuple | Exception, L: int, *, source: str = "x",
                    target: str = "y", regime: int | str = "pooled",
                    bonferroni_threshold: float = DEFAULT_ALPHA / 30.0
                    ) -> GrangerResult:
    """The GrangerResult of a _lag_fits fit at lag L; raises the fit's
    error if it has one.

    _check_rows leaves at least MIN_EXTRA_ROWS residual degrees of
    freedom, so the F test's n - 2L - 1 is always positive.
    """
    if isinstance(fit, Exception):
        raise fit
    n, rss_u, gain, tss = fit
    df2 = n - 2 * L - 1
    f_stat = gain / L / (rss_u / df2)
    p_value = f_sf(f_stat, FTestDistribution(L, df2))
    return GrangerResult(
        source=source,
        target=target,
        regime=regime,
        lag=L,
        f_stat=f_stat,
        p_value=p_value,
        n_obs=n,
        r2_increment=gain / tss,
        significant_bonferroni=bool(p_value < bonferroni_threshold),
    )


def _fixed_lag_fit(y, x, rows: np.ndarray, L: int) -> tuple | Exception:
    """The fit of y on its own and x's lags 1..L over the given rows,
    duplicates included; rows below L, which lack L earlier days, are
    dropped."""
    if L < 1:
        raise ValueError("L must be >= 1")
    rows = rows[rows >= L]
    return _lag_fits(np.column_stack([y, x]), rows, np.full(rows.size, L), [L],
                     [(0, 1)])[0][L]


def granger_f_test(y, x, L: int, mask) -> GrangerResult:
    """F test of the null that lags of x add nothing to the AR model of y.

    The rows are the masked positions with t >= L. F = ((RSS_r -
    RSS_u)/L) / (RSS_u/(n - 2L - 1)), upper-tail p-value from the
    F(L, n-2L-1) distribution. The result is labeled source "x", target
    "y", regime "pooled", and flagged significant below DEFAULT_ALPHA / 30.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if not (y.shape == x.shape == mask.shape):
        raise ValueError("y, x, and mask must have equal length")
    return _granger_result(_fixed_lag_fit(y, x, np.flatnonzero(mask), L), L)


def _segment_test(y, x, segments, L: int) -> tuple[float | None, int]:
    """F test at lag L over day segments, pooled into one design.

    Each segment (first, last) contributes design rows first+L..last, so
    its lags stay inside [first, last]; overlapping segments keep their
    duplicate rows. Returns (p_value, n_rows); p is None when the pooled
    design is too small or degenerate.
    """
    rows = np.concatenate([np.arange(0), *(np.arange(lo + L, hi + 1)
                                           for lo, hi in segments)])
    try:
        res = _granger_result(_fixed_lag_fit(y, x, rows, L), L)
    except (SampleSizeError, DegenerateDesignError):
        return None, rows.size
    return res.p_value, rows.size


def _lag_search(y, x, mask_builder: Callable[[int], np.ndarray],
                L_max: int) -> dict[int, tuple | Exception]:
    """The fits of y on (y, x) at every lag 1..L_max, from one chain."""
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    y = np.asarray(y, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    if y.shape != x.shape:
        raise ValueError("y, x, and mask must have equal length")
    depth = _lag_depth(mask_builder, L_max, y.shape[0])
    (fits,) = _lag_fits(np.column_stack([y, x]), np.arange(y.shape[0]), depth,
                        range(1, L_max + 1), [(0, 1)])
    return fits


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
    fits = _lag_search(y, x, mask_builder, L_max)
    return _bic_lag(fits, L_max), _bic_rows(fits)


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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    labels = _aligned(labels, panel.n_days, "labels")
    threshold = alpha / (d * (d - 1))
    regimes = [int(k) for k in np.unique(labels)]
    names = panel.factor_names
    pairs = [(j, i) for i in range(d) for j in range(d) if i != j]  # (target, source)
    cells: dict[tuple[int, int, int], GrangerResult | CellFailure] = {}
    for k in regimes:
        depth = _lag_depth(lambda L, k=k: regime_lag_mask(labels, k, L), L_max,
                           panel.n_days)
        fits = _lag_fits(panel.returns, np.arange(panel.n_days), depth,
                         range(1, L_max + 1), pairs)
        for (j, i), fit in zip(pairs, fits):
            try:
                L = _bic_lag(fit, L_max)
                cells[i, j, k] = _granger_result(
                    fit[L], L, source=names[i], target=names[j], regime=k,
                    bonferroni_threshold=threshold)
            except (SampleSizeError, DegenerateDesignError) as exc:
                cells[i, j, k] = CellFailure(names[i], names[j], k, str(exc))
    ordered = [cells[i, j, k] for j, i in pairs for k in regimes]
    return PairwiseMatrix(
        tuple(c for c in ordered if isinstance(c, GrangerResult)),
        tuple(c for c in ordered if isinstance(c, CellFailure)),
        threshold,
    )


def granger_results_to_csv(results: Iterable[GrangerResult], path_or_buf) -> None:
    """Write results in the canonical CSV layout; p-values in scientific
    notation with 6 significant digits."""
    _write_table(path_or_buf, ("source,target,regime,lag,f_stat,p_value,"
                               "n_obs,r2_increment,significant").split(","),
                 ("", "", "", "", ".6f", ".5e", "", ".6f", ""), map(astuple, results))
