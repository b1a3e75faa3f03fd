"""Shared fixtures and the acceptance-criteria result summary."""

import glob
import math
import os

import numpy as np
import pytest

from factorregimes import (
    DegenerateDesignError,
    FactorPanel,
    FTestDistribution,
    HmmParams,
    PanelParseError,
    SampleSizeError,
    SchemaError,
    SyntheticSpec,
    f_sf,
    generate,
    log_gamma,
)
from factorregimes.granger import _lag_block
from factorregimes.panel import SENTINELS


def locate_factor_data():
    """Find the two raw daily factor files, if the user provides them.

    Looks in $FACTOR_DATA_DIR, then ./data. Returns (ff5_path, mom_path)
    or None. The files are the public daily five-factor and momentum
    CSVs; see README for how to obtain them.
    """
    candidates = []
    env = os.environ.get("FACTOR_DATA_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data"))
    for root in candidates:
        if not os.path.isdir(root):
            continue
        ff5 = _match_one(root, ["*5_factors*daily*", "*5 factors*daily*"])
        mom = _match_one(root, ["*momentum*daily*", "*mom*daily*"])
        if ff5 and mom:
            return ff5, mom
    return None


def _match_one(root, patterns):
    for pat in patterns:
        for case in (pat, pat.upper(), pat.title()):
            hits = sorted(glob.glob(os.path.join(root, case)))
            hits = [h for h in hits if h.lower().endswith((".csv", ".txt"))]
            if hits:
                return hits[0]
    # case-insensitive fallback scan
    for name in sorted(os.listdir(root)):
        low = name.lower()
        if not low.endswith((".csv", ".txt")):
            continue
        for pat in patterns:
            core = pat.strip("*").replace("*", "")
            if all(tok in low for tok in core.split("daily") if tok):
                if "daily" in low:
                    return os.path.join(root, name)
    return None


requires_factor_data = pytest.mark.skipif(
    locate_factor_data() is None,
    reason="raw factor data files not present (set FACTOR_DATA_DIR or ./data)",
)


def table1_like_params(d: int = 6) -> HmmParams:
    """Three well-separated heavy-tailed regimes.

    Scales are tuned so per-day norm means sit near ratio 1 : 1.8 : 4
    with degrees of freedom {12, 7, 4} and strongly persistent chains.
    """
    scales = np.array([0.326, 0.559, 1.137])
    mu = np.zeros((3, d))
    mu[0, 0] = 0.03
    mu[2, 0] = -0.08
    Sigma = np.stack([np.eye(d) * s**2 for s in scales])
    A = np.array([
        [0.988, 0.011, 0.001],
        [0.007, 0.991, 0.002],
        [0.002, 0.030, 0.968],
    ])
    return HmmParams(
        pi=np.array([0.5, 0.35, 0.15]),
        A=A,
        mu=mu,
        Sigma=Sigma,
        nu=np.array([12.0, 7.0, 4.0]),
        family="student_t",
    )


@pytest.fixture(scope="session")
def synthetic_3regime():
    """A moderate-size ground-truth panel shared across test modules."""
    panel, truth = generate(SyntheticSpec(hmm=table1_like_params(), T=3000, seed=404))
    return panel, truth


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run

_ACCEPTANCE_RESULTS: dict[str, tuple[str, str]] = {}


def reference_design(y, x, L, rows):
    """The column-by-column lagged-design builder the shared design helper
    replaced: the response, then restricted [1, y lags 1..L] and
    unrestricted [.., x lags 1..L] regressors at the given rows."""
    cols = [np.ones(rows.size)]
    for lag in range(1, L + 1):
        cols.append(y[rows - lag])
    X_r = np.column_stack(cols)
    for lag in range(1, L + 1):
        cols.append(x[rows - lag])
    return y[rows], X_r, np.column_stack(cols)


def random_series(rng, n_series=300):
    """Short integer, float-label and float series, some empty, some with
    NaN, infinities and zeros of both signs."""
    for trial in range(n_series):
        n = int(rng.integers(0, 30))
        kind = trial % 4
        if kind == 0:
            yield rng.integers(-3, 4, n)
        elif kind == 1:
            yield rng.integers(-3, 4, n).astype(float)
        elif kind == 2:
            yield rng.choice([0.0, -0.0, 1.5, -2.0, np.nan, np.inf, -np.inf], n)
        else:
            yield rng.standard_normal(n).round(1)


def same_bits(a, b):
    """Equal dtype and bits, a zero's sign aside (adding 0 clears it)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and (a + 0).tobytes() == (b + 0).tobytes()


def pair_design(y, x, L, rows):
    """(Y, X_r, X_u) of the nested models at the given rows, gathered from
    the design builder's lag-major columns [1, y, x, y lag 1, x lag 1, ...,
    y lag L, x lag L]: y's lag l is column 1 + 2l and x's 2 + 2l."""
    Z = _lag_block(np.column_stack([y, x]), L)(rows)
    lags = 2 * np.arange(1, L + 1)
    return Z[:, 1], Z[:, np.r_[0, 1 + lags]], Z[:, np.r_[0, 1 + lags, 2 + lags]]


def reference_svd_ranks(r, n, floor):
    """The rank rule the certificate in `granger._ranks` replaced, with its
    signature: one SVD of every pair's (k, k) factor at every lag, and
    numpy's least-squares rule, count s > eps * max(n, k) * s_max. The
    floor is ignored."""
    s = np.linalg.svd(r, compute_uv=False)
    tol = np.finfo(float).eps * max(n, r.shape[-1])
    return np.count_nonzero(s > tol * s[:, :1], axis=-1)


# ---------------------------------------------------------------------------
# emission reference: the triangular-solve body the inverse-factor emission
# replaced


def reference_emission_terms(X, mu, Sigma, nu, family):
    """(logB, delta), both (T, K), with each Mahalanobis distance taken from
    np.linalg.solve on the Cholesky factor of the regime's scale."""
    T, d = X.shape
    K = mu.shape[0]
    logB = np.empty((T, K))
    delta = np.empty((T, K))
    for k in range(K):
        L = np.linalg.cholesky(Sigma[k])
        Z = np.linalg.solve(L, (X - mu[k]).T)
        dk = np.einsum("ij,ij->j", Z, Z)
        delta[:, k] = dk
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        if family == "student_t":
            nuk = float(nu[k])
            const = (log_gamma((nuk + d) / 2.0) - log_gamma(nuk / 2.0)
                     - 0.5 * d * math.log(nuk * math.pi) - 0.5 * logdet)
            logB[:, k] = const - 0.5 * (nuk + d) * np.log1p(dk / nuk)
        else:
            const = -0.5 * d * math.log(2.0 * math.pi) - 0.5 * logdet
            logB[:, k] = const - 0.5 * dk
    return logB, delta


# ---------------------------------------------------------------------------
# least-squares reference: the SVD two-fit path the nested-QR core replaced


def lstsq_rss(X, Y):
    """(RSS, rank) of numpy's SVD least-squares fit."""
    beta, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ beta
    return float(resid @ resid), int(rank)


def lstsq_unrestricted_fit(Y, X_u):
    """(RSS, TSS) of the unrestricted fit, with the rank, exact-fit and
    constant-response checks and texts the Granger core must reproduce."""
    rss_u, rank_u = lstsq_rss(X_u, Y)
    if rank_u < X_u.shape[1]:
        raise DegenerateDesignError(
            f"unrestricted design rank {rank_u} < {X_u.shape[1]} columns")
    if rss_u <= 0.0:
        raise DegenerateDesignError("unrestricted model fits exactly (zero RSS)")
    tss = float(np.sum((Y - Y.mean()) ** 2))
    if tss <= 0.0:
        raise DegenerateDesignError("response is constant on the selected rows")
    return rss_u, tss


def lstsq_nested_f(Y, X_u, L):
    """(F, p-value, R^2 increment) of the x lags from two SVD fits."""
    rss_u, tss = lstsq_unrestricted_fit(Y, X_u)
    rss_r, _ = lstsq_rss(X_u[:, :L + 1], Y)
    df2 = Y.shape[0] - 2 * L - 1
    f_stat = max(0.0, (rss_r - rss_u) / L / (rss_u / df2))
    return (f_stat, f_sf(f_stat, FTestDistribution(L, df2)),
            max(0.0, (rss_r - rss_u) / tss))


def lstsq_bic_table(y, x, mask_builder, L_max):
    """select_lag_bic's table from one column-by-column design and one SVD
    fit per lag."""
    table = []
    for L in range(1, L_max + 1):
        row = {"lag": L, "n_obs": None, "bic": None, "error": None}
        sel = np.flatnonzero(mask_builder(L))
        rows = sel[sel >= L]
        try:
            if rows.size < 2 * L + 11:
                raise SampleSizeError(2 * L + 11, rows.size, f"lag {L} design")
            Y, _, X_u = reference_design(y, x, L, rows)
            rss_u, _ = lstsq_unrestricted_fit(Y, X_u)
        except (SampleSizeError, DegenerateDesignError) as exc:
            row["error"] = str(exc)
        else:
            n = rows.size
            row["n_obs"] = n
            row["bic"] = n * np.log(rss_u / n) + (2 * L + 1) * np.log(n)
        table.append(row)
    return table


# ---------------------------------------------------------------------------
# panel reader reference: the line-by-line parser the column-wise one replaced


def _reference_parse_date_token(token, line_number):
    token = token.strip()
    try:
        if len(token) == 8 and token.isdigit():
            iso = f"{token[:4]}-{token[4:6]}-{token[6:8]}"
        else:
            iso = token
        return np.datetime64(iso, "D")
    except ValueError:
        raise PanelParseError(f"malformed date token {token!r}", line_number) from None


def _reference_looks_like_date(token):
    token = token.strip()
    if len(token) == 8 and token.isdigit():
        return True
    return len(token) == 10 and token[4] == "-" and token[7] == "-"


def reference_parse_lines(lines, expected_columns):
    """The panel from a daily factor file's lines, one line and one cell at
    a time: the first row whose first field is not a date ends the daily
    rows, and a row's cells are read until the first missing, non-finite
    or sentinel one."""
    wanted = [str(c) for c in expected_columns]
    wanted_keys = [c.strip().upper() for c in wanted]
    if len(set(wanted_keys)) != len(wanted_keys):
        raise SchemaError(f"requested columns not distinct: {wanted}")

    col_index = None
    header_line = 0
    for i, line in enumerate(lines):
        fields = [f.strip().upper() for f in line.split(",")]
        if all(key in fields for key in wanted_keys):
            col_index = {key: fields.index(key) for key in wanted_keys}
            header_line = i
            break
    if col_index is None:
        raise SchemaError("columns not found in any header row")

    dates = []
    rows = []
    for i in range(header_line + 1, len(lines)):
        line = lines[i].strip()
        if not line:
            if dates:
                break  # footer reached
            continue
        first = line.split(",", 1)[0]
        if not _reference_looks_like_date(first):
            if dates:
                break  # footer block (e.g. annual table header)
            continue  # still in preamble
        fields = line.split(",")
        d = _reference_parse_date_token(first, i + 1)
        row = []
        ok = True
        for key in wanted_keys:
            j = col_index[key]
            if j >= len(fields):
                ok = False
                break
            try:
                v = float(fields[j])
            except ValueError:
                raise PanelParseError(
                    f"malformed value {fields[j]!r} in column {key}", i + 1
                ) from None
            if not np.isfinite(v) or any(v == s for s in SENTINELS):
                ok = False
                break
            row.append(v)
        if ok:
            dates.append(d)
            rows.append(row)

    returns = np.array(rows, dtype=float).reshape(len(dates), len(wanted))
    return FactorPanel(np.array(dates, dtype="datetime64[D]"), returns,
                       tuple(wanted))


# ---------------------------------------------------------------------------
# table writer reference: the row-by-row f-string loop the column-wise one
# replaced


def reference_table(header, specs, rows) -> str:
    """A CSV table one row at a time, the way each artifact writer built
    it: the header line, then per row one f-string cell per column, the
    value formatted by the column's spec as it comes (numpy scalars too),
    blank for None."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join("" if v is None else f"{v:{spec}}"
                         for v, spec in zip(row, specs)) + "\n"
    return text


def reference_regime_lag_mask(labels, k, L):
    """Days in regime k whose previous L days are too: one shifted AND per
    lag, the first L days false."""
    labels = np.asarray(labels)
    ok = labels == k
    mask = ok.copy()
    for lag in range(1, L + 1):
        mask[lag:] &= ok[:-lag]
    mask[: min(L, mask.shape[0])] = False
    return mask


def reference_runs_from(state, m):
    """The days that start m true days of `state` inside the series, from
    a length-m convolution."""
    T = state.shape[0]
    runs = np.zeros(T, dtype=bool)
    if T >= m:
        runs[:T - m + 1] = np.convolve(state.astype(int), np.ones(m, dtype=int),
                                       "valid") == m
    return runs


def reference_first_sustained_detection(labels, dates, w, m, crisis_index):
    """The first window day that starts m crisis days inside the series,
    from a length-m convolution and a scan over the window's days."""
    labels = np.asarray(labels)
    dates = np.asarray(dates, dtype="datetime64[D]")
    crisis = (labels == crisis_index).astype(int)
    T = labels.shape[0]
    if T < m:
        return None
    runs = np.convolve(crisis, np.ones(m, dtype=int), mode="valid") == m
    for t in np.flatnonzero((dates >= w.start) & (dates <= w.end)):
        if t <= T - m and runs[t]:
            return dates[t]
    return None


def reference_transition_starts(labels, crisis_index, m, entering):
    """Days that start m days of the state (crisis when entering, else not
    crisis) after a day outside it, from a length-m convolution."""
    crisis = labels == crisis_index
    state = crisis if entering else ~crisis
    T = labels.shape[0]
    if T < m + 1:
        return np.zeros(0, dtype=np.int64)
    runs = np.convolve(state.astype(int), np.ones(m, dtype=int), "valid") == m
    return np.flatnonzero(runs[1:] & ~state[:T - m]) + 1


# ---------------------------------------------------------------------------
# date-range references: the per-caller masks the one range rule replaced


def reference_optional_bounds(dates, start, end):
    """run_backtest's mask: each bound applied only when given."""
    keep = np.ones(dates.shape[0], dtype=bool)
    if start is not None:
        keep &= dates >= np.datetime64(start, "D")
    if end is not None:
        keep &= dates <= np.datetime64(end, "D")
    return keep


def reference_window(dates, start, end):
    """The two-bound mask of slice_dates, the event windows and the
    timeline markers."""
    start, end = np.datetime64(start, "D"), np.datetime64(end, "D")
    return (start <= dates) & (dates <= end)


def reference_post_split(dates, split):
    """subsample_split's post side: every row not before the split."""
    return ~(dates < np.datetime64(split, "D"))


def reference_cli_date_range(dates, start, end):
    """The CLI's --start/--end cut: a missing bound became the panel's own
    first or last date, and a cut with neither kept every row."""
    if not (start or end):
        return np.ones(dates.shape[0], dtype=bool)
    return reference_window(dates, start or dates[0], end or dates[-1])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if "test_acceptance.py" not in str(item.fspath):
        return
    name = item.name
    doc = (item.function.__doc__ or name).strip().splitlines()[0]
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        _ACCEPTANCE_RESULTS[name] = (status, doc)
    elif report.when == "setup" and report.skipped:
        _ACCEPTANCE_RESULTS[name] = ("SKIP", doc)
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE_RESULTS[name] = ("FAIL", doc)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        status, doc = _ACCEPTANCE_RESULTS[name]
        tr.write_line(f"[{status}] {doc}")
