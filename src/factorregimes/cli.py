"""Command-line pipeline driver.

Subcommands: ingest, fit, granger, validate, backtest, plotdata,
robustness. Every command is deterministic given its flags; anything
stochastic requires an explicit --seed. Exit codes: 0 success, 2 input
or validation error, 3 computation failure.

Dates are cut once, by `ingest --start/--end`; `fit` reads its panel as
given. `main` reads the panel and labels of the downstream stages and
rejects a panel with no rows or labels on other dates.

Every stage computes all of its results, then writes every file it owns,
then returns its report as a list of lines, and `main` alone prints
that report. A stage that fails in computation writes no file, and a
stage that fails at all prints nothing to stdout.

The parser needs only `panel` and `errors`. Every other package module
is imported when a stage first calls into it, so a stage process loads
only the modules it runs.

A stage process (`factor-regimes`, or `python -m factorregimes.cli`)
enters through `run`, which turns the cyclic garbage collector off for
the stage and freezes the heap before the interpreter exits, so the
exit-time collections skip every object the stage loaded. A stage leaves
under a thousand objects in reference cycles, mostly its argument parser
and the errors its EM restarts and Granger lag fits keep. `main` leaves
the collector as its caller has it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
from dataclasses import astuple

import numpy as np

from . import _HOMES
from .errors import (
    DegenerateDesignError,
    EstimationError,
    FactorRegimesError,
    SchemaError,
)
from .panel import (
    DEFAULT_ALPHA,
    DEFAULT_L_MAX,
    FF5_COLUMNS,
    MOMENTUM_COLUMNS,
    PEAK_HORIZON,
    SIGNAL_WINDOW,
    TESTED_LAG,
    TESTED_PAIR,
    _in_range,
    _tested_pair,
    _write_table,
    parse_ff_daily_csv,
    merge_on_dates,
    read_labels_csv,
    read_panel_csv,
    slice_dates,
    volatility_norm,
    write_labels_csv,
    write_panel_csv,
)


def _deferred(*names: str) -> list:
    """Stand-ins for the package callables `names`, each importing its home
    module, as the package's export table `_HOMES` names it, on its first
    call, so a stage loads only the modules it runs. A stand-in carries its
    function's home `__module__` and `__name__`, and the stages look it up
    here at call time, so it can be wrapped or replaced by name like an
    imported function."""
    def stand_in(name):
        home = f"{__package__}.{_HOMES[name]}"
        def call(*args, **kwargs):
            return getattr(importlib.import_module(home), name)(*args, **kwargs)
        call.__module__, call.__name__, call.__qualname__ = home, name, name
        call.__doc__ = f"{home}.{name}, imported on the first call."
        return call
    return [stand_in(name) for name in names]


(run_backtest, write_backtest_json, write_returns_csv, detection_rate,
 event_granger_validation, lead_time, read_event_windows, write_validation_csv,
 granger_results_to_csv, pairwise_regime_matrix, regime_lag_mask, FitConfig,
 em_fit, order_regimes, save_model, select_k, lag_sweep, subsample_split,
 threshold_regimes, transition_window_analysis) = _deferred(
    "run_backtest", "write_backtest_json", "write_returns_csv", "detection_rate",
    "event_granger_validation", "lead_time", "read_event_windows",
    "write_validation_csv", "granger_results_to_csv", "pairwise_regime_matrix",
    "regime_lag_mask", "FitConfig", "em_fit", "order_regimes", "save_model",
    "select_k", "lag_sweep", "subsample_split", "threshold_regimes",
    "transition_window_analysis")

FAMILY_MAP = {"student-t": "student_t", "gaussian": "gaussian"}


def _load_aligned(panel_path, labels_path):
    """A panel with at least one row plus a label series that must cover
    exactly the same dates."""
    panel = read_panel_csv(panel_path)
    if not panel.n_days:
        raise SchemaError(f"panel {panel_path} has no rows")
    dates, labels = read_labels_csv(labels_path)
    if not np.array_equal(dates, panel.dates):
        raise SchemaError(
            f"label dates in {labels_path} do not match the panel dates"
        )
    return panel, labels


def _check_outputs(outputs, inputs):
    """Fail before any output when an output file's directory is missing,
    an output names one of the stage's input files, or two of its outputs
    are one file."""
    read = {os.path.realpath(path) for path in filter(None, inputs)}
    seen = set()
    for path in filter(None, outputs):  # None: a file not written
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"no directory for the output file {path}")
        real = os.path.realpath(path)
        if real in read:
            raise ValueError(f"output file {path} is an input of this stage")
        if real in seen:
            raise ValueError(f"two outputs of this stage name one file {path}")
        seen.add(real)


def _event_windows(args):
    """The windows of --events, or the built-in set without it."""
    if args.events:
        return read_event_windows(args.events)
    from . import DEFAULT_EVENT_WINDOWS  # a constant, through the export table
    return DEFAULT_EVENT_WINDOWS


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> list[str]:
    _check_outputs([args.out], [args.ff5, args.momentum])
    ff5 = parse_ff_daily_csv(args.ff5, FF5_COLUMNS)
    mom = parse_ff_daily_csv(args.momentum, MOMENTUM_COLUMNS)
    panel = slice_dates(merge_on_dates(ff5, mom), args.start, args.end)
    if not panel.n_days:
        raise ValueError("date range selects no rows")
    write_panel_csv(panel, args.out)
    return [f"panel: T={panel.n_days} d={panel.n_factors} "
            f"span={panel.dates[0]}..{panel.dates[-1]} -> {args.out}"]


def _fit_summary(fit, panel) -> list[str]:
    labels = fit.labels
    norm = volatility_norm(panel)
    K = fit.params.n_regimes
    T = panel.n_days
    lines = [f"family={fit.params.family} K={K} loglik={fit.loglik:.4f} "
             f"bic={fit.bic:.4f}",
             "regime    days  proportion  mean_norm        nu  self_trans"]
    for k in range(K):
        sel = labels == k
        days = int(sel.sum())
        prop = 100.0 * days / T
        mnorm = norm[sel].mean() if days else float("nan")
        nu = "       -" if fit.params.nu is None else f"{fit.params.nu[k]:8.1f}"
        lines.append(f"{k:6d}  {days:6d}  {prop:9.1f}%  {mnorm:9.2f}  {nu}  "
                     f"{fit.params.A[k, k]:10.3f}")
    return lines


def cmd_fit(args) -> list[str]:
    labels_path = args.labels or (os.path.splitext(args.out)[0] + ".labels.csv")
    _check_outputs([args.out, labels_path], [args.panel])
    panel = read_panel_csv(args.panel)
    family = FAMILY_MAP[args.family]
    config = FitConfig(seed=args.seed, n_restarts=args.restarts)
    table = []
    if args.k_range:
        lo, _, hi = args.k_range.partition(":")
        try:
            ks = range(int(lo), int(hi) + 1)
        except ValueError:
            raise SchemaError(f"--k-range must look like A:B, got {args.k_range!r}")
        best_k, table = select_k(panel, ks, family, config)
        fit = next(row["fit"] for row in table if row["k"] == best_k)
    else:
        fit = em_fit(panel, args.k, family, config)
    fit = order_regimes(fit, panel)
    save_model(fit, args.out)
    write_labels_csv(panel.dates, fit.labels, labels_path)
    lines = []
    if table:
        lines.append("k  n_free      loglik            bic")
        for row in table:
            if row["error"] is not None:
                lines.append(f"{row['k']}  {row['n_free_params']:6d}  "
                             f"failed: {row['error']}")
            else:
                lines.append(f"{row['k']}  {row['n_free_params']:6d}  "
                             f"{row['loglik']:14.4f}  {row['bic']:14.4f}")
        lines.append(f"selected K={best_k} by BIC")
    return [*lines, *_fit_summary(fit, panel),
            f"model -> {args.out}", f"labels -> {labels_path}"]


def cmd_granger(panel, labels, args) -> list[str]:
    _check_outputs([args.out], [args.panel, args.labels])
    matrix = pairwise_regime_matrix(panel, labels, args.lmax, args.alpha)
    granger_results_to_csv(matrix.results, args.out)
    hits = [f"  significant: {r.source}->{r.target} regime {r.regime} "
            f"lag {r.lag} p={r.p_value:.5e}"
            for r in matrix.results if r.significant_bonferroni]
    return [f"{len(matrix.results)} cells tested, {len(matrix.failures)} "
            f"infeasible; Bonferroni threshold {matrix.threshold:.3e}",
            *(hits or ["  no Bonferroni-significant cells"]),
            f"results -> {args.out}"]


def cmd_validate(panel, labels, args) -> list[str]:
    windows = _event_windows(args)
    crisis = int(labels.max())
    norm = volatility_norm(panel)
    lines = ["event                 detection  first_detect  peak_date    lead"]
    for w in windows:
        # first: lead_time rejects a bad horizon even for a window off the panel
        lt = lead_time(labels, panel.dates, norm, w, args.window,
                       crisis_index=crisis)
        try:
            rate = detection_rate(labels, panel.dates, w, crisis)
        except ValueError:
            lines.append(f"{w.name:<22}no overlap")
            continue
        if lt is None:
            lines.append(f"{w.name:<22}{rate:9.3f}  (no sustained detection)")
        else:
            lines.append(f"{w.name:<22}{rate:9.3f}  {lt.detection}    "
                         f"{lt.peak}  {lt.lead_days:4d}d")
    # after the loop, which reports a bad --window before any path error
    _check_outputs([args.out], [args.panel, args.labels, args.events])
    report = event_granger_validation(panel, windows, args.lag)
    write_validation_csv(report, args.out)
    lines.append("event                 days    p_fwd      p_rev      class")
    for r in report.rows:
        pf = "     -   " if r.p_fwd is None else f"{r.p_fwd:.3e}"
        pr = "     -   " if r.p_rev is None else f"{r.p_rev:.3e}"
        lines.append(f"{r.event:<22}{r.days:4d}  {pf}  {pr}  {r.classification}")
    return [*lines,
            f"binomial: {report.n_check}/{report.n_testable} CHECK, exact tail "
            f"{report.binomial_p:.5e}",
            f"report -> {args.out}"]


def cmd_backtest(panel, labels, args) -> list[str]:
    _check_outputs([args.out, args.returns_csv], [args.panel, args.labels])
    crisis = int(labels.max())
    strat, bench = run_backtest(
        panel, labels, crisis, window=args.window,
        start=args.start, end=args.end,
    )
    def fmt(name, r):
        sharpe = "undefined" if r.sharpe is None else f"{r.sharpe:7.2f}"
        return (f"{name:<12} annual {r.annual_return:7.2f}%  sharpe {sharpe}  "
                f"mdd {r.max_drawdown:7.2f}%  active {r.n_active_days}")
    write_backtest_json(strat, bench, args.out)
    lines = [fmt("strategy", strat), fmt("buy-and-hold", bench)]
    if args.returns_csv:
        write_returns_csv(strat, bench, args.returns_csv)
        lines.append(f"daily returns -> {args.returns_csv}")
    return [*lines, f"report -> {args.out}"]


def cmd_plotdata(panel, labels, args) -> list[str]:
    _check_outputs([args.out], [args.panel, args.labels, args.events])
    windows = _event_windows(args)
    markers = np.full(panel.n_days, "", dtype=object)
    for w in reversed(windows):  # a day in two windows takes the first's name
        markers[_in_range(panel.dates, w.start, w.end)] = w.name
    _write_table(args.out, "date,volatility_norm,regime,event".split(","),
                 ("", ".6f", "", ""),
                 zip(np.datetime_as_string(panel.dates).tolist(),
                     volatility_norm(panel).tolist(), labels.tolist(), markers))
    return [f"timeline ({panel.n_days} rows) -> {args.out}"]


def cmd_robustness(panel, labels, args) -> list[str]:
    paths = [os.path.join(args.out, f"{name}.csv") for name in (
        "threshold_regimes", "lag_sweep", "subsample_split", "transition_windows")]
    # before the battery runs: --out, a directory, and its files name no input
    if os.path.isdir(args.out):
        _check_outputs(paths, [args.panel, args.labels])
    elif os.path.exists(args.out):
        _check_outputs([args.out], [args.panel, args.labels])
        raise NotADirectoryError(f"output directory {args.out} is not a directory")
    crisis = int(labels.max())
    y, x = _tested_pair(panel)
    thr_labels = threshold_regimes(panel)
    (thr,) = lag_sweep(y, x, lambda L: regime_lag_mask(thr_labels, 1, L),
                       [args.lmax])
    sweep = lag_sweep(y, x, lambda L: regime_lag_mask(labels, crisis, L),
                      [5, 10, 15, 20])
    pre, post = subsample_split(panel, labels, args.split, args.lmax, args.alpha)
    rep = transition_window_analysis(panel, labels, crisis)

    os.makedirs(args.out, exist_ok=True)
    thr_path, sweep_path, split_path, trans_path = paths
    write_labels_csv(panel.dates, thr_labels, thr_path)
    for row in sweep:  # cells are not quoted: an error text keeps no comma
        row["error"] = row["error"] and row["error"].replace(",", ";")
    _write_table(sweep_path, "L_max,L_star,f_stat,p_value,n_obs,error".split(","),
                 ("", "", ".6f", ".5e", "", ""), (row.values() for row in sweep))
    _write_table(split_path,
                 "side,source,target,regime,lag,f_stat,p_value,n_obs".split(","),
                 ("", "", "", "", "", ".6f", ".5e", ""),
                 ((side, *astuple(r)[:7])
                  for side, matrix in (("pre", pre), ("post", post))
                  for r in matrix.results))
    _write_table(trans_path, ("direction,n_transitions,p_before,p_after,"
                              "n_before,n_after").split(","),
                 ("", "", ".5e", ".5e", "", ""),
                 [("entry", *astuple(rep.entry)), ("exit", *astuple(rep.exit))])

    if thr["error"] is None:
        threshold = (f"{'->'.join(TESTED_PAIR)} lag {thr['L_star']} "
                     f"p={thr['p_value']:.5e}")
    else:
        threshold = f"untestable ({thr['error']})"
    return [f"threshold regimes: {threshold}",
            f"lag sweep -> {sweep_path}",
            f"subsample split at {args.split} -> {split_path}",
            f"transition windows -> {trans_path}"]


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factor-regimes",
        description="Regime-switching factor dynamics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the downstream stages' inputs, which main reads and hands to the stage
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--panel", required=True)
    inputs.add_argument("--labels", required=True)
    inputs.set_defaults(loads_inputs=True)

    p = sub.add_parser("ingest", help="parse, merge, and clean raw factor files")
    p.add_argument("ff5", help="five-factor daily CSV")
    p.add_argument("momentum", help="momentum daily CSV")
    p.add_argument("--out", required=True, help="canonical panel CSV to write")
    p.add_argument("--start", default=None, help="keep dates >= this (ISO)")
    p.add_argument("--end", default=None, help="keep dates <= this (ISO)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit the regime HMM and decode labels")
    p.add_argument("--panel", required=True)
    p.add_argument("--k", type=int, default=3, help="number of regimes")
    p.add_argument("--k-range", default=None, metavar="A:B",
                   help="BIC selection over K in A..B (overrides --k)")
    p.add_argument("--family", choices=sorted(FAMILY_MAP), default="student-t")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--labels", default=None,
                   help="labels CSV to write (default: next to the model)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("granger", parents=[inputs],
                       help="pairwise regime-conditioned tests")
    p.add_argument("--lmax", type=int, default=DEFAULT_L_MAX)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_granger)

    p = sub.add_parser("validate", parents=[inputs],
                       help="event-window validation report")
    p.add_argument("--events", default=None,
                   help="event config CSV (default: built-in windows)")
    p.add_argument("--window", type=int, default=PEAK_HORIZON,
                   help="peak-search horizon in trading days")
    p.add_argument("--lag", type=int, default=TESTED_LAG,
                   help="fixed lag for per-event tests")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("backtest", parents=[inputs],
                       help="crisis-gated strategy evaluation")
    p.add_argument("--window", type=int, default=SIGNAL_WINDOW,
                   help="trailing signal window in trading days")
    p.add_argument("--start", default="1995-01-01")
    p.add_argument("--end", default="2024-12-31")
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--returns-csv", default=None,
                   help="also write daily strategy/benchmark returns")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("plotdata", parents=[inputs],
                       help="timeline export for external plotting")
    p.add_argument("--events", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("robustness", parents=[inputs],
                       help="threshold, lag-sweep, split, and transition analyses")
    p.add_argument("--lmax", type=int, default=DEFAULT_L_MAX)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--split", default="2008-01-01")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_robustness)

    return parser


def _die(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "loads_inputs", False):
            report = args.func(*_load_aligned(args.panel, args.labels), args)
        else:
            report = args.func(args)
        print(*report, sep="\n")
        return 0
    except (EstimationError, DegenerateDesignError) as exc:
        # first: DegenerateDesignError is a ValueError too
        return _die(3, str(exc))
    except (FactorRegimesError, ValueError, OSError) as exc:
        return _die(2, str(exc))


def run(argv=None) -> int:
    """`main` as a stage process's entry: the collector stays off while the
    stage runs, and the heap is frozen on every way out, so the collections
    at interpreter exit walk none of it."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
