"""Command-line pipeline driver.

Subcommands: ingest, fit, granger, validate, backtest, plotdata,
robustness. Every command is deterministic given its flags; anything
stochastic requires an explicit --seed. Exit codes: 0 success, 2 input
or validation error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .backtest import run_backtest, write_backtest_json, write_returns_csv
from .errors import (
    DegenerateDesignError,
    EstimationError,
    FactorRegimesError,
    PanelParseError,
    SampleSizeError,
    SchemaError,
)
from .events import (
    DEFAULT_EVENT_WINDOWS,
    detection_rate,
    event_granger_validation,
    lead_time,
    read_event_windows,
    write_validation_csv,
)
from .granger import (
    granger_f_test,
    granger_results_to_csv,
    pairwise_regime_matrix,
    regime_lag_mask,
    select_lag_bic,
)
from .hmm import FitConfig, em_fit, order_regimes, save_model, select_k
from .panel import (
    FF5_COLUMNS,
    MOMENTUM_COLUMNS,
    FactorPanel,
    parse_ff_daily_csv,
    merge_on_dates,
    read_labels_csv,
    read_panel_csv,
    slice_dates,
    volatility_norm,
    write_labels_csv,
    write_panel_csv,
)
from .robustness import (
    lag_sweep,
    subsample_split,
    threshold_regimes,
    transition_window_analysis,
)

FAMILY_MAP = {"student-t": "student_t", "gaussian": "gaussian"}


def _load_aligned(panel_path, labels_path):
    """Panel plus a label series that must cover exactly the same dates."""
    panel = read_panel_csv(panel_path)
    dates, labels = read_labels_csv(labels_path)
    if not np.array_equal(dates, panel.dates):
        raise SchemaError(
            f"label dates in {labels_path} do not match the panel dates"
        )
    return panel, labels


def _maybe_slice(panel, labels, start, end):
    keep = np.ones(panel.n_days, dtype=bool)
    if start:
        keep &= panel.dates >= np.datetime64(start, "D")
    if end:
        keep &= panel.dates <= np.datetime64(end, "D")
    return (
        FactorPanel(panel.dates[keep], panel.returns[keep], panel.factor_names),
        None if labels is None else labels[keep],
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    ff5 = parse_ff_daily_csv(args.ff5, FF5_COLUMNS)
    mom = parse_ff_daily_csv(args.momentum, MOMENTUM_COLUMNS)
    panel = merge_on_dates(ff5, mom)
    if args.start or args.end:
        panel = slice_dates(
            panel,
            args.start or panel.dates[0],
            args.end or panel.dates[-1],
        )
    write_panel_csv(panel, args.out)
    print(
        f"panel: T={panel.n_days} d={panel.n_factors} "
        f"span={panel.dates[0]}..{panel.dates[-1]} -> {args.out}"
    )
    return 0


def _print_fit_summary(fit, panel):
    labels = fit.labels
    norm = volatility_norm(panel)
    K = fit.params.n_regimes
    T = panel.n_days
    print(f"family={fit.params.family} K={K} loglik={fit.loglik:.4f} "
          f"bic={fit.bic:.4f}")
    print("regime    days  proportion  mean_norm        nu  self_trans")
    for k in range(K):
        sel = labels == k
        days = int(sel.sum())
        prop = 100.0 * days / T
        mnorm = norm[sel].mean() if days else float("nan")
        nu = "       -" if fit.params.nu is None else f"{fit.params.nu[k]:8.1f}"
        print(f"{k:6d}  {days:6d}  {prop:9.1f}%  {mnorm:9.2f}  {nu}  "
              f"{fit.params.A[k, k]:10.3f}")


def cmd_fit(args) -> int:
    panel = read_panel_csv(args.panel)
    if args.start or args.end:
        panel, _ = _maybe_slice(panel, None, args.start, args.end)
    family = FAMILY_MAP[args.family]
    config = FitConfig(seed=args.seed, n_restarts=args.restarts)
    if args.k_range:
        lo, _, hi = args.k_range.partition(":")
        try:
            ks = range(int(lo), int(hi) + 1)
        except ValueError:
            raise SchemaError(f"--k-range must look like A:B, got {args.k_range!r}")
        best_k, table = select_k(panel, ks, family, config)
        print("k  n_free      loglik            bic")
        for row in table:
            if row["error"] is not None:
                print(f"{row['k']}  {row['n_free_params']:6d}  failed: {row['error']}")
            else:
                print(f"{row['k']}  {row['n_free_params']:6d}  "
                      f"{row['loglik']:14.4f}  {row['bic']:14.4f}")
        print(f"selected K={best_k} by BIC")
        fit = next(row["fit"] for row in table if row["k"] == best_k)
    else:
        fit = em_fit(panel, args.k, family, config)
    fit = order_regimes(fit, panel)
    _print_fit_summary(fit, panel)
    save_model(fit, args.out)
    labels_path = args.labels or (os.path.splitext(args.out)[0] + ".labels.csv")
    write_labels_csv(panel.dates, fit.labels, labels_path)
    print(f"model -> {args.out}")
    print(f"labels -> {labels_path}")
    return 0


def cmd_granger(args) -> int:
    panel, labels = _load_aligned(args.panel, args.labels)
    matrix = pairwise_regime_matrix(panel, labels, args.lmax, args.alpha)
    granger_results_to_csv(matrix.results, args.out)
    hits = [r for r in matrix.results if r.significant_bonferroni]
    d = panel.n_factors
    print(f"{len(matrix.results)} cells tested, {len(matrix.failures)} "
          f"infeasible; Bonferroni threshold {args.alpha / (d * (d - 1)):.3e}")
    for r in hits:
        print(f"  significant: {r.source}->{r.target} regime {r.regime} "
              f"lag {r.lag} p={r.p_value:.5e}")
    if not hits:
        print("  no Bonferroni-significant cells")
    print(f"results -> {args.out}")
    return 0


def cmd_validate(args) -> int:
    panel, labels = _load_aligned(args.panel, args.labels)
    windows = read_event_windows(args.events) if args.events \
        else DEFAULT_EVENT_WINDOWS
    crisis = int(labels.max())
    norm = volatility_norm(panel)
    print("event                 detection  first_detect  peak_date    lead")
    for w in windows:
        try:
            rate = detection_rate(labels, panel.dates, w, crisis)
        except ValueError:
            print(f"{w.name:<22}no overlap")
            continue
        lt = lead_time(labels, panel.dates, norm, w, args.window,
                       crisis_index=crisis)
        if lt is None:
            print(f"{w.name:<22}{rate:9.3f}  (no sustained detection)")
        else:
            print(f"{w.name:<22}{rate:9.3f}  {lt.detection}    {lt.peak}  "
                  f"{lt.lead_days:4d}d")
    report = event_granger_validation(panel, windows, args.lag)
    print("event                 days    p_fwd      p_rev      class")
    for r in report.rows:
        pf = "     -   " if r.p_fwd is None else f"{r.p_fwd:.3e}"
        pr = "     -   " if r.p_rev is None else f"{r.p_rev:.3e}"
        print(f"{r.event:<22}{r.days:4d}  {pf}  {pr}  {r.classification}")
    print(f"binomial: {report.n_check}/{report.n_testable} CHECK, exact tail "
          f"{report.binomial_p:.5e}")
    write_validation_csv(report, args.out)
    print(f"report -> {args.out}")
    return 0


def cmd_backtest(args) -> int:
    panel, labels = _load_aligned(args.panel, args.labels)
    crisis = int(labels.max())
    strat, bench = run_backtest(
        panel, labels, crisis, window=args.window,
        start=args.start, end=args.end,
    )
    def fmt(name, r):
        sharpe = "undefined" if r.sharpe is None else f"{r.sharpe:7.2f}"
        print(f"{name:<12} annual {r.annual_return:7.2f}%  sharpe {sharpe}  "
              f"mdd {r.max_drawdown:7.2f}%  active {r.n_active_days}")
    fmt("strategy", strat)
    fmt("buy-and-hold", bench)
    write_backtest_json(strat, bench, args.out)
    if args.returns_csv:
        write_returns_csv(strat, bench, args.returns_csv)
        print(f"daily returns -> {args.returns_csv}")
    print(f"report -> {args.out}")
    return 0


def cmd_plotdata(args) -> int:
    panel, labels = _load_aligned(args.panel, args.labels)
    windows = read_event_windows(args.events) if args.events \
        else DEFAULT_EVENT_WINDOWS
    norm = volatility_norm(panel)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("date,volatility_norm,regime,event\n")
        for t in range(panel.n_days):
            d = panel.dates[t]
            marker = ""
            for w in windows:
                if w.start <= d <= w.end:
                    marker = w.name
                    break
            fh.write(f"{d},{norm[t]:.6f},{int(labels[t])},{marker}\n")
    print(f"timeline ({panel.n_days} rows) -> {args.out}")
    return 0


def cmd_robustness(args) -> int:
    panel, labels = _load_aligned(args.panel, args.labels)
    crisis = int(labels.max())
    os.makedirs(args.out, exist_ok=True)

    thr_labels = threshold_regimes(panel)
    thr_path = os.path.join(args.out, "threshold_regimes.csv")
    write_labels_csv(panel.dates, thr_labels, thr_path)
    y = panel.column("SMB")
    x = panel.column("HML")
    try:
        L_star, _ = select_lag_bic(
            y, x, lambda L: regime_lag_mask(thr_labels, 1, L), args.lmax
        )
        res = granger_f_test(y, x, L_star, regime_lag_mask(thr_labels, 1, L_star),
                             source="HML", target="SMB", regime="threshold")
        print(f"threshold regimes: HML->SMB lag {L_star} p={res.p_value:.5e}")
    except (SampleSizeError, DegenerateDesignError) as exc:
        print(f"threshold regimes: untestable ({exc})")

    sweep = lag_sweep(y, x, lambda L: regime_lag_mask(labels, crisis, L),
                      [5, 10, 15, 20])
    sweep_path = os.path.join(args.out, "lag_sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("L_max,L_star,f_stat,p_value,n_obs,error\n")
        for row in sweep:
            if row["error"] is not None:
                fh.write(f"{row['L_max']},,,,,{row['error']}\n")
            else:
                fh.write(f"{row['L_max']},{row['L_star']},{row['f_stat']:.6f},"
                         f"{row['p_value']:.5e},{row['n_obs']},\n")
    print(f"lag sweep -> {sweep_path}")

    pre, post = subsample_split(panel, labels, args.split, args.lmax, args.alpha)
    split_path = os.path.join(args.out, "subsample_split.csv")
    with open(split_path, "w", encoding="utf-8") as fh:
        fh.write("side,source,target,regime,lag,f_stat,p_value,n_obs\n")
        for side, matrix in (("pre", pre), ("post", post)):
            for r in matrix.results:
                fh.write(f"{side},{r.source},{r.target},{r.regime},{r.lag},"
                         f"{r.f_stat:.6f},{r.p_value:.5e},{r.n_obs}\n")
    print(f"subsample split at {args.split} -> {split_path}")

    rep = transition_window_analysis(panel, labels, crisis)
    trans_path = os.path.join(args.out, "transition_windows.csv")
    with open(trans_path, "w", encoding="utf-8") as fh:
        fh.write("direction,n_transitions,p_before,p_after,n_before,n_after\n")
        for name, pair in (("entry", rep.entry), ("exit", rep.exit)):
            pb = "" if pair.p_before is None else f"{pair.p_before:.5e}"
            pa = "" if pair.p_after is None else f"{pair.p_after:.5e}"
            fh.write(f"{name},{pair.n_transitions},{pb},{pa},"
                     f"{pair.n_before},{pair.n_after}\n")
    print(f"transition windows -> {trans_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factor-regimes",
        description="Regime-switching factor dynamics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--start", default=None)
    p.add_argument("--end", default=None)
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--labels", default=None,
                   help="labels CSV to write (default: next to the model)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("granger", help="pairwise regime-conditioned tests")
    p.add_argument("--panel", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--lmax", type=int, default=15)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_granger)

    p = sub.add_parser("validate", help="event-window validation report")
    p.add_argument("--panel", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--events", default=None,
                   help="event config CSV (default: built-in windows)")
    p.add_argument("--window", type=int, default=90,
                   help="peak-search horizon in trading days")
    p.add_argument("--lag", type=int, default=9,
                   help="fixed lag for per-event tests")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("backtest", help="crisis-gated strategy evaluation")
    p.add_argument("--panel", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--window", type=int, default=9,
                   help="trailing signal window in trading days")
    p.add_argument("--start", default="1995-01-01")
    p.add_argument("--end", default="2024-12-31")
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--returns-csv", default=None,
                   help="also write daily strategy/benchmark returns")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("plotdata", help="timeline export for external plotting")
    p.add_argument("--panel", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--events", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("robustness", help="threshold, lag-sweep, split, and "
                                          "transition analyses")
    p.add_argument("--panel", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--lmax", type=int, default=15)
    p.add_argument("--alpha", type=float, default=0.01)
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
        return args.func(args)
    except (PanelParseError, SchemaError, SampleSizeError) as exc:
        return _die(2, str(exc))
    except (EstimationError, DegenerateDesignError) as exc:
        return _die(3, str(exc))
    except FactorRegimesError as exc:
        return _die(2, str(exc))
    except ValueError as exc:
        return _die(2, str(exc))
    except OSError as exc:
        return _die(2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
