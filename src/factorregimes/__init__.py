"""Regime-switching dynamics of daily factor returns.

A numpy-only toolkit for the full pipeline: load and merge daily
factor-return panels, fit K-regime hidden Markov models with
multivariate Student-t (or Gaussian) emissions, run regime-conditioned
Granger causality tests with BIC lag selection, validate against
historical stress events, and evaluate a crisis-gated trading strategy.

Each exported name is imported from its module on first access (PEP
562), so `import factorregimes` loads no module and a CLI stage loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_HOMES = {name: module for module, names in {
    "backtest": ("BacktestReport", "performance_metrics", "run_backtest",
                 "strategy_signal", "write_backtest_json", "write_returns_csv"),
    "errors": ("DegenerateDesignError", "EstimationError", "FactorRegimesError",
               "PanelParseError", "SampleSizeError", "SchemaError"),
    "events": ("CHECK", "CROSS", "DEFAULT_EVENT_WINDOWS", "DIR", "UNTESTABLE",
               "EventResult", "EventWindow", "LeadTime", "ValidationReport",
               "detection_rate", "event_granger_validation", "lead_time",
               "read_event_windows", "write_validation_csv"),
    "granger": ("CellFailure", "GrangerResult", "PairwiseMatrix", "granger_f_test",
                "granger_results_to_csv", "pairwise_regime_matrix",
                "regime_lag_mask", "select_lag_bic"),
    "hmm": ("FitConfig", "HmmFit", "HmmParams", "decode", "em_fit",
            "forward_backward", "load_model", "order_regimes", "save_model",
            "select_k"),
    "numerics": ("FTestDistribution", "binomial_tail", "digamma", "f_sf",
                 "log_gamma", "regularized_incomplete_beta"),
    "panel": ("FF5_COLUMNS", "MOMENTUM_COLUMNS", "SIX_FACTOR_NAMES", "FactorPanel",
              "merge_on_dates", "parse_ff_daily_csv", "read_labels_csv",
              "read_panel_csv", "slice_dates", "volatility_norm",
              "write_labels_csv", "write_panel_csv"),
    "robustness": ("TransitionPair", "TransitionReport", "lag_sweep",
                   "subsample_split", "threshold_regimes",
                   "transition_window_analysis"),
    "synthgen": ("CrossLagSpec", "SyntheticSpec", "generate", "label_accuracy"),
}.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
