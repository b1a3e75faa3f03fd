"""Acceptance gate: thirteen criteria, one test each.

Criteria 1-6 are property-based and run offline. Criteria 7-13 reproduce
the headline empirical results and need the two public daily factor
files (see README); they skip cleanly when the files are absent.
"""

import io
import itertools
import math
import time

import numpy as np
import pytest

from factorregimes import (
    DEFAULT_EVENT_WINDOWS,
    CHECK,
    CROSS,
    DIR,
    CrossLagSpec,
    EventResult,
    FF5_COLUMNS,
    FitConfig,
    HmmParams,
    MOMENTUM_COLUMNS,
    SyntheticSpec,
    ValidationReport,
    binomial_tail,
    detection_rate,
    digamma,
    em_fit,
    event_granger_validation,
    f_sf,
    forward_backward,
    FTestDistribution,
    generate,
    granger_f_test,
    label_accuracy,
    lag_sweep,
    log_gamma,
    merge_on_dates,
    order_regimes,
    pairwise_regime_matrix,
    parse_ff_daily_csv,
    performance_metrics,
    regime_lag_mask,
    regularized_incomplete_beta,
    run_backtest,
    select_k,
    select_lag_bic,
    slice_dates,
    strategy_signal,
    subsample_split,
    threshold_regimes,
    write_validation_csv,
)
from factorregimes.hmm import _emission_terms

from conftest import locate_factor_data, requires_factor_data, table1_like_params


def _toy_panel(X):
    from factorregimes import FactorPanel

    X = np.asarray(X, dtype=float)
    dates = np.busday_offset("2001-01-01", np.arange(len(X))).astype(
        "datetime64[D]")
    return FactorPanel(dates, X, tuple(f"F{i}" for i in range(X.shape[1])))


def _random_instance(rng):
    K = int(rng.integers(1, 4))
    T = int(rng.integers(2, 9))
    d = int(rng.integers(1, 3))
    pi = rng.dirichlet(np.ones(K))
    A = rng.dirichlet(np.ones(K), size=K)
    mu = rng.normal(0.0, 1.0, (K, d))
    Sigma = np.empty((K, d, d))
    for k in range(K):
        M = rng.normal(0.0, 1.0, (d, d))
        Sigma[k] = M @ M.T + 0.5 * np.eye(d)
    if rng.random() < 0.5:
        params = HmmParams(pi=pi, A=A, mu=mu, Sigma=Sigma,
                           nu=rng.uniform(3.0, 30.0, K), family="student_t")
    else:
        params = HmmParams(pi=pi, A=A, mu=mu, Sigma=Sigma, nu=None,
                           family="gaussian")
    X = rng.normal(0.0, 1.5, (T, d))
    return params, _toy_panel(X)


def _brute_force(params, panel):
    K = params.n_regimes
    T = panel.n_days
    logB, _ = _emission_terms(panel.returns, params.mu, params.Sigma,
                              params.nu, params.family)
    B = np.exp(logB)
    total = 0.0
    post = np.zeros((T, K))
    for path in itertools.product(range(K), repeat=T):
        prob = params.pi[path[0]] * B[0, path[0]]
        for t in range(1, T):
            prob *= params.A[path[t - 1], path[t]] * B[t, path[t]]
        total += prob
        for t in range(T):
            post[t, path[t]] += prob
    return math.log(total), post / total


def test_c01_forward_backward_oracle():
    """criterion 1: forward-backward matches exhaustive enumeration"""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_ll = worst_gamma = 0.0
    for _ in range(200):
        params, panel = _random_instance(rng)
        ll, gamma, _ = forward_backward(params, panel)
        ll_ref, gamma_ref = _brute_force(params, panel)
        worst_ll = max(worst_ll, abs(ll - ll_ref))
        worst_gamma = max(worst_gamma, np.max(np.abs(gamma - gamma_ref)))
    elapsed = time.perf_counter() - t0
    assert worst_ll <= 1e-9, f"loglik error {worst_ll:.3e}"
    assert worst_gamma <= 1e-9, f"gamma error {worst_gamma:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c02_em_monotonicity():
    """criterion 2: EM log-likelihood never decreases beyond 1e-8"""
    t0 = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(9000 + seed)
        sep = rng.uniform(1.5, 3.0)
        params = HmmParams(
            pi=[0.5, 0.5],
            A=[[0.95, 0.05], [0.10, 0.90]],
            mu=[[0.0, 0.0], [sep, -sep]],
            Sigma=[np.eye(2).tolist(),
                   (np.eye(2) * rng.uniform(1.0, 4.0)).tolist()],
            nu=[rng.uniform(4.0, 15.0), rng.uniform(4.0, 15.0)],
        )
        panel, _ = generate(SyntheticSpec(hmm=params, T=600, seed=seed))
        family = "student_t" if seed % 2 == 0 else "gaussian"
        fit = em_fit(panel, 2, family, FitConfig(seed=seed, n_restarts=1))
        drops = np.diff(fit.loglik_history)
        assert drops.min() >= -1e-8, (
            f"seed {seed}: loglik fell by {-drops.min():.3e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_c03_synthetic_regime_recovery():
    """criterion 3: 3-regime Student-t recovery at 90% label accuracy"""
    t0 = time.perf_counter()
    params = table1_like_params(6)
    good = 0
    accs = []
    for seed in range(10):
        panel, truth = generate(
            SyntheticSpec(hmm=params, T=8000, seed=1000 + seed))
        fit = em_fit(panel, 3, "student_t",
                     FitConfig(seed=seed, n_restarts=10))
        fit = order_regimes(fit, panel)
        acc = label_accuracy(fit.labels, truth, 3)
        accs.append(round(acc, 4))
        good += acc >= 0.90
    elapsed = time.perf_counter() - t0
    assert good >= 9, f"only {good}/10 seeds reached 90%: {accs}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_c04_granger_power_and_size():
    """criterion 4: lag-2 power >= 95/100; null size in [3%, 7%]"""
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        y[2:] += 0.5 * x[:-2]
        L_star, _ = select_lag_bic(y, x, lambda L: np.ones(2000, dtype=bool), 15)
        res = granger_f_test(y, x, L_star, np.ones(2000, dtype=bool))
        hits += (res.p_value < 1e-4) and (L_star == 2)
    assert hits >= 95, f"power: {hits}/100"

    rejects = 0
    for seed in range(1000):
        rng = np.random.default_rng(40_000 + seed)
        x = rng.standard_normal(500)
        y = rng.standard_normal(500)
        res = granger_f_test(y, x, 5, np.ones(500, dtype=bool))
        rejects += res.p_value < 0.05
    rate = rejects / 1000.0
    assert 0.03 <= rate <= 0.07, f"size: {rate:.3f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_c05_numerics_oracles():
    """criterion 5: special functions match high-precision oracles"""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(2025)

    xs = rng.uniform(0.05, 60.0, 100)
    err = max(abs(log_gamma(float(x)) - float(mp.loggamma(x))) for x in xs)
    assert err <= 1e-10, f"log_gamma error {err:.3e}"

    xs = rng.uniform(0.05, 60.0, 100)
    err = max(abs(digamma(float(x)) - float(mp.psi(0, x))) for x in xs)
    assert err <= 1e-9, f"digamma error {err:.3e}"

    err = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.3, 25.0))
        b = float(rng.uniform(0.3, 25.0))
        x = float(rng.uniform(0.01, 0.99))
        ref = float(mp.betainc(a, b, 0, x, regularized=True))
        err = max(err, abs(regularized_incomplete_beta(a, b, x) - ref))
    assert err <= 1e-10, f"incomplete beta error {err:.3e}"

    err = 0.0
    for _ in range(100):
        df1 = int(rng.integers(1, 21))
        df2 = int(rng.integers(2, 401))
        f = float(rng.uniform(0.01, 8.0))
        t = mp.mpf(df2) / (mp.mpf(df2) + mp.mpf(df1) * mp.mpf(f))
        ref = float(mp.betainc(mp.mpf(df2) / 2, mp.mpf(df1) / 2, 0, t,
                               regularized=True))
        err = max(err, abs(f_sf(f, FTestDistribution(df1, df2)) - ref))
    assert err <= 1e-10, f"F tail error {err:.3e}"

    tail = binomial_tail(5, 6, 0.10)
    assert abs(tail - 5.5e-5) <= 1e-12, f"binomial_tail = {tail!r}"
    # the exported report must flag that approximate methods give ~1e-3
    rows = tuple(
        EventResult(f"e{i}", 100, 0.01, 0.5, CHECK if i < 5 else CROSS)
        for i in range(6)
    )
    report = ValidationReport(rows, 5, 6, tail)
    buf = io.StringIO()
    write_validation_csv(report, buf)
    footer = buf.getvalue().splitlines()[-1]
    assert "5.5" in footer and "approximate" in footer


def test_c06_backtest_identities():
    """criterion 6: backtest closed forms and no-look-ahead guard"""
    rep = performance_metrics(np.full(252, 0.03))
    assert rep.annual_return == pytest.approx(100.0 * (1.0003**252 - 1.0),
                                              rel=1e-12)
    assert rep.annual_return == pytest.approx(7.86, abs=0.01)
    assert rep.max_drawdown == 0.0
    assert rep.sharpe is None

    rep = performance_metrics(np.array([10.0, -10.0]))
    assert rep.max_drawdown == pytest.approx(-10.0, rel=1e-12)

    rng = np.random.default_rng(606)
    hml = rng.standard_normal(300)
    smb = rng.standard_normal(300)
    panel = _toy_panel(np.column_stack([hml, smb]))
    from dataclasses import replace

    panel = replace(panel, factor_names=("HML", "SMB"))
    labels = np.ones(300, dtype=int)

    same_day, bench = run_backtest(panel, labels, 1)
    shifted, _ = run_backtest(panel, labels, 1, execution_lag=1)
    assert not np.array_equal(same_day.daily_returns, shifted.daily_returns)
    np.testing.assert_array_equal(bench.daily_returns, smb)

    # signal at t is a function of data through t-1 only
    sig = strategy_signal(hml, labels, 1, window=9)
    bumped = hml.copy()
    bumped[150] = 99.0
    sig2 = strategy_signal(bumped, labels, 1, window=9)
    np.testing.assert_array_equal(sig[:151], sig2[:151])


# ---------------------------------------------------------------------------
# data-dependent criteria


@pytest.fixture(scope="module")
def real_panel():
    paths = locate_factor_data()
    if paths is None:
        pytest.skip("raw factor data files not present")
    ff5 = parse_ff_daily_csv(paths[0], FF5_COLUMNS)
    mom = parse_ff_daily_csv(paths[1], MOMENTUM_COLUMNS)
    return slice_dates(merge_on_dates(ff5, mom), "1990-01-02", "2024-12-31")


@pytest.fixture(scope="module")
def real_fit(real_panel):
    fit = em_fit(real_panel, 3, "student_t", FitConfig(seed=7, n_restarts=10))
    return order_regimes(fit, real_panel)


@pytest.fixture(scope="module")
def real_gaussian_fit(real_panel):
    fit = em_fit(real_panel, 3, "gaussian", FitConfig(seed=7, n_restarts=10))
    return order_regimes(fit, real_panel)


@pytest.fixture(scope="module")
def real_matrix(real_panel, real_fit):
    return pairwise_regime_matrix(real_panel, real_fit.labels, L_max=15,
                                  alpha=0.01)


def _cell(matrix, source, target, regime):
    for r in matrix.results:
        if (r.source, r.target, r.regime) == (source, target, regime):
            return r
    raise AssertionError(f"cell {source}->{target} regime {regime} missing")


@requires_factor_data
def test_c07_panel_size(real_panel):
    """criterion 7: merged panel has exactly 8,817 trading days"""
    assert real_panel.n_days == 8817
    assert real_panel.n_factors == 6


@requires_factor_data
def test_c08_regime_structure(real_panel, real_fit):
    """criterion 8: BIC picks K=3 with the published regime anatomy"""
    t0 = time.perf_counter()
    best_k, table = select_k(real_panel, range(2, 5), "student_t",
                             FitConfig(seed=7, n_restarts=10))
    elapsed = time.perf_counter() - t0
    assert best_k == 3, f"BIC chose K={best_k}: {table}"

    labels = real_fit.labels
    T = real_panel.n_days
    props = [100.0 * np.mean(labels == k) for k in range(3)]
    for got, want in zip(props, (42.2, 43.4, 14.4)):
        assert abs(got - want) <= 5.0, f"proportions {props}"
    nu = real_fit.params.nu
    assert nu[2] < nu[1] < nu[0], f"nu ordering {nu}"
    assert abs(real_fit.params.A[2, 2] - 0.968) <= 0.02, (
        f"crisis self-transition {real_fit.params.A[2, 2]:.4f}")
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


@requires_factor_data
def test_c09_detection_contrast(real_panel, real_fit, real_gaussian_fit):
    """criterion 9: Student-t sees 2011 while Gaussian misses it"""
    by_name = {w.name: w for w in DEFAULT_EVENT_WINDOWS}
    t_labels = real_fit.labels
    g_labels = real_gaussian_fit.labels
    dates = real_panel.dates

    t_2011 = detection_rate(t_labels, dates, by_name["2011 EU Debt"], 2)
    g_2011 = detection_rate(g_labels, dates, by_name["2011 EU Debt"], 2)
    assert t_2011 >= 0.50, f"student-t 2011 rate {t_2011:.3f}"
    assert g_2011 <= 0.10, f"gaussian 2011 rate {g_2011:.3f}"
    for name in ("2008 Financial", "2020 COVID"):
        for labels, fam in ((t_labels, "student-t"), (g_labels, "gaussian")):
            rate = detection_rate(labels, dates, by_name[name], 2)
            assert rate >= 0.75, f"{fam} {name} rate {rate:.3f}"


@requires_factor_data
def test_c10_main_causality_result(real_matrix):
    """criterion 10: crisis HML->SMB significant, reverse and Normal not"""
    fwd = _cell(real_matrix, "HML", "SMB", 2)
    rev = _cell(real_matrix, "SMB", "HML", 2)
    assert fwd.p_value < 1e-3, f"crisis HML->SMB p={fwd.p_value:.3e}"
    assert 7 <= fwd.lag <= 11, f"selected lag {fwd.lag}"
    assert rev.p_value > 0.05, f"crisis SMB->HML p={rev.p_value:.3e}"
    for src, tgt in (("HML", "SMB"), ("SMB", "HML")):
        cell = _cell(real_matrix, src, tgt, 0)
        assert not cell.significant_bonferroni, (
            f"Normal {src}->{tgt} p={cell.p_value:.3e}")
    assert 0.005 <= fwd.r2_increment <= 0.05, (
        f"crisis R2 increment {fwd.r2_increment:.4f}")


@requires_factor_data
def test_c11_event_validation(real_panel):
    """criterion 11: >= 4 of 6 events CHECK/DIR with 2022 CROSS"""
    report = event_granger_validation(real_panel, DEFAULT_EVENT_WINDOWS, L=9)
    by_name = {r.event: r for r in report.rows}
    supportive = sum(r.classification in (CHECK, DIR) for r in report.rows)
    assert supportive >= 4, f"rows: {report.rows}"
    assert by_name["2022 Rate Hikes"].classification == CROSS
    assert report.binomial_p == pytest.approx(
        binomial_tail(report.n_check, report.n_testable, 0.10), rel=1e-15)


@requires_factor_data
def test_c12_backtest_result(real_panel, real_fit):
    """criterion 12: strategy underperforms passive SMB exposure"""
    strat, bench = run_backtest(real_panel, real_fit.labels, 2,
                                start="1995-01-01", end="2024-12-31")
    assert strat.sharpe is not None and strat.sharpe < 0.0, (
        f"strategy sharpe {strat.sharpe}")
    assert strat.sharpe < bench.sharpe, (
        f"strategy {strat.sharpe:.3f} vs benchmark {bench.sharpe:.3f}")
    assert abs(bench.annual_return - 1.9) <= 1.5, (
        f"benchmark annual {bench.annual_return:.2f}%")


@requires_factor_data
def test_c13_robustness(real_panel, real_fit):
    """criterion 13: threshold regimes, lag sweep, subsample split"""
    smb = real_panel.column("SMB")
    hml = real_panel.column("HML")

    thr = threshold_regimes(real_panel)
    L_thr, _ = select_lag_bic(smb, hml,
                              lambda L: regime_lag_mask(thr, 1, L), 15)
    res = granger_f_test(smb, hml, L_thr, regime_lag_mask(thr, 1, L_thr))
    assert res.p_value < 0.01, f"threshold-crisis p={res.p_value:.3e}"

    labels = real_fit.labels
    rows = lag_sweep(smb, hml, lambda L: regime_lag_mask(labels, 2, L),
                     [10, 15, 20])
    stars = [r["L_star"] for r in rows]
    assert len(set(stars)) == 1, f"lag sweep unstable: {stars}"
    assert all(r["p_value"] < 1e-3 for r in rows)

    pre, post = subsample_split(real_panel, labels, "2008-01-01", L_max=15)
    p_pre = _cell(pre, "HML", "SMB", 2).p_value
    p_post = _cell(post, "HML", "SMB", 2).p_value
    assert p_post < p_pre, f"pre {p_pre:.3e} vs post {p_post:.3e}"
