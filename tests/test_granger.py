"""Granger F-tests, lag selection, masks, and the pairwise matrix."""

import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorregimes import (
    DegenerateDesignError,
    EventWindow,
    FactorPanel,
    SampleSizeError,
    f_sf,
    granger_f_test,
    granger_results_to_csv,
    lag_sweep,
    pairwise_regime_matrix,
    regime_lag_mask,
    select_lag_bic,
)
import factorregimes
from factorregimes import granger
from factorregimes.granger import (
    _bic_rows,
    _distinct,
    _fixed_lag_fit,
    _granger_result,
    _lag_block,
    _lag_depth,
    _lag_fits,
    _lag_search,
    _run_lengths,
    _runs_from,
)
from factorregimes.events import SUSTAINED_RUN, first_sustained_detection
from factorregimes.robustness import _transition_starts

from conftest import (
    lstsq_bic_table,
    lstsq_nested_f,
    lstsq_rss,
    lstsq_unrestricted_fit,
    pair_design,
    random_series,
    reference_design,
    reference_first_sustained_detection,
    reference_regime_lag_mask,
    reference_runs_from,
    reference_svd_ranks,
    reference_transition_starts,
    same_bits,
)


def make_panel(X, names=None):
    X = np.asarray(X, dtype=float)
    dates = np.busday_offset("2000-01-03", np.arange(len(X))).astype(
        "datetime64[D]")
    if names is None:
        names = tuple(f"F{i}" for i in range(X.shape[1]))
    return FactorPanel(dates, X, names)


def lagged_pair(T, seed, coef=0.0, lag=2):
    """y driven by x at `lag` when coef != 0; both unit-variance noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    y = rng.standard_normal(T)
    if coef:
        y[lag:] += coef * x[:-lag]
    return y, x


class TestMasks:
    def test_warmup_always_false(self):
        labels = np.ones(10, dtype=int)
        mask = regime_lag_mask(labels, 1, 3)
        assert not mask[:3].any()
        assert mask[3:].all()

    def test_alternating_labels_leave_nothing(self):
        labels = np.tile([0, 1], 20)
        assert not regime_lag_mask(labels, 1, 2).any()

    def test_requires_full_history_in_regime(self):
        labels = np.array([0, 1, 1, 1, 0, 1, 1, 1, 1])
        mask = regime_lag_mask(labels, 1, 2)
        # t qualifies iff labels[t-2], labels[t-1], labels[t] are all 1
        np.testing.assert_array_equal(
            mask,
            [False, False, False, True, False, False, False, True, True],
        )


def brute_force_lag_mask(labels, k, L):
    return np.array([t >= L and all(labels[t - l] == k for l in range(L + 1))
                     for t in range(len(labels))], dtype=bool)


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(0, 2), max_size=60),
       k=st.integers(0, 2), L=st.integers(1, 8))
def test_regime_lag_mask_matches_brute_force(labels, k, L):
    labels = np.array(labels, dtype=int)
    np.testing.assert_array_equal(regime_lag_mask(labels, k, L),
                                  brute_force_lag_mask(labels, k, L))


def test_distinct_is_np_unique():
    """The regimes of the pairwise matrix come from np.unique's values,
    computed without loading numpy.ma."""
    for values in random_series(np.random.default_rng(34)):
        assert same_bits(_distinct(values), np.unique(values)), values


def test_run_lengths():
    state = np.array([True, True, False, True, True, True, False])
    np.testing.assert_array_equal(_run_lengths(state), [1, 2, 0, 1, 2, 3, 0])
    assert _run_lengths(np.zeros(0, dtype=bool)).size == 0


@settings(max_examples=500, deadline=None)
@given(labels=st.lists(st.integers(0, 2), max_size=39), k=st.integers(0, 2),
       m=st.integers(1, 7), first=st.integers(-10, 45), span=st.integers(0, 30))
def test_run_length_rules_match_references(labels, k, m, first, span):
    """The lag mask, the sustained-run days and the transition starts, all
    read from run lengths, equal the shift-and-convolve bodies they
    replaced, dtypes included; so does the first sustained detection,
    which takes its run from SUSTAINED_RUN, for windows inside, across
    and outside the series."""
    labels = np.array(labels, dtype=np.int64)
    day0 = np.datetime64("2001-01-01")
    dates = day0 + np.arange(labels.size)
    w = EventWindow("w", day0 + first, day0 + first + span)
    got, want = regime_lag_mask(labels, k, m), reference_regime_lag_mask(labels, k, m)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    got, want = _runs_from(labels == k, m), reference_runs_from(labels == k, m)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    got = first_sustained_detection(labels, dates, w, crisis_index=k)
    want = reference_first_sustained_detection(labels, dates, w, SUSTAINED_RUN, k)
    assert got == want and type(got) is type(want)
    for entering in (True, False):
        got = _transition_starts(labels, k, m, entering)
        want = reference_transition_starts(labels, k, m, entering)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestBuildDesign:
    """The one design builder, `_lag_block`, and the rows granger_f_test
    gives it."""

    def test_matches_column_by_column_reference(self):
        rng = np.random.default_rng(19)
        for trial in range(30):
            T = int(rng.integers(60, 400))
            L = int(rng.integers(1, 9))
            y, x = rng.standard_normal(T), rng.standard_normal(T)
            mask = rng.random(T) < rng.uniform(0.3, 1.0)
            sel = np.flatnonzero(mask)
            rows = sel[sel >= L]
            if rows.size < 2 * L + 11:
                with pytest.raises(SampleSizeError):
                    granger_f_test(y, x, L, mask)
                continue
            ref = reference_design(y, x, L, rows)
            for got, want in zip(pair_design(y, x, L, rows), ref):
                assert got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    def test_rows_kept_as_given_with_duplicates(self):
        rng = np.random.default_rng(20)
        y, x = rng.standard_normal(200), rng.standard_normal(200)
        rows = np.concatenate([np.arange(10, 80), np.arange(50, 120)])
        for got, want in zip(pair_design(y, x, 4, rows),
                             reference_design(y, x, 4, rows)):
            np.testing.assert_array_equal(got, want)

    def test_hand_checked_columns(self):
        T = 15
        y = np.arange(1.0, T + 1)
        x = 10.0 * np.arange(1.0, T + 1)
        sel = [t for t in range(1, T) if t != 5]
        Z = _lag_block(np.column_stack([y, x]), 2)(np.array(sel))
        assert Z.shape == (len(sel), 7)
        np.testing.assert_array_equal(Z[:, 0], 1.0)
        np.testing.assert_array_equal(Z[:, 1], y[sel])
        np.testing.assert_array_equal(Z[:, 2], x[sel])
        np.testing.assert_array_equal(Z[:, 3], y[np.array(sel) - 1])
        np.testing.assert_array_equal(Z[:, 4], x[np.array(sel) - 1])
        # day 1 has no second lag: it reads day 0
        np.testing.assert_array_equal(Z[:, 5], y[np.maximum(np.array(sel) - 2, 0)])
        np.testing.assert_array_equal(Z[:, 6], x[np.maximum(np.array(sel) - 2, 0)])

    def test_mask_rows_below_lag_dropped(self):
        T = 20
        y, x = lagged_pair(T, 22)
        every_day = np.ones(T, dtype=bool)
        np.testing.assert_array_equal(_lag_depth(lambda L: every_day, 2, T),
                                      np.minimum(np.arange(T), 2))
        assert granger_f_test(y, x, 2, every_day).n_obs == T - 2  # t = 2..T-1

    def test_sample_size_enforced(self):
        y = np.arange(20.0)
        x = np.arange(20.0)
        with pytest.raises(SampleSizeError) as info:
            granger_f_test(y, x, 4, np.ones(20, dtype=bool))
        # lag 4 needs 2*4 + 1 parameters plus 10 spare rows; t = 4..19 remain
        assert str(info.value) == (
            "lag 4 design: need at least 19 observations, have 16")
        assert info.value.required == 19
        assert info.value.available == 16


class TestGrangerFTest:
    @pytest.mark.parametrize("L", [1, 3, 6])
    def test_fixed_lag_fit_drops_rows_without_l_earlier_days(self, L):
        """Rows 0..L-1 have no L-th lag: _fixed_lag_fit drops them itself,
        so passing them changes nothing, where they used to be fitted with
        day 0 standing in for the missing lags."""
        y, x = lagged_pair(300, 41, coef=0.3, lag=1)
        rows = np.arange(300)
        want = _fixed_lag_fit(y, x, rows[rows >= L], L)
        assert want[0] == 300 - L  # (n_obs, RSS_u, RSS_r - RSS_u, TSS)
        assert _fixed_lag_fit(y, x, rows, L) == want

    def test_p_value_consistent_with_f_sf(self):
        from factorregimes import FTestDistribution

        y, x = lagged_pair(400, 5, coef=0.3, lag=1)
        res = granger_f_test(y, x, 3, np.ones(400, dtype=bool))
        dist = FTestDistribution(3, res.n_obs - 7)
        assert res.p_value == pytest.approx(f_sf(res.f_stat, dist),
                                            abs=1e-12)

    def test_f_stat_nonnegative_under_null(self):
        for seed in range(20):
            y, x = lagged_pair(200, 50 + seed)
            res = granger_f_test(y, x, 2, np.ones(200, dtype=bool))
            assert res.f_stat >= 0.0

    def test_affine_rescale_invariance(self):
        y, x = lagged_pair(500, 6, coef=0.4, lag=2)
        base = granger_f_test(y, x, 3, np.ones(500, dtype=bool))
        scaled = granger_f_test(3.0 * y + 7.0, 0.5 * x - 2.0, 3,
                                np.ones(500, dtype=bool))
        assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-6)

    def test_constructed_signal_detected(self):
        y, x = lagged_pair(2000, 7, coef=0.5, lag=2)
        res = granger_f_test(y, x, 5, np.ones(2000, dtype=bool))
        assert res.p_value < 1e-6
        assert res.r2_increment > 0.0

    def test_permutation_destroys_significance(self):
        y, x = lagged_pair(2000, 8, coef=0.5, lag=2)
        rng = np.random.default_rng(9)
        ps = []
        for _ in range(100):
            ps.append(granger_f_test(y, rng.permutation(x), 5,
                                     np.ones(2000, dtype=bool)).p_value)
        assert np.median(ps) > 0.2

    def test_constant_regressor_degenerate(self):
        y = np.random.default_rng(10).standard_normal(100)
        x = np.zeros(100)
        with pytest.raises(DegenerateDesignError):
            granger_f_test(y, x, 2, np.ones(100, dtype=bool))


def first_half(L):
    """Lag-complete rows of days 0..99 of a 200-day series."""
    return regime_lag_mask(np.arange(200) < 100, 1, L)


NON_FINITE_RUNS = {
    "granger_f_test": lambda y, x: granger_f_test(y, x, 2, first_half(2)),
    "select_lag_bic": lambda y, x: select_lag_bic(y, x, first_half, 3),
    "lag_sweep": lambda y, x: lag_sweep(y, x, first_half, [2, 3]),
}


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("run", NON_FINITE_RUNS.values(), ids=NON_FINITE_RUNS.keys())
def test_non_finite_day_is_named(run, value, column):
    """A non-finite value on a day the design reads names that day; one
    on a day no design row reads (the mask ends at day 99) is accepted."""
    clean = list(lagged_pair(200, 61, coef=0.4))
    dirty = [series.copy() for series in clean]
    dirty[column][57] = value
    with pytest.raises(ValueError, match="^non-finite value on day 57$"):
        run(*dirty)
    dirty[column][57] = clean[column][57]
    dirty[column][150] = value
    assert run(*dirty) == run(*clean)


class TestSelectLagBic:
    def test_concentrates_on_true_lag(self):
        hits = 0
        for seed in range(20):
            y, x = lagged_pair(2000, 200 + seed, coef=0.5, lag=2)
            L, _ = select_lag_bic(y, x, lambda L: np.ones(2000, dtype=bool), 15)
            hits += L == 2
        assert hits >= 18

    def test_white_noise_prefers_smallest(self):
        hits = 0
        for seed in range(20):
            y, x = lagged_pair(1500, 300 + seed)
            L, _ = select_lag_bic(y, x, lambda L: np.ones(1500, dtype=bool), 10)
            hits += L == 1
        assert hits >= 15

    def test_table_covers_grid(self):
        y, x = lagged_pair(800, 12, coef=0.4, lag=3)
        L, table = select_lag_bic(y, x, lambda L: np.ones(800, dtype=bool), 6)
        assert [row["lag"] for row in table] == [1, 2, 3, 4, 5, 6]
        feasible = [r for r in table if r["error"] is None]
        best = min(feasible, key=lambda r: (r["bic"], r["lag"]))
        assert best["lag"] == L

    def test_all_infeasible_raises(self):
        y = np.arange(12.0)
        x = np.arange(12.0)
        # the count is the lag-1 design's rows: days 1..11, or the 11
        # masked days of a longer series
        with pytest.raises(SampleSizeError, match=r"^no feasible lag in 1\.\.5: "
                           r"need at least 13 observations, have 11$"):
            select_lag_bic(y, x, lambda L: np.ones(12, dtype=bool), 5)
        mask = np.zeros(40, dtype=bool)
        mask[5:16] = True
        with pytest.raises(SampleSizeError, match=r"^no feasible lag in 1\.\.3: "
                           r"need at least 13 observations, have 11$"):
            select_lag_bic(np.arange(40.0), np.arange(40.0), lambda L: mask, 3)

    def test_non_nested_masks_rejected(self):
        y, x = lagged_pair(300, 21)
        even = np.arange(300) % 2 == 0

        def builder(L):
            return even if L == 2 else np.ones(300, dtype=bool)

        with pytest.raises(ValueError, match=r"mask_builder\(3\) is not a "
                                             r"subset of mask_builder\(2\)"):
            select_lag_bic(y, x, builder, 4)

    def test_shrinking_mask_skips_infeasible_lags(self):
        y, x = lagged_pair(400, 13, coef=0.4, lag=1)
        labels = np.zeros(400, dtype=int)
        labels[:360] = 1

        def builder(L):
            return regime_lag_mask(labels, 1, L)

        L, table = select_lag_bic(y, x, builder, 15)
        assert all(row["error"] is None for row in table)
        assert 1 <= L <= 15


class TestPairwiseMatrix:
    def test_cell_count_and_ordering(self):
        rng = np.random.default_rng(14)
        panel = make_panel(rng.standard_normal((900, 2)), names=("A", "B"))
        labels = np.zeros(900, dtype=int)
        labels[450:] = 1
        matrix = pairwise_regime_matrix(panel, labels, L_max=4)
        assert len(matrix.results) == 4  # 2 ordered pairs x 2 regimes
        keys = [(r.source, r.target, r.regime) for r in matrix.results]
        assert keys == [("A", "B", 0), ("A", "B", 1),
                        ("B", "A", 0), ("B", "A", 1)]
        assert not matrix.failures

    def test_bonferroni_threshold_value(self):
        rng = np.random.default_rng(15)
        panel = make_panel(rng.standard_normal((600, 3)))
        labels = np.zeros(600, dtype=int)
        matrix = pairwise_regime_matrix(panel, labels, L_max=3, alpha=0.06)
        # d=3 gives 6 ordered pairs
        for res in matrix.results:
            assert res.significant_bonferroni == (res.p_value < 0.01)

    def test_single_regime_matches_pooled_test(self):
        y, x = lagged_pair(1200, 16, coef=0.5, lag=2)
        panel = make_panel(np.column_stack([x, y]), names=("X", "Y"))
        labels = np.zeros(1200, dtype=int)
        matrix = pairwise_regime_matrix(panel, labels, L_max=8)
        cell = next(r for r in matrix.results
                    if r.source == "X" and r.target == "Y")
        L_star, _ = select_lag_bic(
            y, x, lambda L: regime_lag_mask(labels, 0, L), 8)
        direct = granger_f_test(y, x, L_star,
                                regime_lag_mask(labels, 0, L_star))
        assert cell.lag == L_star
        assert cell.f_stat == pytest.approx(direct.f_stat, rel=1e-12)
        assert cell.p_value == pytest.approx(direct.p_value, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 5.0, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        panel = make_panel(np.random.default_rng(18).standard_normal((300, 2)))
        with pytest.raises(ValueError, match="alpha must be in \\(0, 1\\)"):
            pairwise_regime_matrix(panel, np.zeros(300, dtype=int), 3, alpha)

    def test_sparse_regime_recorded_as_failure(self):
        rng = np.random.default_rng(17)
        panel = make_panel(rng.standard_normal((400, 2)))
        labels = np.zeros(400, dtype=int)
        labels[:5] = 1  # far too few rows for any lag
        matrix = pairwise_regime_matrix(panel, labels, L_max=5)
        regimes_ok = {r.regime for r in matrix.results}
        assert regimes_ok == {0}
        assert len(matrix.failures) == 2
        assert all(f.regime == 1 for f in matrix.failures)


class TestCsv:
    def test_header_and_formats(self, tmp_path):
        y, x = lagged_pair(600, 18, coef=0.4, lag=1)
        panel = make_panel(np.column_stack([x, y]), names=("X", "Y"))
        matrix = pairwise_regime_matrix(panel, np.zeros(600, dtype=int),
                                        L_max=4)
        path = tmp_path / "granger.csv"
        granger_results_to_csv(matrix.results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("source,target,regime,lag,f_stat,p_value,"
                            "n_obs,r2_increment,significant")
        assert len(lines) == 1 + len(matrix.results)
        fields = lines[1].split(",")
        assert fields[0] in ("X", "Y")
        float(fields[4])
        assert "e" in fields[5]  # scientific notation for p
        assert fields[8] in ("True", "False")


def masked_rows(mask, L):
    sel = np.flatnonzero(mask)
    return sel[sel >= L]


def assert_f_matches(got, want):
    """(F, p-value, R^2 increment) against the SVD reference."""
    f_stat, p_value, r2 = got
    ref_f, ref_p, ref_r2 = want
    assert abs(f_stat - ref_f) <= 1e-9 * max(ref_f, 1.0)
    assert p_value == pytest.approx(ref_p, rel=1e-9)
    assert r2 == pytest.approx(ref_r2, rel=1e-9, abs=1e-15)


def mask_builder_for(kind, rng, T):
    """A nested mask builder: lag-complete regime masks, or one fixed mask
    whose rows below L_max are in use."""
    if kind == "regime":
        labels = np.cumsum(rng.random(T) < rng.uniform(0.01, 0.2)) % 2
        return lambda L: regime_lag_mask(labels, 1, L)
    if kind == "fixed":
        fixed = rng.random(T) < rng.uniform(0.3, 1.0)
        return lambda L: fixed
    return lambda L: np.ones(T, dtype=bool)


def outcome(fn, *args):
    """The error type and text fn raises, or None."""
    try:
        fn(*args)
    except (SampleSizeError, DegenerateDesignError) as exc:
        return type(exc), str(exc)
    return None


class TestCoreMatchesLstsq:
    """The nested-QR core against the SVD two-fit reference in conftest."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["regime", "fixed", "full"]),
           T=st.integers(20, 400), L_max=st.integers(1, 12))
    def test_every_lag_on_nested_masks(self, seed, kind, T, L_max):
        rng = np.random.default_rng(seed)
        y, x = rng.standard_normal(T), rng.standard_normal(T)
        y[2:] += 0.3 * x[:-2]
        builder = mask_builder_for(kind, rng, T)
        depth = _lag_depth(builder, L_max, T)
        (fits,) = _lag_fits(np.column_stack([y, x]), np.arange(T), depth,
                            range(1, L_max + 1), [(0, 1)])
        table = _bic_rows(_lag_search(y, x, builder, L_max))
        ref = lstsq_bic_table(y, x, builder, L_max)
        assert len(table) == len(ref) == L_max
        for row, want in zip(table, ref):
            assert [row[key] for key in ("lag", "n_obs", "error")] == \
                [want[key] for key in ("lag", "n_obs", "error")]
            if want["bic"] is None:
                assert row["bic"] is None
                continue
            assert row["bic"] == pytest.approx(want["bic"], rel=1e-9, abs=1e-9)
            L = row["lag"]
            Y, _, X_u = reference_design(y, x, L, masked_rows(builder(L), L))
            want_f = lstsq_nested_f(Y, X_u, L)
            for res in (_granger_result(fits[L], L),
                        granger_f_test(y, x, L, builder(L))):
                assert_f_matches((res.f_stat, res.p_value, res.r2_increment),
                                 want_f)
        feasible = [(r["bic"], r["lag"]) for r in ref if r["bic"] is not None]
        if feasible:
            assert select_lag_bic(y, x, builder, L_max)[0] == min(feasible)[1]

    def test_pairwise_matrix_matches_reference(self):
        rng = np.random.default_rng(31)
        T, d, L_max = 1500, 3, 8
        X = rng.standard_normal((T, d))
        X[2:, 1] += 0.4 * X[:-2, 0]
        labels = np.cumsum(rng.random(T) < 0.02) % 3
        matrix = pairwise_regime_matrix(make_panel(X), labels, L_max=L_max)
        got = {(r.source, r.target, r.regime): r for r in matrix.results}
        failed = {(f.source, f.target, f.regime) for f in matrix.failures}
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                for k in range(3):
                    key = (f"F{i}", f"F{j}", k)
                    y, x = X[:, j], X[:, i]
                    builder = lambda L, k=k: regime_lag_mask(labels, k, L)
                    ref = lstsq_bic_table(y, x, builder, L_max)
                    feasible = [(r["bic"], r["lag"]) for r in ref
                                if r["bic"] is not None]
                    if not feasible:
                        assert key in failed
                        continue
                    L = min(feasible)[1]
                    Y, _, X_u = reference_design(y, x, L,
                                                 masked_rows(builder(L), L))
                    res = got[key]
                    assert (res.lag, res.n_obs) == (L, Y.size)
                    assert_f_matches((res.f_stat, res.p_value, res.r2_increment),
                                     lstsq_nested_f(Y, X_u, L))
        assert len(got) + len(failed) == d * (d - 1) * 3

    def test_six_series_every_lag_level_matches_reference(self):
        """d=6 at L_max=15 on a regime of short runs, so every lag level
        folds rows on its own leading columns: each (pair, lag) fit equals
        the explicit two-series design's SVD fits."""
        rng = np.random.default_rng(33)
        runs = rng.integers(1, 41, 160)
        labels = np.repeat(np.arange(runs.size) % 2, runs)
        T, d, L_max = labels.size, 6, 15
        X = rng.standard_normal((T, d)) * rng.uniform(0.5, 2.0, d)
        X[2:, 1] += 0.4 * X[:-2, 2]
        depth = _lag_depth(lambda L: regime_lag_mask(labels, 1, L), L_max, T)
        assert set(depth[depth > 0]) == set(range(1, L_max + 1))
        pairs = [(j, i) for i in range(d) for j in range(d) if i != j]
        fits = _lag_fits(X, np.arange(T), depth, range(1, L_max + 1), pairs)
        for (j, i), fit in zip(pairs, fits):
            for L in range(1, L_max + 1):
                Y, X_r, X_u = reference_design(
                    X[:, j], X[:, i], L, masked_rows(regime_lag_mask(labels, 1, L), L))
                n, rss_u, gain, tss = fit[L]
                want_u, want_tss = lstsq_unrestricted_fit(Y, X_u)
                assert n == Y.size
                assert rss_u == pytest.approx(want_u, rel=1e-9)
                assert tss == pytest.approx(want_tss, rel=1e-9)
                assert gain == pytest.approx(lstsq_rss(X_r, Y)[0] - want_u,
                                             rel=1e-7, abs=1e-9 * want_u)

    def test_duplicated_rows(self):
        rng = np.random.default_rng(32)
        y, x = rng.standard_normal(300), rng.standard_normal(300)
        y[1:] += 0.2 * x[:-1]
        rows = np.concatenate([np.arange(10, 80), np.arange(50, 120),
                               np.arange(50, 120), np.arange(200, 260)])
        res = _granger_result(_fixed_lag_fit(y, x, rows, 4), 4)
        ref_Y, _, ref_X_u = reference_design(y, x, 4, rows)
        assert_f_matches((res.f_stat, res.p_value, res.r2_increment),
                         lstsq_nested_f(ref_Y, ref_X_u, 4))

    @pytest.mark.parametrize("case", ["zero_regressor", "constant_regressor",
                                      "constant_response", "exact_fit"])
    def test_degenerate_designs_raise_reference_errors(self, case):
        rng = np.random.default_rng(40)
        T = 200
        y, x = rng.standard_normal(T), rng.standard_normal(T)
        mask, L = np.ones(T, dtype=bool), 2
        if case == "zero_regressor":
            x = np.zeros(T)
        elif case == "constant_regressor":
            x = np.full(T, 3.0)
        else:
            # the response is constant on the even days the mask keeps,
            # while its lag-1 values on odd days are not
            mask, L = np.arange(T) % 2 == 0, 1
            y[mask] = 1.0 if case == "constant_response" else 0.0
        Y, _, X_u = reference_design(y, x, L, masked_rows(mask, L))
        want = outcome(lstsq_nested_f, Y, X_u, L)
        assert want is not None
        assert outcome(granger_f_test, y, x, L, mask) == want
        # the lag search records the reference's error at every lag
        builder = lambda _: mask
        table = _bic_rows(_lag_search(y, x, builder, 4))
        assert [row["error"] for row in table] == \
            [row["error"] for row in lstsq_bic_table(y, x, builder, 4)]

    def test_near_constant_response_is_degenerate(self):
        # y = 0.37 on the kept even days is constant only up to rounding:
        # its centred sum of squares is about 1e-31, and an F from it
        # would be rounding noise
        rng = np.random.default_rng(40)
        T = 200
        y, x = rng.standard_normal(T), rng.standard_normal(T)
        mask = np.arange(T) % 2 == 0
        y[mask] = 0.37
        with pytest.raises(DegenerateDesignError,
                           match="response is constant on the selected rows"):
            granger_f_test(y, x, 1, mask)
        table = _bic_rows(_lag_search(y, x, lambda _: mask, 4))
        assert table[0]["error"] == "response is constant on the selected rows"
        assert all(row["bic"] is None for row in table)
        # with no lag feasible, the lag search names the degenerate lag
        with pytest.raises(DegenerateDesignError,
                           match=r"no feasible lag in 1\.\.4; lag 1: response "
                                 r"is constant on the selected rows"):
            select_lag_bic(y, x, lambda _: mask, 4)


def fit_outcomes(fits):
    """_lag_fits' result with each error as its type and text."""
    return [{L: (type(fit), str(fit)) if isinstance(fit, Exception) else fit
             for L, fit in per_pair.items()} for per_pair in fits]


class TestRankCertificate:
    """`_lag_fits` with the rank certificate against the same fits with an
    SVD at every lag (the conftest oracle): equal fits, bit for bit, and
    equal errors, with the SVDs the certificate could not spare counted."""

    def fits_and_fallbacks(self, monkeypatch, series, depth, L_max):
        """Both ways' outcomes over every ordered pair, and the number of
        matrices the certificate's run sent to an SVD below L_max."""
        lags = range(1, L_max + 1)
        m = series.shape[1]
        pairs = [(j, i) for i in range(m) for j in range(m) if i != j]
        rows = np.arange(series.shape[0])
        svd, below = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            below.append(a.shape[0] if a.shape[-1] < 2 * L_max + 1 else 0)
            return svd(a, *args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counted)
            got = fit_outcomes(_lag_fits(series, rows, depth, lags, pairs))
        with monkeypatch.context() as patch:
            patch.setattr(granger, "_ranks", reference_svd_ranks)
            want = fit_outcomes(_lag_fits(series, rows, depth, lags, pairs))
        assert got == want
        return want, sum(below)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_designs_need_no_svd_below_l_max(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        T, L_max = 600, 8
        series = rng.standard_normal((T, 3)) * rng.uniform(0.1, 10.0, 3)
        labels = np.cumsum(rng.random(T) < 0.02) % 2
        depth = _lag_depth(lambda L: regime_lag_mask(labels, 0, L), L_max, T)
        fits, fallbacks = self.fits_and_fallbacks(monkeypatch, series, depth,
                                                  L_max)
        assert not any(isinstance(f[0], type) for fit in fits for f in fit.values())
        assert fallbacks == 0

    @pytest.mark.parametrize("case", ["constant", "duplicate", "1e-08", "1e-10",
                                      "1e-12", "1e-14"])
    def test_degenerate_and_near_collinear_series(self, monkeypatch, case):
        rng = np.random.default_rng(7)
        T, L_max = 400, 6
        series = rng.standard_normal((T, 3))
        if case == "constant":
            series[:, 1] = 2.5
        elif case == "duplicate":
            series[:, 1] = series[:, 0]
        else:
            series[:, 1] = series[:, 0] + float(case) * rng.standard_normal(T)
        fits, fallbacks = self.fits_and_fallbacks(
            monkeypatch, series, np.minimum(np.arange(T), L_max), L_max)
        assert fallbacks > 0
        if case in ("constant", "duplicate", "1e-14"):
            assert any(f[0] is DegenerateDesignError
                       and f[1].startswith("unrestricted design rank")
                       for fit in fits for f in fit.values())

    def test_regime_too_short_at_l_max(self, monkeypatch):
        rng = np.random.default_rng(8)
        T, L_max = 500, 12
        series = rng.standard_normal((T, 3))
        # runs of 13 or 14 days: few rows are lag-12 complete, many lag-2
        labels = np.zeros(T, dtype=int)
        for start in range(0, T - 20, 40):
            labels[start:start + rng.integers(13, 15)] = 1
        depth = _lag_depth(lambda L: regime_lag_mask(labels, 1, L), L_max, T)
        fits, fallbacks = self.fits_and_fallbacks(monkeypatch, series, depth,
                                                  L_max)
        assert fits[0][L_max][0] is SampleSizeError
        assert isinstance(fits[0][1][0], int)  # a fit, (n_obs, ...)
        assert fallbacks > 0

    def test_paper_shaped_matrix_needs_no_svd_below_l_max(
            self, monkeypatch, synthetic_3regime):
        """On a paper-shaped panel every regime with enough rows at L_max
        gets its lower lags' ranks from the certificate alone, and every
        regime's fits are the oracle's."""
        panel, labels = synthetic_3regime
        L_max = 15
        feasible = []
        for k in np.unique(labels):
            depth = _lag_depth(lambda L: regime_lag_mask(labels, k, L), L_max,
                               panel.n_days)
            fits, fallbacks = self.fits_and_fallbacks(
                monkeypatch, panel.returns, depth, L_max)
            if not isinstance(fits[0][L_max][0], type):
                feasible.append(k)
                assert fallbacks == 0
        assert feasible == [0, 1]  # the crisis regime's runs are short


GRANGER_DETERMINISM_SCRIPT = """
import io, sys
from factorregimes import (SyntheticSpec, generate, granger_results_to_csv,
                           pairwise_regime_matrix)
sys.path.insert(0, sys.argv[1])
from conftest import table1_like_params

panel, labels = generate(SyntheticSpec(hmm=table1_like_params(6), T=3000, seed=404))
matrix = pairwise_regime_matrix(panel, labels, 15)
buf = io.StringIO()
granger_results_to_csv(matrix.results, buf)
print(buf.getvalue(), end="")
print(matrix.failures)
"""


def test_matrix_csv_identical_across_blas_thread_counts():
    """The pairwise matrix CSV is byte-identical with one and two BLAS
    threads."""
    src = os.path.dirname(os.path.dirname(factorregimes.__file__))
    here = os.path.dirname(__file__)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-c", GRANGER_DETERMINISM_SCRIPT, here],
                             env=env, capture_output=True, text=True, check=True)
        outputs.append(res.stdout)
    assert outputs[0].count("\n") > 30
    assert outputs[0] == outputs[1]


def all_rows(n):
    return lambda L: np.ones(n, dtype=bool)


@pytest.mark.parametrize("call, message", [
    (lambda: regime_lag_mask(np.zeros(5, dtype=int), 0, 0), "L must be >= 1"),
    pytest.param(lambda: select_lag_bic(np.zeros(50), np.zeros(50), all_rows(49), 3),
                 "mask_builder(1) must align with the panel rows: 49 mask_builder(1) "
                 "for 50 days", id="short mask_builder mask"),
    pytest.param(lambda: select_lag_bic(np.zeros(50), np.zeros(49), all_rows(50), 3),
                 "x must align with the panel rows: 49 x for 50 days", id="short x"),
    pytest.param(lambda: granger_f_test(np.zeros(50), np.zeros(50), 2,
                                        np.ones(49, dtype=bool)),
                 "mask must align with the panel rows: 49 mask for 50 days",
                 id="short mask"),
    (lambda: select_lag_bic(np.zeros(50), np.zeros(50), all_rows(50), 0),
     "L_max must be >= 1"),
    (lambda: pairwise_regime_matrix(make_panel(np.zeros((50, 2))),
                                    np.zeros(50, dtype=int), L_max=0),
     "L_max must be >= 1"),
    (lambda: pairwise_regime_matrix(make_panel(np.zeros((50, 1))),
                                    np.zeros(50, dtype=int)),
     "need at least two factors for pairwise tests"),
])
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_column_of_labels_rejected_before_any_mask_is_built():
    """A (T, 1) label column is refused by the panel's one series rule.
    It used to pass the length check and broadcast against the day index
    into a (T, T) mask, about 144 MB at T=3000, before a length error."""
    T = 3000
    panel = make_panel(np.random.default_rng(30).standard_normal((T, 2)))
    labels = np.zeros((T, 1), dtype=int)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^labels must be one-dimensional, "
                                             r"got shape \(3000, 1\)$"):
            pairwise_regime_matrix(panel, labels, L_max=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
