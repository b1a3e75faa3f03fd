"""Synthetic panel generator: chain law, emissions, cross-lag injection."""

import hashlib
import re

import numpy as np
import pytest

from factorregimes import (
    CrossLagSpec,
    FitConfig,
    HmmParams,
    SyntheticSpec,
    em_fit,
    generate,
    granger_f_test,
    label_accuracy,
)
from factorregimes.synthgen import _next_states

from conftest import table1_like_params


def one_state(d=1, nu=5.0, family="student_t"):
    return HmmParams(
        pi=[1.0], A=[[1.0]], mu=[[0.0] * d], Sigma=[np.eye(d).tolist()],
        nu=None if family == "gaussian" else [nu], family=family,
    )


class TestChain:
    def test_absorbing_transitions_freeze_state(self):
        params = HmmParams(
            pi=[0.0, 1.0], A=np.eye(2), mu=[[0.0], [3.0]],
            Sigma=[[[1.0]], [[1.0]]], nu=[5.0, 5.0],
        )
        _, labels = generate(SyntheticSpec(hmm=params, T=200, seed=1))
        np.testing.assert_array_equal(labels, 1)

    def test_transition_frequencies_match_A(self):
        A = np.array([[0.9, 0.1], [0.3, 0.7]])
        params = HmmParams(
            pi=[0.5, 0.5], A=A, mu=[[0.0], [0.0]],
            Sigma=[[[1.0]], [[1.0]]], nu=[5.0, 5.0],
        )
        _, labels = generate(SyntheticSpec(hmm=params, T=100_000, seed=2))
        for i in range(2):
            rows = np.flatnonzero(labels[:-1] == i)
            freq = np.mean(labels[rows + 1] == 1)
            assert abs(freq - A[i, 1]) < 0.02

    def test_initial_distribution_used(self):
        params = HmmParams(
            pi=[1.0, 0.0], A=[[0.5, 0.5], [0.5, 0.5]], mu=[[0.0], [0.0]],
            Sigma=[[[1.0]], [[1.0]]], nu=[5.0, 5.0],
        )
        for seed in range(5):
            _, labels = generate(SyntheticSpec(hmm=params, T=10, seed=seed))
            assert labels[0] == 0


    def test_next_states_match_searchsorted(self):
        rng = np.random.default_rng(6)
        A = rng.dirichlet(np.ones(4), size=4)
        A[1] = [0.25, 0.0, 0.5, 0.25]
        cum = np.cumsum(A, axis=1)
        # draws that land exactly on a cumulative sum take the right side
        u = np.concatenate([rng.random(500), cum[:, :3].ravel()])
        expected = np.array([[np.searchsorted(row, x, side="right") for row in cum]
                             for x in u])
        np.testing.assert_array_equal(_next_states(cum, u), expected)

    def test_draw_past_a_short_row_stays_in_range(self):
        """A row may sum to 1 - 1e-12; a draw above its last cumulative
        sum goes to the last state, not one past it."""
        cum = np.cumsum([[0.5, 0.5 - 1e-12], [0.3, 0.7]], axis=1)
        u = np.array([0.25, 0.5, 1.0 - 1e-13])
        np.testing.assert_array_equal(_next_states(cum, u),
                                      [[0, 0], [1, 1], [1, 1]])


class TestEmissions:
    def test_per_regime_means_recovered(self):
        params = table1_like_params(3)
        panel, labels = generate(SyntheticSpec(hmm=params, T=20_000, seed=3))
        for k in range(3):
            idx = labels == k
            n = int(idx.sum())
            X = panel.returns[idx]
            se = X.std(axis=0, ddof=1) / np.sqrt(n)
            assert np.all(np.abs(X.mean(axis=0) - params.mu[k]) < 4 * se)

    def test_gaussian_family_kurtosis_near_zero(self):
        panel, _ = generate(SyntheticSpec(hmm=one_state(family="gaussian"),
                                          T=50_000, seed=4))
        x = panel.returns[:, 0]
        z = (x - x.mean()) / x.std()
        excess = np.mean(z**4) - 3.0
        assert abs(excess) < 0.15

    def test_student_t_heavier_tailed(self):
        panel, _ = generate(SyntheticSpec(hmm=one_state(nu=4.0),
                                          T=50_000, seed=5))
        x = panel.returns[:, 0]
        z = (x - x.mean()) / x.std()
        excess = np.mean(z**4) - 3.0
        assert excess > 1.0  # infinite in theory at nu=4, large in sample

    def test_scale_matrix_respected(self):
        params = HmmParams(
            pi=[1.0], A=[[1.0]], mu=[[0.0, 0.0]],
            Sigma=[[[2.0, 1.2], [1.2, 1.0]]], nu=[40.0],
        )
        panel, _ = generate(SyntheticSpec(hmm=params, T=100_000, seed=6))
        # for student-t, cov = Sigma * nu/(nu-2)
        cov = np.cov(panel.returns.T)
        expected = np.array([[2.0, 1.2], [1.2, 1.0]]) * 40.0 / 38.0
        assert np.all(np.abs(cov - expected) < 0.05)

    def test_dates_are_business_days(self):
        panel, _ = generate(SyntheticSpec(hmm=one_state(), T=50, seed=7))
        assert panel.n_days == 50
        assert np.all(np.is_busday(panel.dates))
        assert np.all(np.diff(panel.dates) > np.timedelta64(0, "D"))


class TestReproducibility:
    def test_same_seed_bitwise_equal(self):
        spec = SyntheticSpec(hmm=table1_like_params(2), T=500, seed=11)
        p1, l1 = generate(spec)
        p2, l2 = generate(spec)
        np.testing.assert_array_equal(p1.returns, p2.returns)
        np.testing.assert_array_equal(l1, l2)

    def test_benchmark_shaped_panel_pinned(self):
        """The digest of a T=8817, d=6, K=3 panel with a planted lag, as
        the per-day searchsorted chain and cross-lag loop produced it."""
        panel, labels = generate(SyntheticSpec(
            hmm=table1_like_params(6), T=8817, seed=2024,
            cross_lag=CrossLagSpec(source=2, target=1, regime=2, lag=2,
                                   coefficient=0.4)))
        h = hashlib.sha256()
        for a in (panel.returns.astype("<f8"), labels.astype("<i8"),
                  panel.dates.astype("<i8")):
            h.update(a.tobytes())
        assert h.hexdigest() == (
            "be34dd56022b59b6d6f0a4e14050d67d7f5cf08482dcf2d51f64d933e8787830")

    def test_different_seed_differs(self):
        params = table1_like_params(2)
        p1, _ = generate(SyntheticSpec(hmm=params, T=500, seed=11))
        p2, _ = generate(SyntheticSpec(hmm=params, T=500, seed=12))
        assert not np.array_equal(p1.returns, p2.returns)


class TestCrossLag:
    def test_injection_detected_by_f_test(self):
        params = HmmParams(
            pi=[1.0], A=[[1.0]], mu=[[0.0, 0.0]],
            Sigma=[np.eye(2).tolist()], nu=None, family="gaussian",
        )
        spec = SyntheticSpec(
            hmm=params, T=5000, seed=13,
            cross_lag=CrossLagSpec(source=0, target=1, regime=0, lag=2,
                                   coefficient=0.5),
        )
        panel, _ = generate(spec)
        y = panel.returns[:, 1]
        x = panel.returns[:, 0]
        res = granger_f_test(y, x, 4, np.ones(5000, dtype=bool))
        assert res.p_value < 1e-4
        rev = granger_f_test(x, y, 4, np.ones(5000, dtype=bool))
        assert rev.p_value > 1e-4

    def test_injection_only_in_named_regime(self):
        params = HmmParams(
            pi=[0.5, 0.5],
            A=[[0.95, 0.05], [0.05, 0.95]],
            mu=[[0.0, 0.0], [0.0, 0.0]],
            Sigma=[np.eye(2).tolist(), np.eye(2).tolist()],
            nu=None, family="gaussian",
        )
        spec = SyntheticSpec(
            hmm=params, T=20_000, seed=14,
            cross_lag=CrossLagSpec(source=0, target=1, regime=1, lag=1,
                                   coefficient=0.6),
        )
        panel, labels = generate(spec)
        y = panel.returns[:, 1]
        x = panel.returns[:, 0]
        from factorregimes import regime_lag_mask

        hit = granger_f_test(y, x, 2, regime_lag_mask(labels, 1, 2))
        miss = granger_f_test(y, x, 2, regime_lag_mask(labels, 0, 2))
        assert hit.p_value < 1e-6
        assert miss.p_value > 1e-3

    def test_same_column_injection_is_sequential(self):
        """With source == target, each day adds the already-injected value
        `lag` days back, exactly as a per-day loop does."""
        params = table1_like_params(3)
        plain, labels = generate(SyntheticSpec(hmm=params, T=3000, seed=15))
        cl = CrossLagSpec(source=1, target=1, regime=2, lag=1, coefficient=0.7)
        panel, same = generate(SyntheticSpec(hmm=params, T=3000, seed=15,
                                             cross_lag=cl))
        np.testing.assert_array_equal(same, labels)
        X = plain.returns.copy()
        for t in range(cl.lag, len(X)):
            if labels[t] == cl.regime:
                X[t, cl.target] += cl.coefficient * X[t - cl.lag, cl.source]
        assert np.sum((labels[1:] == 2) & (labels[:-1] == 2)) > 100
        np.testing.assert_array_equal(panel.returns, X)

    @pytest.mark.parametrize("field,value", [("source", 3), ("target", -1),
                                             ("regime", 3), ("regime", -1)])
    def test_spec_outside_the_model_rejected(self, field, value):
        cl = dict(source=2, target=1, regime=2, lag=2, coefficient=0.4)
        cl[field] = value
        with pytest.raises(ValueError, match=f"cross-lag .*{field}"):
            SyntheticSpec(hmm=table1_like_params(3), T=100, seed=1,
                          cross_lag=CrossLagSpec(**cl))

    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            CrossLagSpec(source=0, target=1, regime=0, lag=0,
                         coefficient=0.5)


class TestLabelAccuracy:
    def test_perfect_match(self):
        labels = np.array([0, 1, 2, 1, 0])
        assert label_accuracy(labels, labels, 3) == 1.0

    def test_permutation_invariance(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert label_accuracy(permuted, truth, 3) == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(15)
        truth = rng.integers(0, 3, 30_000)
        guess = rng.integers(0, 3, 30_000)
        acc = label_accuracy(guess, truth, 3)
        assert 0.30 < acc < 0.37  # best permutation of chance labels

    @pytest.mark.parametrize("label", [3, -1])
    def test_label_outside_range_rejected(self, label):
        estimated = np.array([0, 1, label, 2])
        with pytest.raises(ValueError,
                           match=rf"^estimated label {label} is outside \[0, 3\)$"):
            label_accuracy(estimated, np.array([0, 1, 2, 2]), 3)

    def test_true_label_outside_range_rejected(self):
        with pytest.raises(ValueError, match=r"^true label 5 is outside \[0, 2\)$"):
            label_accuracy([0, 1], [0, 5], 2)


class TestEndToEndRecovery:
    def test_em_recovers_generated_panel(self):
        params = table1_like_params(2)
        panel, truth = generate(SyntheticSpec(hmm=params, T=4000, seed=16))
        fit = em_fit(panel, 3, "student_t",
                     FitConfig(seed=16, n_restarts=3))
        from factorregimes import order_regimes

        fit = order_regimes(fit, panel)
        assert label_accuracy(fit.labels, truth, 3) >= 0.90


@pytest.mark.parametrize("call, message", [
    (lambda: CrossLagSpec(source=0, target=1, regime=0, lag=1, coefficient=np.nan),
     "coefficient must be finite"),
    (lambda: SyntheticSpec(hmm=one_state(), T=0, seed=1), "T must be >= 1"),
    (lambda: label_accuracy(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2),
     "label series must have equal length"),
    (lambda: label_accuracy(np.zeros(3, dtype=int), np.zeros(3, dtype=int), 7),
     "exhaustive permutation search supports K <= 6"),
])
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
