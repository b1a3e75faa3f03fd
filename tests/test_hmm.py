"""HMM emissions, forward-backward, EM, model selection, persistence."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from factorregimes import (
    EstimationError,
    FactorPanel,
    FitConfig,
    HmmParams,
    SampleSizeError,
    SchemaError,
    SyntheticSpec,
    decode,
    em_fit,
    forward_backward,
    generate,
    label_accuracy,
    load_model,
    order_regimes,
    save_model,
    select_k,
)
import factorregimes
from factorregimes import hmm
from factorregimes.hmm import (
    _emission_terms,
    _forward_backward_core,
    _initial_params,
    _m_step,
    n_free_params,
    solve_nu,
)

from conftest import reference_emission_terms, table1_like_params

# offline oracle: direct evaluation of the closed-form density,
# cross-checked against an independent statistics library
T_LOG_DENSITY_D2_NU4 = -3.0542723907338386


def toy_panel(X, start="2015-01-05"):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dates = np.busday_offset(start, np.arange(X.shape[0])).astype("datetime64[D]")
    names = tuple(f"F{i}" for i in range(X.shape[1]))
    return FactorPanel(dates, X, names)


def loop_forward_backward(pi, A, logB):
    """Reference scaled forward-backward: plain Python, one day at a time.

    alpha_t is normalized by c_t = sum_k (alpha_{t-1} A)_k b~_tk and beta
    is divided by the same c_t, the textbook recursions that the scan in
    hmm._forward_backward_core must reproduce. Returns (loglik, gamma,
    xi_sum).
    """
    T, K = logB.shape
    m = logB.max(axis=1)
    btil = np.exp(logB - m[:, None])
    alpha = np.empty((T, K))
    c = np.empty(T)
    for t in range(T):
        for k in range(K):
            if t == 0:
                acc = pi[k]
            else:
                acc = 0.0
                for j in range(K):
                    acc += alpha[t - 1, j] * A[j, k]
            alpha[t, k] = acc * btil[t, k]
        c[t] = alpha[t].sum()
        if c[t] > 0.0:
            alpha[t] /= c[t]
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise EstimationError("forward recursion produced a zero or non-finite scale")
    beta = np.ones((T, K))
    for t in range(T - 2, -1, -1):
        for j in range(K):
            acc = 0.0
            for k in range(K):
                acc += A[j, k] * btil[t + 1, k] * beta[t + 1, k]
            beta[t, j] = acc / c[t + 1]
    loglik = float(np.sum(np.log(c)) + np.sum(m))
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    xi_sum = np.zeros((K, K))
    if T > 1:
        xi_sum = A * (alpha[:-1].T @ (btil[1:] * beta[1:] / c[1:, None]))
    return loglik, gamma, xi_sum


def assert_matches_loop(pi, A, logB):
    ll, gamma, xi_sum = _forward_backward_core(np.asarray(pi), np.asarray(A), logB)
    ref_ll, ref_gamma, ref_xi = loop_forward_backward(np.asarray(pi), np.asarray(A), logB)
    assert ll == pytest.approx(ref_ll, rel=1e-10)
    np.testing.assert_allclose(gamma, ref_gamma, rtol=0, atol=1e-12)
    np.testing.assert_allclose(xi_sum, ref_xi, rtol=1e-12, atol=1e-12)


def two_state_params(d=1):
    return HmmParams(
        pi=np.array([0.6, 0.4]),
        A=np.array([[0.9, 0.1], [0.2, 0.8]]),
        mu=np.array([[0.0] * d, [1.5] * d]),
        Sigma=np.stack([np.eye(d), np.eye(d) * 2.0]),
        nu=np.array([8.0, 4.0]),
    )


class TestTLogpdf:
    def test_at_center_only_constant_term(self):
        mu = np.array([0.3, -0.2])
        Sigma = np.array([[1.2, 0.3], [0.3, 0.9]])
        nu = 6.0
        d = 2
        logdet = math.log(np.linalg.det(Sigma))
        from factorregimes import log_gamma

        expected = (log_gamma((nu + d) / 2) - log_gamma(nu / 2)
                    - d / 2 * math.log(nu * math.pi) - 0.5 * logdet)
        logB, _ = _emission_terms(mu[None], mu[None], Sigma[None],
                                  np.array([nu]), "student_t")
        assert logB[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_gaussian_limit(self):
        logB, _ = _emission_terms(np.zeros((1, 1)), np.zeros((1, 1)),
                                  np.ones((1, 1, 1)), np.array([1e6]),
                                  "student_t")
        assert logB[0, 0] == pytest.approx(-0.9189385332046727, abs=1e-4)

    def test_frozen_point(self):
        logB, _ = _emission_terms(np.ones((1, 2)), np.zeros((1, 2)),
                                  np.eye(2)[None], np.array([4.0]), "student_t")
        assert logB[0, 0] == pytest.approx(T_LOG_DENSITY_D2_NU4, abs=1e-12)

    def test_density_integrates_to_one(self):
        """Quadrature normalization over a fine 2-d grid."""
        nu = 4.0
        xs = np.linspace(-60, 60, 2401)
        step = xs[1] - xs[0]
        gx, gy = np.meshgrid(xs, xs)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        logB, _ = _emission_terms(pts, np.zeros((1, 2)), np.eye(2)[None],
                                  np.array([nu]), "student_t")
        mass = np.exp(logB[:, 0]).sum() * step * step
        assert mass == pytest.approx(1.0, abs=2e-3)

    def test_non_spd_scale_rejected(self):
        with pytest.raises(EstimationError,
                           match=r"^Sigma\[1\] lost positive definiteness$"):
            _emission_terms(np.zeros((1, 2)), np.zeros((2, 2)),
                            np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]),
                            np.array([5.0, 5.0]), "student_t")


def random_scales(rng, K, d):
    """K random SPD scale matrices; regime 0's has condition number 1e8
    when d >= 2, the others at most 1e2."""
    Sigma = np.empty((K, d, d))
    for k in range(K):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        top = 8.0 if k == 0 else rng.uniform(0.0, 2.0)
        S = (Q * (np.logspace(0.0, top, d) * rng.uniform(0.1, 2.0))) @ Q.T
        Sigma[k] = 0.5 * (S + S.T)
    return Sigma


@pytest.mark.parametrize("family", hmm.FAMILIES)
@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("K", range(1, 5))
def test_emission_terms_match_the_solve_reference(family, d, K):
    """The inverse-factor Mahalanobis term gives the densities and
    distances of the triangular solve it replaced, also for an
    ill-conditioned scale."""
    rng = np.random.default_rng([d, K])
    Sigma = random_scales(rng, K, d)
    if d >= 2:
        assert np.linalg.cond(Sigma[0]) == pytest.approx(1e8, rel=1e-3)
    mu = rng.standard_normal((K, d))
    nu = rng.uniform(2.5, 30.0, K) if family == "student_t" else None
    X = 2.0 * rng.standard_normal((300, d))
    logB, delta = _emission_terms(X, mu, Sigma, nu, family)
    ref_logB, ref_delta = reference_emission_terms(X, mu, Sigma, nu, family)
    np.testing.assert_allclose(logB, ref_logB, rtol=1e-12, atol=0)
    np.testing.assert_allclose(delta, ref_delta, rtol=1e-12, atol=0)


class TestForwardBackward:
    def test_single_state_degenerate(self):
        p = HmmParams(pi=[1.0], A=[[1.0]], mu=[[0.0]], Sigma=[[[1.0]]],
                      nu=[5.0])
        panel = toy_panel([[0.3], [-0.1], [0.8]])
        ll, gamma, xi = forward_backward(p, panel)
        np.testing.assert_allclose(gamma, 1.0)
        logB, _ = _emission_terms(panel.returns, np.zeros((1, 1)),
                                  np.ones((1, 1, 1)), np.array([5.0]),
                                  "student_t")
        assert ll == pytest.approx(logB.sum(), abs=1e-10)

    def test_absorbing_start(self):
        p = HmmParams(pi=[1.0, 0.0], A=np.eye(2),
                      mu=[[0.0], [2.0]], Sigma=[[[1.0]], [[1.0]]],
                      nu=[5.0, 5.0])
        panel = toy_panel([[2.1], [1.9], [2.2]])  # emissions favor state 1
        _, gamma, _ = forward_backward(p, panel)
        np.testing.assert_allclose(gamma[:, 0], 1.0, atol=1e-12)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(77)
        p = two_state_params()
        X = rng.normal(0.5, 1.2, (5, 1))
        panel = toy_panel(X)
        ll, gamma, xi_sum = forward_backward(p, panel)

        logB, _ = _emission_terms(panel.returns, p.mu, p.Sigma, p.nu,
                                  "student_t")
        B = np.exp(logB)
        total = 0.0
        post = np.zeros((5, 2))
        xi = np.zeros((2, 2))
        for path in itertools.product(range(2), repeat=5):
            prob = p.pi[path[0]] * B[0, path[0]]
            for t in range(1, 5):
                prob *= p.A[path[t - 1], path[t]] * B[t, path[t]]
            total += prob
            for t in range(5):
                post[t, path[t]] += prob
            for t in range(4):
                xi[path[t], path[t + 1]] += prob
        assert ll == pytest.approx(math.log(total), abs=1e-9)
        np.testing.assert_allclose(gamma, post / total, atol=1e-9)
        np.testing.assert_allclose(xi_sum, xi / total, atol=1e-9)

    def test_gamma_rows_and_xi_consistency(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        p = table1_like_params(panel.n_factors)
        _, gamma, xi_sum = forward_backward(p, panel)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            xi_sum.sum(axis=1), gamma[:-1].sum(axis=0), atol=1e-6
        )

    def test_gaussian_is_large_nu_limit(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, (40, 2))
        panel = toy_panel(X)
        base = dict(pi=[0.5, 0.5], A=[[0.95, 0.05], [0.05, 0.95]],
                    mu=[[0.0, 0.0], [1.0, -1.0]],
                    Sigma=np.stack([np.eye(2), np.eye(2) * 1.5]))
        t_params = HmmParams(**base, nu=[1e6, 1e6], family="student_t")
        g_params = HmmParams(**base, nu=None, family="gaussian")
        ll_t, _, _ = forward_backward(t_params, panel)
        ll_g, _, _ = forward_backward(g_params, panel)
        assert ll_t == pytest.approx(ll_g, abs=1e-3)

    def test_dimension_mismatch_rejected(self):
        p = two_state_params(d=2)
        with pytest.raises(ValueError):
            forward_backward(p, toy_panel([[0.1], [0.2]]))


class TestScanMatchesLoop:
    """The batched scan against the day-by-day reference recursions."""

    @pytest.mark.parametrize("T", [1, 2, 3, 1000, 5000])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_random_models(self, K, T):
        rng = np.random.default_rng(1000 * K + T)
        pi = rng.dirichlet(np.ones(K))
        A = rng.dirichlet(np.full(K, 0.5), size=K)
        logB = rng.normal(0.0, 3.0, (T, K))
        assert_matches_loop(pi, A, logB)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_transition_matrix_with_zeros(self, K):
        rng = np.random.default_rng(K)
        # banded chain: state j can only stay or move to j+1 (mod K)
        A = np.zeros((K, K))
        for j in range(K):
            A[j, j] = 0.9
            A[j, (j + 1) % K] = 0.1
        pi = np.zeros(K)
        pi[0] = 1.0
        logB = rng.normal(0.0, 2.0, (1000, K))
        assert_matches_loop(pi, A, logB)

    def test_absorbing_start(self):
        # the chain starts in state 0 and can never leave, while the data
        # favour state 1 by one nat a day
        T = 200
        logB = np.column_stack([np.full(T, -2.0), np.full(T, -1.0)])
        assert_matches_loop([1.0, 0.0], np.eye(2), logB)

    def test_long_absorbing_start_is_exact(self):
        # 5000 days at a two-nat daily disadvantage put state 0's path
        # 1e4 nats below state 1's, far outside the double range
        T = 5000
        rng = np.random.default_rng(5)
        logB = np.column_stack([rng.normal(-3.0, 1.0, T), rng.normal(-1.0, 1.0, T)])
        ll, gamma, xi_sum = _forward_backward_core(
            np.array([1.0, 0.0]), np.eye(2), logB)
        assert ll == pytest.approx(logB[:, 0].sum(), rel=1e-12)
        np.testing.assert_array_equal(gamma[:, 0], 1.0)
        np.testing.assert_allclose(xi_sum, [[T - 1, 0.0], [0.0, 0.0]], atol=1e-9)

    def test_impossible_path_raises(self):
        # the chain must alternate 0 -> 1 but day 2 sits thousands of
        # standard deviations from regime 1: no path has positive density
        p = HmmParams(pi=[1.0, 0.0], A=[[0.0, 1.0], [1.0, 0.0]],
                      mu=[[0.0], [10.0]], Sigma=[[[1e-4]], [[1e-4]]],
                      nu=None, family="gaussian")
        panel = toy_panel([[0.0], [0.0], [0.0]])
        logB, _ = _emission_terms(panel.returns, p.mu, p.Sigma, None, "gaussian")
        with pytest.raises(EstimationError):
            loop_forward_backward(p.pi, p.A, logB)
        with pytest.raises(EstimationError):
            forward_backward(p, panel)


@st.composite
def hmm_inputs(draw):
    """(pi, A, logB) with strictly positive pi and A and log emission
    densities spread over 80 nats."""
    K = draw(st.integers(1, 4))
    T = draw(st.integers(1, 80))
    weights = st.floats(0.01, 1.0)
    pi = draw(hnp.arrays(float, K, elements=weights))
    A = draw(hnp.arrays(float, (K, K), elements=weights))
    logB = draw(hnp.arrays(float, (T, K), elements=st.floats(-60.0, 20.0)))
    return pi / pi.sum(), A / A.sum(axis=1, keepdims=True), logB


@settings(max_examples=200, deadline=None)
@given(hmm_inputs())
def test_posterior_marginals_are_consistent(inputs):
    """gamma rows sum to 1, and the rows and columns of xi_sum sum to the
    gamma marginals of the days each transition leaves and enters."""
    pi, A, logB = inputs
    _, gamma, xi_sum = _forward_backward_core(pi, A, logB)
    T = logB.shape[0]
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(xi_sum.sum(axis=1), gamma[:-1].sum(axis=0),
                               rtol=0, atol=1e-10 * T)
    np.testing.assert_allclose(xi_sum.sum(axis=0), gamma[1:].sum(axis=0),
                               rtol=0, atol=1e-10 * T)


@st.composite
def sparse_hmm_inputs(draw):
    """(pi, A, logB) where pi and the rows of A may hold zeros, each with
    at least one positive entry, so some states are unreachable or some
    paths impossible."""
    K = draw(st.integers(1, 4))
    T = draw(st.integers(1, 80))
    weights = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    pi = draw(hnp.arrays(float, K, elements=weights))
    A = draw(hnp.arrays(float, (K, K), elements=weights))
    pi[draw(st.integers(0, K - 1))] = draw(st.floats(0.01, 1.0))
    for i in range(K):
        A[i, draw(st.integers(0, K - 1))] = draw(st.floats(0.01, 1.0))
    logB = draw(hnp.arrays(float, (T, K), elements=st.floats(-60.0, 20.0)))
    return pi / pi.sum(), A / A.sum(axis=1, keepdims=True), logB


@settings(max_examples=200, deadline=None)
@given(sparse_hmm_inputs())
def test_sparse_chains_match_loop(inputs):
    """With zeros in pi and A the scan and the day-by-day recursions
    either both find no path of positive density or agree."""
    pi, A, logB = inputs
    try:
        loop_forward_backward(pi, A, logB)
    except EstimationError:
        with pytest.raises(EstimationError):
            _forward_backward_core(pi, A, logB)
        return
    assert_matches_loop(pi, A, logB)


DETERMINISM_SCRIPT = """
import hashlib, json, sys
import numpy as np
from factorregimes import FitConfig, em_fit, forward_backward, generate, SyntheticSpec
sys.path.insert(0, sys.argv[1])
from conftest import table1_like_params

params = table1_like_params(6)
panel, _ = generate(SyntheticSpec(hmm=params, T=3000, seed=404))
ll, gamma, xi_sum = forward_backward(params, panel)
fit = em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=1))
p = fit.params
h = lambda *arrays: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
print(json.dumps({"loglik": repr(ll), "gamma": h(gamma, xi_sum),
                  "fit_loglik": repr(fit.loglik), "fit_gamma": h(fit.gamma),
                  "params": h(p.pi, p.A, p.mu, p.Sigma, p.nu)}))
"""


def test_outputs_identical_across_blas_thread_counts():
    """Forward-backward and EM give byte-identical results with one and
    two BLAS threads."""
    src = os.path.dirname(os.path.dirname(factorregimes.__file__))
    here = os.path.dirname(__file__)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-c", DETERMINISM_SCRIPT, here],
                             env=env, capture_output=True, text=True, check=True)
        outputs.append(json.loads(res.stdout))
    assert outputs[0] == outputs[1]


class TestSolveNu:
    def test_gaussian_weights_pin_upper_bound(self):
        rng = np.random.default_rng(1)
        d = 4
        delta = rng.chisquare(d, 50_000)
        u = (1e3 + d) / (1e3 + delta)
        s2 = float(np.sum(np.log(u) - u))
        assert solve_nu(50_000.0, s2, d) == 200.0

    def test_simulation_recovery(self):
        rng = np.random.default_rng(2)
        d, true_nu, T = 3, 5.0, 100_000
        w = rng.chisquare(true_nu, T) / true_nu
        z = rng.standard_normal((T, d))
        delta = (z**2).sum(axis=1) / w
        u = (true_nu + d) / (true_nu + delta)
        s2 = float(np.sum(np.log(u) - u))
        assert 4.0 <= solve_nu(float(T), s2, d) <= 6.0

    def test_interior_root_is_accurate(self):
        from factorregimes.numerics import digamma

        d = 6
        # pick an s2/s1 that forces an interior root near nu = 9
        nu0 = 9.0
        r = (digamma(nu0 / 2) - math.log(nu0 / 2) - 1
             - digamma((nu0 + d) / 2) + math.log((nu0 + d) / 2))
        nu = solve_nu(1.0, r, d)
        assert nu == pytest.approx(nu0, abs=1e-6)
        g = (-digamma(nu / 2) + math.log(nu / 2) + 1 + r
             + digamma((nu + d) / 2) - math.log((nu + d) / 2))
        assert abs(g) <= 1e-6

    def test_s1_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_nu(0.0, -1.0, 3)


class TestEmFit:
    def test_single_gaussian_component(self):
        rng = np.random.default_rng(10)
        X = rng.normal(0.4, 1.1, (600, 2))
        panel = toy_panel(X)
        fit = em_fit(panel, 1, "gaussian", FitConfig(seed=1, n_restarts=2))
        se = X.std(axis=0, ddof=1) / math.sqrt(len(X))
        assert np.all(np.abs(fit.params.mu[0] - X.mean(axis=0)) < 3 * se)
        assert fit.params.nu is None

    def test_monotone_loglik(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        fit = em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=3))
        diffs = np.diff(fit.loglik_history)
        assert np.all(diffs >= -1e-8)

    def test_recovers_synthetic_regimes(self, synthetic_3regime):
        panel, truth = synthetic_3regime
        fit = em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=3))
        fit = order_regimes(fit, panel)
        assert label_accuracy(fit.labels, truth, 3) >= 0.90

    def test_bic_identity_and_labels(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        fit = em_fit(panel, 2, "student_t", FitConfig(seed=5, n_restarts=2))
        expected = -2 * fit.loglik + fit.n_free_params * math.log(panel.n_days)
        assert fit.bic == pytest.approx(expected, rel=1e-12)
        np.testing.assert_array_equal(fit.labels, np.argmax(fit.gamma, axis=1))

    def test_sample_size_guard(self):
        panel = toy_panel(np.random.default_rng(0).normal(0, 1, (20, 1)))
        with pytest.raises(SampleSizeError) as info:
            em_fit(panel, 2, "student_t", FitConfig(seed=1, n_restarts=10))
        assert str(info.value) == (
            "fitting K=2 regimes: need at least 21 observations, have 20")
        assert info.value.required == 21
        assert info.value.available == 20

    def test_iteration_cap_ends_each_restart(self, synthetic_3regime,
                                             monkeypatch):
        panel, _ = synthetic_3regime
        uncapped = em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=1))
        assert len(uncapped.loglik_history) > 3
        monkeypatch.setattr(hmm, "EM_MAX_ITERS", 2)
        fit = em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=2))
        assert len(fit.loglik_history) <= 3

    def test_settings_and_m_step_carry_params(self, synthetic_3regime):
        """FitConfig holds only the seed and the restart count, and one EM
        step maps an HmmParams to an HmmParams of the same family."""
        assert [f.name for f in dataclasses.fields(FitConfig)] == ["seed", "n_restarts"]
        assert "restart_index" not in {f.name for f in dataclasses.fields(hmm.HmmFit)}
        X = synthetic_3regime[0].returns
        p = _initial_params(X, 3, "student_t", 0, np.random.default_rng(0))
        logB, delta = _emission_terms(X, p.mu, p.Sigma, p.nu, p.family)
        _, gamma, xi_sum = _forward_backward_core(p.pi, p.A, logB)
        q, regularized = _m_step(X, gamma, xi_sum, delta, p)
        assert isinstance(q, HmmParams) and q.family == p.family
        assert q.nu.shape == (3,) and regularized is False

    def test_fit_matches_the_pinned_fit(self, synthetic_3regime, monkeypatch):
        """A 3-restart fit gives the labels, per-restart iteration counts and
        log-likelihood recorded from the triangular-solve emission and the
        day-major (T, K, K) scans, the loglik within 1e-12 relative. One
        usable CPU keeps the restarts, and so the count, in this process."""
        panel, _ = synthetic_3regime
        iterations = {}
        restart = hmm._restart
        monkeypatch.setattr(hmm, "_usable_cpus", lambda: [None])

        def counting(X, K, family, child, r):
            run = restart(X, K, family, child, r)
            iterations[r] = len(run[3])
            return run

        monkeypatch.setattr(hmm, "_restart", counting)
        fit = em_fit(panel, 3, "student_t", FitConfig(seed=7, n_restarts=3))
        assert hashlib.sha256(fit.labels.astype(np.int64).tobytes()).hexdigest() \
            == "c5a0f1479a867b6b353a141016df3203b3fc77ae73ecd903cdd9d2cbdedc7b51"
        assert iterations == {0: 68, 1: 114, 2: 53}
        assert fit.loglik == pytest.approx(-12214.802226218591, rel=1e-12)

    def test_seed_reproducibility(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        cfg = FitConfig(seed=11, n_restarts=2)
        f1 = em_fit(panel, 2, "student_t", cfg)
        f2 = em_fit(panel, 2, "student_t", cfg)
        assert f1.loglik == f2.loglik
        np.testing.assert_array_equal(f1.labels, f2.labels)


def assert_fits_identical(a, b):
    for name in ("pi", "A", "mu", "Sigma", "nu"):
        np.testing.assert_array_equal(getattr(a.params, name), getattr(b.params, name))
    assert a.loglik == b.loglik and a.bic == b.bic
    assert a.loglik_history == b.loglik_history
    np.testing.assert_array_equal(a.gamma, b.gamma)
    np.testing.assert_array_equal(a.labels, b.labels)


def mostly_flat_panel():
    """40 days, 30 of them exactly zero: K=1 fits, every K=2 restart
    collapses onto the zeros, and K=4 needs 41 days."""
    X = np.zeros((40, 1))
    X[30:, 0] = np.random.default_rng(1).normal(0, 1, 10)
    return toy_panel(X)


def outlier_panel(n_outliers):
    """60 standard-normal days in d=2 plus n_outliers days near (50, 50):
    a regime on one or two such days needs the scale ridge on every EM
    step, while three of them carry a full-rank scale."""
    rng = np.random.default_rng(0)
    X = np.vstack([rng.standard_normal((60, 2)),
                   50 + 0.01 * rng.standard_normal((n_outliers, 2))])
    return toy_panel(X)


@pytest.mark.parametrize("family", ["student_t", "gaussian"])
def test_consecutive_regularization_aborts_the_restart(family):
    abort = ("restart aborted: scale regularization needed on 3 consecutive "
             "iterations")
    for n_outliers in (1, 2):
        with pytest.raises(EstimationError) as info:
            em_fit(outlier_panel(n_outliers), 2, family,
                   FitConfig(seed=1, n_restarts=2))
        assert str(info.value) == (f"all 2 restarts failed: restart 0: {abort}; "
                                   f"restart 1: {abort}")
    fit = em_fit(outlier_panel(3), 2, family, FitConfig(seed=1, n_restarts=2))
    assert sorted(np.bincount(fit.labels)) == [3, 60]


def test_non_finite_update_drops_only_its_restart(monkeypatch):
    """An M-step that yields a non-finite parameter ends its own restart
    with an EstimationError; the other restarts still fit."""
    panel = outlier_panel(3)
    config = FitConfig(seed=1, n_restarts=2)
    solve = hmm.solve_nu
    calls = []

    def first_call_infinite(s1, s2, d):
        calls.append(s1)
        return math.inf if len(calls) == 1 else solve(s1, s2, d)

    monkeypatch.setattr(hmm, "_usable_cpus", lambda: [None])  # restart 0 runs first
    monkeypatch.setattr(hmm, "solve_nu", first_call_infinite)
    fit = em_fit(panel, 2, "student_t", config)
    monkeypatch.setattr(hmm, "solve_nu", solve)
    child = np.random.SeedSequence(config.seed).spawn(2)[1]
    assert fit.loglik == hmm._restart(panel.returns, 2, "student_t", child, 1)[1]
    monkeypatch.setattr(hmm, "solve_nu", lambda s1, s2, d: math.nan)
    with pytest.raises(EstimationError) as info:
        em_fit(panel, 2, "student_t", config)
    reason = "M-step gave invalid parameters: nu must be finite"
    assert str(info.value) == (f"all 2 restarts failed: restart 0: {reason}; "
                               f"restart 1: {reason}")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestConcurrentRestarts:
    """Restarts run in forked processes, one per usable CPU."""

    def test_em_fit_identical_for_any_worker_count(self, synthetic_3regime,
                                                   monkeypatch):
        panel, _ = synthetic_3regime
        config = FitConfig(seed=3, n_restarts=3)

        def no_fork():
            raise AssertionError("one worker forked")

        with monkeypatch.context() as m:
            m.setattr(hmm, "_usable_cpus", lambda: [None])
            m.setattr(os, "fork", no_fork)
            one = em_fit(panel, 3, "student_t", config)
        monkeypatch.setattr(hmm, "_usable_cpus", lambda: [None] * 4)
        assert_fits_identical(one, em_fit(panel, 3, "student_t", config))
        assert_no_child_left()

    def test_select_k_identical_for_any_worker_count(self, monkeypatch):
        panel = mostly_flat_panel()
        results = []
        for workers in (1, 4):
            monkeypatch.setattr(hmm, "_usable_cpus", lambda: [None] * workers)
            results.append(select_k(panel, [1, 2, 4], "gaussian",
                                    FitConfig(seed=1, n_restarts=3)))
        (best_1, table_1), (best_4, table_4) = results
        assert best_1 == best_4 == 1
        strip = lambda table: [{k: v for k, v in row.items() if k != "fit"}
                               for row in table]
        assert strip(table_1) == strip(table_4)
        assert_fits_identical(table_1[0]["fit"], table_4[0]["fit"])
        assert table_1[1]["error"].startswith("all 3 restarts failed: restart 0: ")
        assert table_1[2]["error"] == (
            "fitting K=4 regimes: need at least 41 observations, have 40")

    def test_all_failed_names_every_restart(self):
        with pytest.raises(EstimationError) as info:
            em_fit(mostly_flat_panel(), 2, "gaussian", FitConfig(seed=1, n_restarts=3))
        reasons = str(info.value).removeprefix("all 3 restarts failed: ").split("; ")
        assert [r.split(": ")[0] for r in reasons] == [
            "restart 0", "restart 1", "restart 2"]
        assert all(r.endswith("singular even after regularization") for r in reasons)

    def test_every_k_failed_names_each_reason(self):
        with pytest.raises(EstimationError) as info:
            select_k(mostly_flat_panel(), [2, 4], "gaussian",
                     FitConfig(seed=1, n_restarts=2))
        message = str(info.value)
        assert message.startswith("every candidate K failed to fit: K=2: "
                                  "all 2 restarts failed: restart 0: ")
        assert message.endswith("; K=4: fitting K=4 regimes: need at least "
                                "41 observations, have 40")

    def test_em_fit_is_the_select_k_row(self):
        """em_fit and select_k share one fit: a fitted row is bitwise
        em_fit's fit, and a failed row carries the text em_fit raises."""
        panel = mostly_flat_panel()
        config = FitConfig(seed=1, n_restarts=3)
        _, table = select_k(panel, [1, 2, 4], "gaussian", config)
        assert_fits_identical(em_fit(panel, 1, "gaussian", config), table[0]["fit"])
        for row, error in ((table[1], EstimationError), (table[2], SampleSizeError)):
            with pytest.raises(error) as info:
                em_fit(panel, row["k"], "gaussian", config)
            assert str(info.value) == row["error"]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_error_in_a_restart_reaches_the_caller(self, synthetic_3regime,
                                                   monkeypatch, workers):
        """The earliest failing restart's exception is raised, and no child
        is left behind."""
        panel, _ = synthetic_3regime
        initial = hmm._initial_params

        def failing(X, K, family, restart, rng):
            if restart >= 1:
                raise ValueError(f"restart {restart} failed")
            return initial(X, K, family, restart, rng)

        monkeypatch.setattr(hmm, "_initial_params", failing)
        monkeypatch.setattr(hmm, "_usable_cpus", lambda: [None] * workers)
        with pytest.raises(ValueError, match="^restart 1 failed$"):
            em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=3))
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_restart_runs_before_an_error_is_raised(self, monkeypatch,
                                                          tmp_path, workers):
        """Restart 0 raises at once; restarts 1-3 still run to their end,
        each leaving a marker, before restart 0's exception is raised."""
        panel = toy_panel(np.random.default_rng(0).standard_normal((300, 2)))
        initial = hmm._initial_params

        def failing(X, K, family, restart, rng):
            if restart == 0:
                raise ValueError("restart 0 failed")
            time.sleep(0.1)
            (tmp_path / f"restart {restart}").touch()
            return initial(X, K, family, restart, rng)

        monkeypatch.setattr(hmm, "_initial_params", failing)
        monkeypatch.setattr(hmm, "_usable_cpus", lambda: [None] * workers)
        with pytest.raises(ValueError, match="^restart 0 failed$"):
            em_fit(panel, 2, "gaussian", FitConfig(seed=1, n_restarts=4))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "restart 1", "restart 2", "restart 3"]
        assert_no_child_left()

    def test_usable_cpus_lists_each_cpu(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert hmm._usable_cpus() == sorted(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert hmm._usable_cpus() == [None, None, None]


FORK_PRELUDE = """
import os, signal, sys, time
import numpy as np
from factorregimes import FactorPanel, FitConfig, cli, em_fit, hmm, write_panel_csv

hmm._usable_cpus = lambda: [None] * int(os.environ["WORKERS"])
parent = os.getpid()
dates = np.datetime64("2000-01-03") + np.arange(300)
panel = FactorPanel(dates, np.random.default_rng(0).standard_normal((300, 2)),
                    ("A", "B"))


def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
        return True
    except ChildProcessError:
        return False
"""


def run_forking_script(body, workers, *args):
    """Run FORK_PRELUDE + body in a fresh process with `workers` usable
    CPUs, bounded by a timeout so that a deadlock fails the test instead
    of hanging it."""
    src = os.path.dirname(os.path.dirname(factorregimes.__file__))
    env = dict(os.environ, WORKERS=str(workers), PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", FORK_PRELUDE + body, *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedRestartFailures:
    """What reaches the caller when a forked restart does not return."""

    def test_child_without_a_result_is_a_cli_error(self, tmp_path):
        body = """
def run_em(X, p):
    if os.getpid() == parent:
        raise AssertionError("a restart ran in the parent")
    os._exit(7)


hmm._run_em = run_em
out = sys.argv[1]
write_panel_csv(panel, out + "/panel.csv")
rc = cli.main(["fit", "--panel", out + "/panel.csv", "--k", "2", "--seed", "1",
               "--restarts", "2", "--out", out + "/model.json"])
print(rc, children_left())
"""
        res = run_forking_script(body, 2, str(tmp_path))
        assert res.stdout == "2 False\n", res.stderr
        assert res.stderr == ("error: restart 0 for K=2 ended without a result: "
                              "exit status 7\n")
        assert not (tmp_path / "model.json").exists()

    def test_package_error_in_a_child_keeps_its_type(self, tmp_path):
        """A SampleSizeError raised in a forked restart reaches `fit` as
        itself, so the stage exits 2 with its text, not 1 with a traceback
        of the RuntimeError that stood in for an unpicklable error."""
        body = """
from factorregimes import SampleSizeError


def run_em(X, p):
    if os.getpid() == parent:
        raise AssertionError("a restart ran in the parent")
    raise SampleSizeError(10, 5, "lag 3 design")


hmm._run_em = run_em
out = sys.argv[1]
write_panel_csv(panel, out + "/panel.csv")
rc = cli.main(["fit", "--panel", out + "/panel.csv", "--k", "2", "--seed", "1",
               "--restarts", "2", "--out", out + "/model.json"])
print(rc, children_left())
"""
        res = run_forking_script(body, 2, str(tmp_path))
        assert res.stdout == "2 False\n", res.stderr
        assert res.stderr == ("error: lag 3 design: need at least 10 "
                              "observations, have 5\n")
        assert not (tmp_path / "model.json").exists()

    def test_earliest_raised_exception_wins(self):
        """Restart 2 raises at once and restart 1 later; restart 1's
        exception reaches the caller with its type and text."""
        body = """
initial = hmm._initial_params


def failing(X, K, family, restart, rng):
    if restart == 1:
        time.sleep(0.3)
        raise LookupError("restart 1 failed")
    if restart == 2:
        raise ValueError("restart 2 failed")
    return initial(X, K, family, restart, rng)


hmm._initial_params = failing
try:
    em_fit(panel, 2, "gaussian", FitConfig(seed=1, n_restarts=3))
except Exception as exc:
    print(type(exc).__name__, exc, children_left())
"""
        res = run_forking_script(body, 3)
        assert res.stdout == "LookupError restart 1 failed False\n", res.stderr

    def test_unpicklable_exception_arrives_as_runtime_error(self):
        body = """
def local_class():
    class Unsendable(Exception):
        pass
    return Unsendable


Unsendable = local_class()
initial = hmm._initial_params


def failing(X, K, family, restart, rng):
    if restart == 1:
        raise Unsendable("no way back")
    return initial(X, K, family, restart, rng)


hmm._initial_params = failing
try:
    em_fit(panel, 2, "gaussian", FitConfig(seed=1, n_restarts=2))
except RuntimeError as exc:
    print(exc)
    print(children_left())
"""
        res = run_forking_script(body, 2)
        message, left = res.stdout.splitlines()
        assert message.startswith("restart 1 for K=2 raised Unsendable: no way back "
                                  "(not picklable: "), res.stderr
        assert left == "False"

    def test_results_larger_than_a_pipe_buffer(self):
        """Two concurrent results of 800 KB each come back whole."""
        body = """
hmm._restart = lambda X, K, family, child, r: np.full(100_000, float(r))
runs = hmm._restarts([(None, 2, "gaussian", None, r) for r in range(2)])
print([run.tolist() == [float(r)] * 100_000 for r, run in enumerate(runs)],
      children_left())
"""
        res = run_forking_script(body, 2)
        assert res.stdout == "[True, True] False\n", res.stderr

    def test_interrupted_fit_leaves_no_child(self):
        """A KeyboardInterrupt in the parent kills and reaps the running
        children instead of waiting for them."""
        body = """
def run_em(X, p):
    time.sleep(60)


def interrupt(*_):
    raise KeyboardInterrupt


hmm._run_em = run_em
signal.signal(signal.SIGALRM, interrupt)
signal.setitimer(signal.ITIMER_REAL, 0.5)
t0 = time.monotonic()
try:
    em_fit(panel, 2, "gaussian", FitConfig(seed=1, n_restarts=2))
except KeyboardInterrupt:
    print(time.monotonic() - t0 < 30, children_left())
"""
        res = run_forking_script(body, 2)
        assert res.stdout == "True False\n", res.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_exception_that_does_not_unpickle_arrives_as_runtime_error():
    """An exception that pickles but cannot be rebuilt from its args
    reaches the caller as the RuntimeError that names it, not as the
    TypeError of rebuilding it."""
    body = """
class TwoArgs(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


initial = hmm._initial_params


def failing(X, K, family, restart, rng):
    if restart == 1:
        raise TwoArgs("no", "way back")
    return initial(X, K, family, restart, rng)


hmm._initial_params = failing
try:
    em_fit(panel, 2, "gaussian", FitConfig(seed=1, n_restarts=2))
except RuntimeError as exc:
    print(exc)
    print(children_left())
"""
    res = run_forking_script(body, 2)
    message, left = res.stdout.splitlines()
    assert message.startswith("restart 1 for K=2 raised TwoArgs: no and way back "
                              "(not picklable: "), res.stderr
    assert left == "False"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_next_job_takes_the_first_free_worker():
    """With 2 workers, job 0 runs 1 s and jobs 1-3 0.1 s each: jobs 2 and
    3 start in the slot job 1 frees, before job 0 ends. Round-robin
    slices, or waiting on the oldest child, would start job 2 after job 0
    ends."""
    body = """
def restart(X, K, family, child, r):
    start = time.monotonic()
    time.sleep(1.0 if r == 0 else 0.1)
    return start, time.monotonic()


hmm._restart = restart
runs = hmm._restarts([(None, 2, "gaussian", None, r) for r in range(4)])
end_0 = runs[0][1]
print([start < end_0 for start, _ in runs[1:]], children_left())
"""
    res = run_forking_script(body, 2)
    assert res.stdout == "[True, True, True] False\n", res.stderr


class TestNFreeParams:
    def test_student_t_count(self):
        K, d = 3, 6
        expected = (K - 1) + K * (K - 1) + K * d + K * d * (d + 1) // 2 + K
        assert n_free_params(K, d, "student_t") == expected

    def test_gaussian_omits_dofs(self):
        assert (n_free_params(3, 6, "student_t")
                - n_free_params(3, 6, "gaussian")) == 3


class TestSelectK:
    def test_one_regime_data_prefers_k1(self):
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            panel = toy_panel(rng.normal(0, 1, (700, 2)))
            best, _ = select_k(panel, range(1, 4), "gaussian",
                               FitConfig(seed=seed, n_restarts=2))
            hits += best == 1
        assert hits >= 4

    def test_table_rows_satisfy_bic_identity(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        _, table = select_k(panel, range(1, 3), "student_t",
                            FitConfig(seed=2, n_restarts=2))
        for row in table:
            if row["error"] is None:
                expected = (-2 * row["loglik"]
                            + row["n_free_params"] * math.log(panel.n_days))
                assert row["bic"] == pytest.approx(expected, rel=1e-12)

    def test_rows_carry_the_fit_em_fit_returns(self):
        rng = np.random.default_rng(21)
        panel = toy_panel(np.concatenate([rng.normal(0, 0.5, (300, 2)),
                                          rng.normal(0, 2.0, (300, 2))]))
        config = FitConfig(seed=4, n_restarts=2)
        best_k, table = select_k(panel, range(1, 3), "student_t", config)
        row = next(r for r in table if r["k"] == best_k)
        refit = em_fit(panel, best_k, "student_t", config)
        assert row["fit"].loglik == refit.loglik == row["loglik"]
        np.testing.assert_array_equal(row["fit"].gamma, refit.gamma)
        np.testing.assert_array_equal(row["fit"].params.Sigma, refit.params.Sigma)

    def test_failed_row_has_no_fit(self):
        panel = toy_panel(np.random.default_rng(3).normal(0, 1, (25, 1)))
        best_k, table = select_k(panel, [1, 3], "gaussian",
                                 FitConfig(seed=1, n_restarts=10))
        assert best_k == 1
        assert table[0]["fit"] is not None and table[1]["fit"] is None
        assert table[1]["error"] == (
            "fitting K=3 regimes: need at least 31 observations, have 25")

    def test_k_range_bounds(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        with pytest.raises(ValueError):
            select_k(panel, range(0, 3), "student_t", FitConfig(seed=1, n_restarts=10))

    def test_repeated_k_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("a restart ran")

        monkeypatch.setattr(hmm, "_restart", no_fit)
        with pytest.raises(ValueError, match="^k_range repeats K=2$"):
            select_k(mostly_flat_panel(), [1, 2, 2], "gaussian",
                     FitConfig(seed=1, n_restarts=2))

    @pytest.mark.parametrize("fit", [
        lambda panel, config: em_fit(panel, 9, "gaussian", config),
        lambda panel, config: select_k(panel, [9], "gaussian", config),
        lambda panel, config: select_k(panel, [2, 9], "gaussian", config),
    ], ids=["em_fit", "select_k", "select_k_range"])
    def test_both_entry_points_refuse_k_above_8(self, monkeypatch, fit):
        """em_fit and select_k share one bound and one error, raised before
        any restart runs, on a panel long enough for nine regimes."""
        def no_fit(*args):
            raise AssertionError("a restart ran")

        monkeypatch.setattr(hmm, "_restart", no_fit)
        panel = toy_panel(np.random.default_rng(0).standard_normal((200, 1)))
        with pytest.raises(ValueError, match=r"^K must be <= 8, got K=9$"):
            fit(panel, FitConfig(seed=1, n_restarts=2))


class TestOrderRegimes:
    def test_orders_by_mean_norm(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        fit = em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=3))
        fit = order_regimes(fit, panel)
        from factorregimes import volatility_norm

        norm = volatility_norm(panel)
        means = [norm[fit.labels == k].mean() for k in range(3)]
        assert means[0] < means[1] < means[2]

    def test_identity_when_ordered(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        fit = em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=3))
        once = order_regimes(fit, panel)
        twice = order_regimes(once, panel)
        assert_fits_identical(twice, once)

    def test_involution_after_swap(self, synthetic_3regime):
        from dataclasses import replace

        panel, _ = synthetic_3regime
        fit = order_regimes(
            em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=3)),
            panel,
        )
        perm = np.array([1, 0, 2])
        inv = np.argsort(perm)
        p = fit.params
        swapped = replace(
            fit,
            params=HmmParams(pi=p.pi[perm], A=p.A[np.ix_(perm, perm)],
                             mu=p.mu[perm], Sigma=p.Sigma[perm],
                             nu=p.nu[perm], family=p.family),
            gamma=fit.gamma[:, perm],
            labels=inv[fit.labels],
        )
        restored = order_regimes(swapped, panel)
        np.testing.assert_allclose(restored.params.mu, fit.params.mu)
        np.testing.assert_array_equal(restored.labels, fit.labels)


class TestDecode:
    def test_k1_all_zero(self):
        p = HmmParams(pi=[1.0], A=[[1.0]], mu=[[0.0]], Sigma=[[[1.0]]],
                      nu=[5.0])
        panel = toy_panel([[0.1], [0.2], [0.3]])
        np.testing.assert_array_equal(decode(p, panel), 0)

    def test_reproduces_fit_labels(self, synthetic_3regime):
        panel, _ = synthetic_3regime
        fit = em_fit(panel, 3, "student_t", FitConfig(seed=3, n_restarts=3))
        np.testing.assert_array_equal(decode(fit.params, panel), fit.labels)

    def test_well_separated_accuracy(self):
        params = table1_like_params(2)
        panel, truth = generate(SyntheticSpec(hmm=params, T=2000, seed=9))
        labels = decode(params, panel)
        assert label_accuracy(labels, truth, 3) >= 0.95


class TestPersistence:
    def test_round_trip_bit_stable(self, synthetic_3regime, tmp_path):
        panel, _ = synthetic_3regime
        fit = em_fit(panel, 2, "student_t", FitConfig(seed=7, n_restarts=2))
        path1 = tmp_path / "model.json"
        save_model(fit, path1)
        params, meta = load_model(path1)
        np.testing.assert_array_equal(params.pi, fit.params.pi)
        np.testing.assert_array_equal(params.A, fit.params.A)
        np.testing.assert_array_equal(params.mu, fit.params.mu)
        np.testing.assert_array_equal(params.Sigma, fit.params.Sigma)
        np.testing.assert_array_equal(params.nu, fit.params.nu)
        assert meta["loglik"] == fit.loglik
        assert meta["seed"] == 7

        from dataclasses import replace

        path2 = tmp_path / "model2.json"
        save_model(replace(fit, params=params), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_gaussian_nu_null(self, synthetic_3regime, tmp_path):
        panel, _ = synthetic_3regime
        fit = em_fit(panel, 2, "gaussian", FitConfig(seed=7, n_restarts=2))
        path = tmp_path / "g.json"
        save_model(fit, path)
        params, _ = load_model(path)
        assert params.nu is None and params.family == "gaussian"


class TestParamsValidation:
    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_fit_config_rejects_a_negative_seed(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative "
                                             rf"integer, got {seed}$"):
            FitConfig(seed=seed, n_restarts=2)
        assert FitConfig(seed=0, n_restarts=1).seed == 0
        config = FitConfig(seed=np.int64(3), n_restarts=np.int32(2))
        assert (config.seed, config.n_restarts) == (3, 2)

    def test_bad_transition_rows(self):
        with pytest.raises(ValueError):
            HmmParams(pi=[0.5, 0.5], A=[[0.9, 0.2], [0.1, 0.9]],
                      mu=np.zeros((2, 1)), Sigma=np.ones((2, 1, 1)),
                      nu=[5.0, 5.0])

    def test_nu_must_exceed_two(self):
        with pytest.raises(ValueError):
            HmmParams(pi=[1.0], A=[[1.0]], mu=[[0.0]], Sigma=[[[1.0]]],
                      nu=[2.0])

    def test_non_spd_sigma(self):
        with pytest.raises(ValueError):
            HmmParams(pi=[1.0], A=[[1.0]], mu=[[0.0, 0.0]],
                      Sigma=[[[1.0, 2.0], [2.0, 1.0]]], nu=[5.0])

    def test_gaussian_takes_no_nu(self):
        with pytest.raises(ValueError, match="^gaussian family takes no nu$"):
            HmmParams(pi=[1.0], A=[[1.0]], mu=[[0.0]], Sigma=[[[1.0]]],
                      nu=[5.0], family="gaussian")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            HmmParams(pi=[1.0], A=[[1.0]], mu=[[0.0]], Sigma=[[[1.0]]],
                      nu=[5.0], family="cauchy")


VALID_DOC = {"family": "student_t", "pi": [0.5, 0.5], "A": [[0.9, 0.1], [0.2, 0.8]],
             "mu": [[0.0], [1.0]], "Sigma": [[[1.0]], [[2.0]]], "nu": [5.0, 5.0]}
NON_FINITE = [("pi", [math.nan, math.nan]), ("A", [[0.9, 0.1], [math.nan] * 2]),
              ("mu", [[0.0], [math.inf]]), ("Sigma", [[[math.nan]], [[2.0]]]),
              ("nu", [math.nan, 5.0]), ("nu", [math.inf, 5.0])]


@pytest.mark.parametrize("name,value", NON_FINITE)
def test_non_finite_params_rejected(name, value, tmp_path):
    """Each array must be finite: NaN passes every comparison, and a 1x1
    NaN scale has a Cholesky factor. A model file is checked the same way."""
    doc = dict(VALID_DOC, **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        HmmParams(**doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, as json writes them
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        load_model(path)
    path.write_text(json.dumps(VALID_DOC))
    assert load_model(path)[0].nu.tolist() == [5.0, 5.0]


D2_DOC = {"family": "student_t", "pi": [0.5, 0.5], "A": [[0.9, 0.1], [0.2, 0.8]],
          "mu": [[0.0, 0.0], [1.0, 1.0]],
          "Sigma": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]],
          "nu": [5.0, 6.0]}
BAD_SHAPES = [("pi", [[0.5, 0.5]], "pi has shape (1, 2), expected (K,)"),
              ("mu", [0.0, 1.0], "mu has shape (2,), expected (K, d)"),
              ("A", [0.9, 0.1, 0.2, 0.8], "A has shape (4,), expected (2, 2)"),
              ("Sigma", [1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0],
               "Sigma has shape (8,), expected (2, 2, 2)"),
              ("Sigma", [[1.0, 0.0], [0.0, 1.0]],
               "Sigma has shape (2, 2), expected (2, 2, 2)"),
              ("nu", [[5.0], [6.0]], "nu has shape (2, 1), expected (2,)"),
              ("nu", 5.0, "nu has shape (), expected (2,)")]


@pytest.mark.parametrize("name,value,message", BAD_SHAPES)
def test_params_of_another_shape_rejected(name, value, message, tmp_path):
    """Each array must have its documented shape: a flat transition matrix
    or scale stack is not reshaped, and the error names the field. A model
    file is checked the same way."""
    doc = dict(D2_DOC, **{name: value})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HmmParams(**doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_model(path)
    path.write_text(json.dumps(D2_DOC))
    assert load_model(path)[0].Sigma.shape == (2, 2, 2)


@pytest.mark.parametrize("doc, fault", [
    *(({k: v for k, v in VALID_DOC.items() if k != field}, f"has no field {field!r}")
      for field in ("family", "pi", "A", "mu", "Sigma")),
    ([VALID_DOC], "is not a JSON object"),
], ids=["no family", "no pi", "no A", "no mu", "no Sigma", "array"])
def test_model_file_missing_a_field_rejected(doc, fault, tmp_path):
    """A model file without a required field, or that is not a JSON
    object, is one SchemaError naming the file and the field, where it
    used to be a KeyError or a TypeError from the dictionary lookup."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=f"^model file {re.escape(str(path))} "
                                          f"{re.escape(fault)}$"):
        load_model(path)


def fit_toy(family="student_t", K=2):
    em_fit(toy_panel(np.zeros((30, 1))), K, family, FitConfig(seed=1, n_restarts=1))


@pytest.mark.parametrize("call, message", [
    (lambda: HmmParams(**dict(VALID_DOC, mu=[[0.0], [1.0], [2.0]])),
     "mu has 3 rows for K=2"),
    (lambda: HmmParams(**dict(VALID_DOC, pi=[0.5, 0.6])),
     "pi must be a probability vector (sum 1 within 1e-12)"),
    (lambda: HmmParams(**dict(VALID_DOC, nu=None)), "student_t family requires nu"),
    (lambda: HmmParams(**dict(VALID_DOC, nu=[5.0, 5.0, 5.0])),
     "nu has length 3 for K=2"),
    (lambda: FitConfig(seed=1, n_restarts=0), "n_restarts must be >= 1"),
    # a float seed or restart count used to fail inside numpy, unnamed
    (lambda: FitConfig(seed=1.5, n_restarts=1),
     "seed must be a non-negative integer, got 1.5"),
    (lambda: FitConfig(seed=2.0, n_restarts=1),
     "seed must be a non-negative integer, got 2.0"),
    (lambda: FitConfig(seed=1, n_restarts=2.0), "n_restarts must be an integer, got 2.0"),
    (lambda: fit_toy(family="cauchy"),
     "unknown family 'cauchy', expected one of ('student_t', 'gaussian')"),
    (lambda: fit_toy(K=0), "K must be >= 1"),
])
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
