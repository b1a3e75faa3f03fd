"""K-regime hidden Markov model with multivariate Student-t or Gaussian
emissions, fitted by EM with deterministic multi-restart, BIC model
selection over K, and severity ordering of the recovered regimes.

The forward-backward pass shifts the emission log-densities by their
per-day max and runs two prefix-product scans, each O(log T) batched
numpy matmuls with no per-day Python loop: a row-scaled scan of the
per-day transition matrices gives the filter, and a plain scan of the
row-stochastic backward kernels gives the smoother. Neither underflows.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .errors import EstimationError, SampleSizeError
from .numerics import digamma, log_gamma
from .panel import FactorPanel, volatility_norm

FAMILIES = ("student_t", "gaussian")

NU_LOWER = 2.1
NU_UPPER = 200.0
RIDGE_EPS = 1e-8
MAX_CONSECUTIVE_REGULARIZATIONS = 3


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class HmmParams:
    """Model parameters for a K-regime HMM.

    pi    : (K,) initial state distribution
    A     : (K, K) row-stochastic transition matrix
    mu    : (K, d) location vectors, percent units
    Sigma : (K, d, d) SPD scale matrices, percent^2
    nu    : (K,) degrees of freedom (student_t); None for gaussian
    family: 'student_t' or 'gaussian'
    """

    pi: np.ndarray
    A: np.ndarray
    mu: np.ndarray
    Sigma: np.ndarray
    nu: np.ndarray | None
    family: str = "student_t"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        pi = np.array(self.pi, dtype=float).reshape(-1)
        K = pi.shape[0]
        A = np.array(self.A, dtype=float).reshape(K, K)
        mu = np.atleast_2d(np.array(self.mu, dtype=float))
        d = mu.shape[1]
        Sigma = np.array(self.Sigma, dtype=float).reshape(K, d, d)
        if mu.shape[0] != K:
            raise ValueError(f"mu has {mu.shape[0]} rows for K={K}")
        if abs(pi.sum() - 1.0) > 1e-12 or np.any(pi < 0):
            raise ValueError("pi must be a probability vector (sum 1 within 1e-12)")
        rowsums = A.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > 1e-12) or np.any(A < 0):
            raise ValueError("rows of A must be probability vectors (sum 1 within 1e-12)")
        for k in range(K):
            try:
                np.linalg.cholesky(Sigma[k])
            except np.linalg.LinAlgError:
                raise ValueError(f"Sigma[{k}] is not positive definite") from None
        nu = self.nu
        if self.family == "student_t":
            if nu is None:
                raise ValueError("student_t family requires nu")
            nu = np.array(nu, dtype=float).reshape(-1)
            if nu.shape[0] != K:
                raise ValueError(f"nu has length {nu.shape[0]} for K={K}")
            if np.any(nu <= 2.0):
                raise ValueError("every nu must exceed 2 (finite covariance)")
        elif nu is not None:
            nu = np.array(nu, dtype=float).reshape(-1)
        for arr in (pi, A, mu, Sigma) + ((nu,) if nu is not None else ()):
            arr.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Sigma", Sigma)
        object.__setattr__(self, "nu", nu)

    @property
    def n_regimes(self) -> int:
        return self.pi.shape[0]

    @property
    def n_factors(self) -> int:
        return self.mu.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """EM settings. The seed is mandatory: fits are reproducible by contract."""

    seed: int
    n_restarts: int = 10
    tol: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters >= 1")


@dataclass(frozen=True)
class HmmFit:
    """A fitted model plus its smoothed posteriors and decoded labels."""

    params: HmmParams
    loglik: float
    bic: float
    gamma: np.ndarray
    labels: np.ndarray
    n_free_params: int
    loglik_history: tuple[float, ...] = ()
    config: FitConfig | None = None
    restart_index: int = 0


def n_free_params(K: int, d: int, family: str) -> int:
    """Free parameter count used by BIC.

    pi contributes K-1, A contributes K(K-1), means K*d, scale matrices
    K*d(d+1)/2, and the student_t family adds one dof per regime.
    """
    base = (K - 1) + K * (K - 1) + K * d + K * d * (d + 1) // 2
    if family == "student_t":
        return base + K
    return base


# ---------------------------------------------------------------------------
# emission densities


def _emission_terms(X, mu, Sigma, nu, family):
    """Per-day log emission densities and Mahalanobis distances.

    Returns (logB, delta), both (T, K). Raises EstimationError when a
    scale matrix has no Cholesky factor.
    """
    T, d = X.shape
    K = mu.shape[0]
    logB = np.empty((T, K))
    delta = np.empty((T, K))
    for k in range(K):
        try:
            L = np.linalg.cholesky(Sigma[k])
        except np.linalg.LinAlgError:
            raise EstimationError(f"Sigma[{k}] lost positive definiteness") from None
        Z = solve_triangular(L, (X - mu[k]).T, lower=True)
        dk = np.einsum("ij,ij->j", Z, Z)
        delta[:, k] = dk
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        if family == "student_t":
            nuk = float(nu[k])
            const = (
                log_gamma((nuk + d) / 2.0)
                - log_gamma(nuk / 2.0)
                - 0.5 * d * math.log(nuk * math.pi)
                - 0.5 * logdet
            )
            logB[:, k] = const - 0.5 * (nuk + d) * np.log1p(dk / nuk)
        else:
            const = -0.5 * d * math.log(2.0 * math.pi) - 0.5 * logdet
            logB[:, k] = const - 0.5 * dk
    return logB, delta


# ---------------------------------------------------------------------------
# forward-backward as two prefix-product scans
#
# With b~_t the emission densities scaled by their row max and
# M_t = A diag(b~_t), the unnormalized filter is alpha_t = (pi o b~_0) M_1..M_t,
# an inclusive scan of the stack M_1..M_{T-1} (Sarkka & Garcia-Fernandez,
# "Temporal Parallelization of Bayesian Smoothers", IEEE TAC 2021): a
# batched matmul per step in O(log T) steps.
#
# A filter product is held row-scaled, as diag(exp(h)) S with every nonzero
# row of S at max entry 1 and max(h) = 0. A row that the rest of the product
# outweighs by more than the double range keeps its scale in h instead of
# underflowing, so a filter that sits on that row (an absorbing start, say)
# stays exact. Zero rows carry h = -inf.
#
# The smoother needs no scaling: gamma_t = gamma_{t+1} K_t with the
# backward kernel K_t[j, i] = alpha_t[i] A[i, j] / (alpha_t A)[j], which is
# row-stochastic (Cappe, Moulines & Ryden, "Inference in Hidden Markov
# Models", 2005, ch. 3). Products of stochastic matrices stay stochastic,
# so the plain-matmul scan of [gamma_{T-1}, K_{T-2}, ..., K_0] can neither
# underflow nor overflow.

# a fast-path row below this max may have lost terms to underflow
_ROW_UNDERFLOW = 2.0 ** -800


def _max_last(X):
    """Max over a short last axis; for a few columns this is much faster
    than ndarray.max(axis=-1), which pays per-row reduction overhead."""
    return functools.reduce(np.maximum, np.moveaxis(X, -1, 0))


def _row_scaled(M):
    """Split a stack of nonnegative matrices into (S, h) form."""
    r = _max_last(M)
    with np.errstate(divide="ignore"):
        h = np.log(r)
    top = _max_last(h)[:, None]
    if not np.all(np.isfinite(top)):
        raise EstimationError("transition product is zero or not finite")
    return M / np.where(r > 0.0, r, 1.0)[..., None], h - top


def _combine(P, hp, Q, hq):
    """Row-scaled products diag(e^hp) P . diag(e^hq) Q over a stack.

    Rows whose fast-path value underflowed are redone with their own
    log shift. Raises EstimationError on a zero or non-finite product.
    """
    R = (P * np.exp(hq)[:, None, :]) @ Q
    r = _max_last(R)
    shift = np.zeros_like(r)
    weak = (r < _ROW_UNDERFLOW) & (hp > -np.inf)
    if weak.any():
        i, j = np.nonzero(weak)
        with np.errstate(divide="ignore"):
            W = np.log(P[i, j]) + hq[i]
        s = W.max(axis=1)
        s[s == -np.inf] = 0.0  # the row is exactly zero
        Rw = (np.exp(W - s[:, None])[:, None, :] @ Q[i])[:, 0, :]
        R[i, j] = Rw
        r[i, j] = Rw.max(axis=1)
        shift[i, j] = s
    with np.errstate(divide="ignore"):
        h = hp + shift + np.log(r)
    R /= np.where(r > 0.0, r, 1.0)[..., None]
    top = _max_last(h)[:, None]
    if not np.all(np.isfinite(top)):
        raise EstimationError("transition product is zero or not finite")
    return R, h - top


def _scan(S, h, mul=_combine):
    """Inclusive prefix products of a stack, in place.

    mul(P, hp, Q, hq) returns the products of two stacks with their row
    scales; the default keeps them row-scaled. Work-efficient odd-even
    recursion: multiply neighbours in pairs, scan the pairs, then fill in
    the even positions. That is about 2n products in 2 log2(n) batched
    steps, where Hillis-Steele doubling needs n log2(n).
    """
    n = S.shape[0]
    if n < 2:
        return
    m = n // 2
    PS, Ph = mul(S[0:2 * m:2], h[0:2 * m:2], S[1:2 * m:2], h[1:2 * m:2])
    _scan(PS, Ph, mul)
    S[1::2], h[1::2] = PS, Ph
    if n > 2:
        rest = (n - 1) // 2
        S[2::2], h[2::2] = mul(PS[:rest], Ph[:rest], S[2::2], h[2::2])


def _forward_backward_core(pi, A, logB):
    """Smoothed posteriors on precomputed log emission densities.

    Returns (loglik, gamma, xi_sum). alpha is the normalized filter from
    the row-scaled scan and gamma the smoother from the scan of backward
    kernels; gamma rows are renormalized to sum exactly to 1. xi_sum is
    the posterior expectation of transition counts summed over
    t = 0..T-2.
    """
    T, K = logB.shape
    m = _max_last(logB)
    if not np.all(np.isfinite(m)):
        raise EstimationError("emission density vanished for some observation")
    btil = np.exp(logB - m[:, None])
    c = np.empty(T)
    a0 = pi * btil[0]
    c[0] = a0.sum()
    if not (c[0] > 0.0 and math.isfinite(c[0])):
        raise EstimationError("forward recursion produced a zero or non-finite scale")
    # forward: a first element whose rows all equal a0 makes the rows of
    # every prefix product equal the unnormalized filter
    S, h = _row_scaled(np.concatenate(
        [np.broadcast_to(a0, (1, K, K)), A * btil[1:, None, :]]))
    _scan(S, h)
    alpha = S[:, 0, :]
    alpha = alpha / alpha.sum(axis=1, keepdims=True)
    del S
    pred = alpha[:-1] @ A
    c[1:] = (pred * btil[1:]).sum(axis=1)
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise EstimationError("forward recursion produced a zero or non-finite scale")
    loglik = float(np.sum(np.log(c)) + np.sum(m))
    if not math.isfinite(loglik):
        raise EstimationError("log-likelihood is not finite")
    # backward: the rows of every prefix product of [gamma_{T-1}, K_{T-2},
    # ..., K_0] equal gamma; where pred is 0, K's row and gamma are 0 too
    pred = np.where(pred > 0.0, pred, 1.0)
    G = np.concatenate([np.broadcast_to(alpha[-1], (1, K, K)),
                        (alpha[:-1, None, :] * A.T / pred[:, :, None])[::-1]])
    _scan(G, np.zeros(T), lambda P, hp, Q, hq: (P @ Q, hp))
    gamma = G[::-1, 0, :]
    total = gamma.sum(axis=1, keepdims=True)
    if not np.all(total > 0.0):
        raise EstimationError("backward recursion lost all posterior mass")
    gamma = gamma / total
    xi_sum = A * (alpha[:-1].T @ (gamma[1:] / pred))
    return loglik, gamma, xi_sum


def forward_backward(params: HmmParams, panel: FactorPanel):
    """Exact smoothed posteriors for a panel under fixed parameters.

    Returns (loglik, gamma, xi_sum).
    """
    if panel.n_factors != params.n_factors:
        raise ValueError(
            f"panel has {panel.n_factors} factors, model expects {params.n_factors}"
        )
    logB, _ = _emission_terms(
        panel.returns, params.mu, params.Sigma, params.nu, params.family
    )
    return _forward_backward_core(params.pi, params.A, logB)


# ---------------------------------------------------------------------------
# M-step pieces


def solve_nu(s1: float, s2: float, d: int) -> float:
    """Degrees-of-freedom update from the weighted sufficient statistics.

    Solves g(nu) = -psi(nu/2) + ln(nu/2) + 1 + S2/S1
                   + psi((nu+d)/2) - ln((nu+d)/2) = 0
    by bisection on [2.1, 200] to 1e-8. Without a sign change on the
    bracket, the endpoint with the smaller |g| is returned, which pins
    effectively Gaussian regimes at the upper bound.
    """
    if s1 <= 0:
        raise ValueError("S1 must be positive")
    r = s2 / s1

    def g(nu: float) -> float:
        return (
            -digamma(nu / 2.0)
            + math.log(nu / 2.0)
            + 1.0
            + r
            + digamma((nu + d) / 2.0)
            - math.log((nu + d) / 2.0)
        )

    lo, hi = NU_LOWER, NU_UPPER
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        return lo if abs(glo) < abs(ghi) else hi
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if glo * gm < 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def _regularize(S: np.ndarray) -> np.ndarray:
    d = S.shape[0]
    return S + (RIDGE_EPS * np.trace(S) / d) * np.eye(d)


def _chol_ok(S: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(S)
        return True
    except np.linalg.LinAlgError:
        return False


def _m_step(X, gamma, xi_sum, delta, mu, Sigma, nu, A, pi, family):
    """One parameter update sweep. Returns the new arrays plus a flag
    saying whether any scale matrix needed the ridge path."""
    T, d = X.shape
    K = gamma.shape[1]
    new_pi = gamma[0].copy()
    new_pi /= new_pi.sum()
    rowsum = xi_sum.sum(axis=1, keepdims=True)
    new_A = np.where(rowsum > 0, xi_sum / np.where(rowsum > 0, rowsum, 1.0), A)
    new_A /= new_A.sum(axis=1, keepdims=True)
    new_mu = np.empty_like(mu)
    new_Sigma = np.empty_like(Sigma)
    new_nu = None if nu is None else np.empty_like(nu)
    regularized = False
    for k in range(K):
        gk = gamma[:, k]
        s1 = gk.sum()
        if s1 <= 0:
            raise EstimationError(f"regime {k} collapsed to zero posterior mass")
        if family == "student_t":
            u = (nu[k] + d) / (nu[k] + delta[:, k])
            w = gk * u
        else:
            w = gk
        wsum = w.sum()
        if wsum <= 0:
            raise EstimationError(f"regime {k} has zero weighted mass")
        mk = (w @ X) / wsum
        Y = X - mk
        Sk = (Y * w[:, None]).T @ Y / s1
        Sk = 0.5 * (Sk + Sk.T)
        # effective count below d+1 cannot support a full-rank scale update
        if s1 < d + 1 or not _chol_ok(Sk):
            Sk = _regularize(Sk)
            regularized = True
            if not _chol_ok(Sk):
                raise EstimationError(
                    f"regime {k} scale matrix singular even after regularization"
                )
        new_mu[k] = mk
        new_Sigma[k] = Sk
        if family == "student_t":
            s2 = float(gk @ (np.log(u) - u))
            new_nu[k] = solve_nu(float(s1), s2, d)
    return new_mu, new_Sigma, new_nu, new_A, new_pi, regularized


# ---------------------------------------------------------------------------
# initialization


def _group_moments(X, groups, K):
    d = X.shape[1]
    mu = np.empty((K, d))
    Sigma = np.empty((K, d, d))
    overall_mu = X.mean(axis=0)
    Ym = X - overall_mu
    overall_Sigma = Ym.T @ Ym / X.shape[0]
    for k in range(K):
        sel = X[groups == k]
        if sel.shape[0] < d + 1:
            mu[k] = overall_mu
            Sigma[k] = overall_Sigma
        else:
            mu[k] = sel.mean(axis=0)
            Y = sel - mu[k]
            Sigma[k] = Y.T @ Y / sel.shape[0]
        if not _chol_ok(Sigma[k]):
            Sigma[k] = _regularize(Sigma[k])
            if not _chol_ok(Sigma[k]):
                Sigma[k] = overall_Sigma + np.eye(d) * max(
                    1e-6, 1e-6 * np.trace(overall_Sigma) / d
                )
    return mu, Sigma


def _quantile_groups(X, K):
    norm = np.linalg.norm(X, axis=1)
    T = X.shape[0]
    order = np.argsort(norm, kind="stable")
    ranks = np.empty(T, dtype=np.int64)
    ranks[order] = np.arange(T)
    return ranks * K // T


def _initial_params(X, K, family, restart: int, rng: np.random.Generator):
    """Quantile partition for restart 0, jittered or randomized otherwise."""
    T, d = X.shape
    if restart == 0 or restart % 2 == 1:
        groups = _quantile_groups(X, K)
    else:
        groups = rng.integers(0, K, size=T)
    mu, Sigma = _group_moments(X, groups, K)
    if restart > 0 and restart % 2 == 1:
        scale = np.sqrt(np.maximum(np.diagonal(Sigma, axis1=1, axis2=2), 1e-12))
        mu = mu + 0.25 * scale * rng.standard_normal((K, d))
    if K == 1:
        A = np.ones((1, 1))
    else:
        A = np.full((K, K), 0.05 / (K - 1))
        np.fill_diagonal(A, 0.95)
    pi = np.full(K, 1.0 / K)
    nu = np.full(K, 10.0) if family == "student_t" else None
    return mu, Sigma, nu, A, pi


# ---------------------------------------------------------------------------
# EM driver


def _run_em(X, init, family, config: FitConfig):
    mu, Sigma, nu, A, pi = init
    logB, delta = _emission_terms(X, mu, Sigma, nu, family)
    loglik, gamma, xi_sum = _forward_backward_core(pi, A, logB)
    history = [loglik]
    consecutive = 0
    for _ in range(config.max_iters):
        mu, Sigma, nu, A, pi, regularized = _m_step(
            X, gamma, xi_sum, delta, mu, Sigma, nu, A, pi, family
        )
        if regularized:
            consecutive += 1
            if consecutive >= MAX_CONSECUTIVE_REGULARIZATIONS:
                raise EstimationError(
                    "restart aborted: scale regularization needed on "
                    f"{consecutive} consecutive iterations"
                )
        else:
            consecutive = 0
        logB, delta = _emission_terms(X, mu, Sigma, nu, family)
        new_loglik, gamma, xi_sum = _forward_backward_core(pi, A, logB)
        history.append(new_loglik)
        if new_loglik - loglik < config.tol * max(abs(loglik), 1.0):
            loglik = new_loglik
            break
        loglik = new_loglik
    return (mu, Sigma, nu, A, pi), loglik, gamma, history


def em_fit(panel: FactorPanel, K: int, family: str = "student_t",
           config: FitConfig | None = None) -> HmmFit:
    """Fit a K-regime HMM by EM with deterministic multi-restart.

    The best restart by log-likelihood wins; ties go to the lower
    restart index. Restarts that degenerate are dropped, and the fit
    fails only if every restart does.
    """
    if config is None:
        raise ValueError("config with an explicit seed is required")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if K < 1:
        raise ValueError("K must be >= 1")
    X = panel.returns
    T, d = X.shape
    if T <= 10 * K:
        raise SampleSizeError(10 * K + 1, T, f"fitting K={K} regimes")
    children = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
    best = None
    last_error = None
    for r in range(config.n_restarts):
        rng = np.random.default_rng(children[r])
        try:
            init = _initial_params(X, K, family, r, rng)
            arrays, loglik, gamma, history = _run_em(X, init, family, config)
        except EstimationError as exc:
            last_error = exc
            continue
        if best is None or loglik > best[1]:
            best = (arrays, loglik, gamma, history, r)
    if best is None:
        raise EstimationError(
            f"all {config.n_restarts} restarts failed; last error: {last_error}"
        )
    (mu, Sigma, nu, A, pi), loglik, gamma, history, r = best
    pi = pi / pi.sum()
    A = A / A.sum(axis=1, keepdims=True)
    params = HmmParams(pi=pi, A=A, mu=mu, Sigma=Sigma, nu=nu, family=family)
    nfree = n_free_params(K, d, family)
    bic = -2.0 * loglik + nfree * math.log(T)
    labels = np.argmax(gamma, axis=1)
    return HmmFit(
        params=params,
        loglik=loglik,
        bic=bic,
        gamma=gamma,
        labels=labels,
        n_free_params=nfree,
        loglik_history=tuple(history),
        config=config,
        restart_index=r,
    )


def select_k(panel: FactorPanel, k_range, family: str = "student_t",
             config: FitConfig | None = None):
    """Fit every K in k_range with the same restart budget; pick min BIC.

    Returns (best_k, table) where table rows are dicts with keys
    k, loglik, bic, n_free_params, error, fit. A successful row carries
    its HmmFit, so the winner needs no refit; a failed K carries the
    error message and fit None, and is excluded from the argmin.
    """
    ks = list(k_range)
    if not ks or min(ks) < 1 or max(ks) > 8:
        raise ValueError("k_range must lie within [1, 8] and be nonempty")
    table = []
    for k in ks:
        try:
            fit = em_fit(panel, k, family, config)
        except (EstimationError, SampleSizeError) as exc:
            table.append({"k": k, "loglik": None, "bic": None,
                          "n_free_params": n_free_params(k, panel.n_factors, family),
                          "error": str(exc), "fit": None})
            continue
        table.append({"k": k, "loglik": fit.loglik, "bic": fit.bic,
                      "n_free_params": fit.n_free_params, "error": None,
                      "fit": fit})
    fitted = [row for row in table if row["fit"] is not None]
    if not fitted:
        raise EstimationError("every candidate K failed to fit")
    best_k = min(fitted, key=lambda row: (row["bic"], row["k"]))["k"]
    return best_k, table


def order_regimes(fit: HmmFit, panel: FactorPanel) -> HmmFit:
    """Relabel regimes so mean volatility norm is ascending in the index.

    Regimes that decode to zero days sort last; the permutation is applied
    consistently to pi, both axes of A, mu, Sigma, nu, gamma, labels.
    """
    K = fit.params.n_regimes
    norm = volatility_norm(panel)
    means = np.empty(K)
    for k in range(K):
        sel = fit.labels == k
        means[k] = norm[sel].mean() if sel.any() else np.inf
    perm = np.argsort(means, kind="stable")
    if np.array_equal(perm, np.arange(K)):
        return fit
    inv = np.empty(K, dtype=int)
    inv[perm] = np.arange(K)
    p = fit.params
    params = HmmParams(
        pi=p.pi[perm],
        A=p.A[np.ix_(perm, perm)],
        mu=p.mu[perm],
        Sigma=p.Sigma[perm],
        nu=None if p.nu is None else p.nu[perm],
        family=p.family,
    )
    gamma = fit.gamma[:, perm]
    labels = inv[fit.labels]
    return replace(fit, params=params, gamma=gamma, labels=labels)


def decode(params: HmmParams, panel: FactorPanel) -> np.ndarray:
    """Per-day argmax of the smoothed posterior; ties go to the lower index."""
    _, gamma, _ = forward_backward(params, panel)
    return np.argmax(gamma, axis=1)


# ---------------------------------------------------------------------------
# persistence


def save_model(fit: HmmFit, path) -> None:
    """Persist a fit as JSON; floats round-trip bit-exactly via repr."""
    p = fit.params
    doc = {
        "family": p.family,
        "K": p.n_regimes,
        "d": p.n_factors,
        "pi": p.pi.tolist(),
        "A": p.A.tolist(),
        "mu": p.mu.tolist(),
        "Sigma": p.Sigma.tolist(),
        "nu": None if p.nu is None else p.nu.tolist(),
        "loglik": fit.loglik,
        "bic": fit.bic,
        "seed": None if fit.config is None else fit.config.seed,
        "restarts": None if fit.config is None else fit.config.n_restarts,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> tuple[HmmParams, dict]:
    """Load a persisted model. Returns (params, metadata)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    params = HmmParams(
        pi=np.array(doc["pi"], dtype=float),
        A=np.array(doc["A"], dtype=float),
        mu=np.array(doc["mu"], dtype=float),
        Sigma=np.array(doc["Sigma"], dtype=float),
        nu=None if doc.get("nu") is None else np.array(doc["nu"], dtype=float),
        family=doc["family"],
    )
    meta = {key: doc.get(key) for key in ("loglik", "bic", "seed", "restarts", "K", "d")}
    return params, meta
