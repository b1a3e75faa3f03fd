"""K-regime hidden Markov model with multivariate Student-t or Gaussian
emissions, fitted by EM with deterministic multi-restart, BIC model
selection over K, and severity ordering of the recovered regimes.

The forward-backward pass shifts the emission log-densities by their
per-day max and runs two prefix-product scans, each O(log T) batched
products with no per-day Python loop: a row-scaled scan of the per-day
transition matrices gives the filter, and a plain scan of the
row-stochastic backward kernels gives the smoother. Neither underflows.
A stack is held time-last, (K, K, n), and a product of two stacks is K
broadcast multiply-adds over n-long rows, so the scans call no BLAS.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .errors import EstimationError, SampleSizeError
from .numerics import digamma, log_gamma
from .panel import FactorPanel, _write_text, volatility_norm

FAMILIES = ("student_t", "gaussian")

NU_LOWER = 2.1
NU_UPPER = 200.0
RIDGE_EPS = 1e-8
MAX_CONSECUTIVE_REGULARIZATIONS = 3
EM_TOL = 1e-6
EM_MAX_ITERS = 500


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
    Each array must have exactly its shape above, and every entry must be
    finite.
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
        if self.family == "student_t" and self.nu is None:
            raise ValueError("student_t family requires nu")
        if self.family == "gaussian" and self.nu is not None:
            raise ValueError("gaussian family takes no nu")
        pi, A, mu, Sigma = (np.array(a, dtype=float)
                            for a in (self.pi, self.A, self.mu, self.Sigma))
        nu = None if self.nu is None else np.array(self.nu, dtype=float)
        if pi.ndim != 1:
            raise ValueError(f"pi has shape {pi.shape}, expected (K,)")
        if mu.ndim != 2:
            raise ValueError(f"mu has shape {mu.shape}, expected (K, d)")
        K, d = pi.shape[0], mu.shape[1]
        if mu.shape[0] != K:
            raise ValueError(f"mu has {mu.shape[0]} rows for K={K}")
        if nu is not None and nu.ndim == 1 and nu.shape[0] != K:
            raise ValueError(f"nu has length {nu.shape[0]} for K={K}")
        for name, arr, shape in (("A", A, (K, K)), ("Sigma", Sigma, (K, d, d)),
                                 ("nu", nu, (K,))):
            if arr is not None and arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        arrays = {"pi": pi, "A": A, "mu": mu, "Sigma": Sigma, "nu": nu}
        for name, arr in arrays.items():
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
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
        if nu is not None and np.any(nu <= 2.0):
            raise ValueError("every nu must exceed 2 (finite covariance)")
        for name, arr in arrays.items():
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_regimes(self) -> int:
        return self.pi.shape[0]

    @property
    def n_factors(self) -> int:
        return self.mu.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """EM settings, both mandatory: fits are reproducible by contract."""

    seed: int
    n_restarts: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")


@dataclass(frozen=True)
class HmmFit:
    """A fitted model plus its smoothed posteriors and decoded labels."""

    params: HmmParams
    loglik: float
    bic: float
    gamma: np.ndarray
    labels: np.ndarray
    n_free_params: int
    loglik_history: tuple[float, ...]
    config: FitConfig


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
        Z = (X - mu[k]) @ np.linalg.inv(L).T
        dk = np.einsum("ij,ij->i", Z, Z)
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
# batched product per step in O(log T) steps.
#
# A stack of n K x K matrices is held time-last, as a (K, K, n) array, and
# the product of two stacks is K broadcast multiply-adds over n-long rows,
# so no numpy call loops over a K-long axis and the scans call no BLAS.
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
# so the plain-product scan of [gamma_{T-1}, K_{T-2}, ..., K_0] can neither
# underflow nor overflow.

# a fast-path row below this max may have lost terms to underflow
_ROW_UNDERFLOW = 2.0 ** -800


def _product(P, Q):
    """Matrix products of two time-last stacks: R[i, l] = sum_k P[i, k] Q[k, l]
    over n-long rows, in one einsum pass without (K, K, n) temporaries."""
    return np.einsum("ikt,klt->ilt", P, Q)


def _row_scaled(M, h, r):
    """Split a time-last stack diag(e^h) M of nonnegative matrices with row
    maxima r into (S, h) form, dividing M in place; EstimationError on a
    zero or non-finite product."""
    with np.errstate(divide="ignore"):
        h = h + np.log(r)
    top = h.max(axis=0)
    if not np.isfinite(top).all():
        raise EstimationError("transition product is zero or not finite")
    M /= np.where(r > 0.0, r, 1.0)[:, None, :]
    return M, h - top


def _combine(P, hp, Q, hq):
    """Row-scaled products diag(e^hp) P . diag(e^hq) Q over a stack.

    Rows whose fast-path value underflowed are redone with their own
    log shift.
    """
    R = _product(P * np.exp(hq), Q)
    r = R.max(axis=1)
    weak = (r < _ROW_UNDERFLOW) & (hp > -np.inf)
    if weak.any():
        i, t = np.nonzero(weak)
        with np.errstate(divide="ignore"):
            W = np.log(P[i, :, t]) + hq[:, t].T
        s = W.max(axis=1)
        s[s == -np.inf] = 0.0  # the row is exactly zero
        Rw = np.einsum("wk,klw->wl", np.exp(W - s[:, None]), Q[:, :, t])
        R[i, :, t] = Rw
        r[i, t] = Rw.max(axis=1)
        hp = hp.copy()
        hp[i, t] += s
    return _row_scaled(R, hp, r)


def _scan(S, h, mul=_combine):
    """Inclusive prefix products of a time-last stack, in place.

    mul(P, hp, Q, hq) returns the products of two stacks with their row
    scales; the default keeps them row-scaled. Work-efficient odd-even
    recursion: multiply neighbours in pairs, scan the pairs, then fill in
    the even positions. That is about 2n products in 2 log2(n) batched
    steps, where Hillis-Steele doubling needs n log2(n).
    """
    n = S.shape[-1]
    if n < 2:
        return
    PS, Ph = mul(S[..., :n - 1:2], h[..., :n - 1:2], S[..., 1::2], h[..., 1::2])
    _scan(PS, Ph, mul)
    S[..., 1::2], h[..., 1::2] = PS, Ph
    if n > 2:
        rest = (n - 1) // 2
        S[..., 2::2], h[..., 2::2] = mul(PS[..., :rest], Ph[..., :rest],
                                         S[..., 2::2], h[..., 2::2])


def _forward_backward_core(pi, A, logB):
    """Smoothed posteriors on precomputed log emission densities.

    Returns (loglik, gamma, xi_sum). alpha is the normalized filter from
    the row-scaled scan and gamma the smoother from the scan of backward
    kernels; gamma rows are renormalized to sum exactly to 1. xi_sum is
    the posterior expectation of transition counts summed over
    t = 0..T-2.
    """
    T, K = logB.shape
    logB = logB.T.copy()  # time-last, as the stacks are
    m = logB.max(axis=0)
    if not np.all(np.isfinite(m)):
        raise EstimationError("emission density vanished for some observation")
    btil = np.exp(logB - m)
    c = np.empty(T)
    a0 = pi * btil[:, 0]
    c[0] = a0.sum()
    if not (c[0] > 0.0 and math.isfinite(c[0])):
        raise EstimationError("forward recursion produced a zero or non-finite scale")
    # forward: a first element whose rows all equal a0 makes the rows of
    # every prefix product equal the unnormalized filter
    S = np.empty((K, K, T))
    S[..., 0] = a0
    np.multiply(A[:, :, None], btil[:, 1:], out=S[..., 1:])
    S, h = _row_scaled(S, 0.0, S.max(axis=1))
    _scan(S, h)
    alpha = S[0] / S[0].sum(axis=0)
    del S
    pred = A.T @ alpha[:, :-1]
    c[1:] = (pred * btil[:, 1:]).sum(axis=0)
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise EstimationError("forward recursion produced a zero or non-finite scale")
    loglik = float(np.sum(np.log(c)) + np.sum(m))
    if not math.isfinite(loglik):
        raise EstimationError("log-likelihood is not finite")
    # backward: the rows of every prefix product of [gamma_{T-1}, K_{T-2},
    # ..., K_0] equal gamma; where pred is 0, K's row and gamma are 0 too
    pred = np.where(pred > 0.0, pred, 1.0)
    G = np.empty((K, K, T))
    G[..., 0] = alpha[:, -1]
    kernels = np.multiply(alpha[:, :-1], A.T[:, :, None], out=G[..., :0:-1])
    kernels /= pred[:, None, :]
    _scan(G, np.zeros((K, T)), lambda P, hp, Q, hq: (_product(P, Q), hp))
    gamma = G[0, :, ::-1]
    total = gamma.sum(axis=0)
    if not np.all(total > 0.0):
        raise EstimationError("backward recursion lost all posterior mass")
    gamma = gamma / total
    xi_sum = A * (alpha[:, :-1] @ (gamma[:, 1:] / pred).T)
    return loglik, np.ascontiguousarray(gamma.T), xi_sum


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


def _m_step(X, gamma, xi_sum, delta, p: HmmParams):
    """One parameter update sweep from p. Returns the new HmmParams plus a
    flag saying whether any scale matrix needed the ridge path."""
    T, d = X.shape
    K = gamma.shape[1]
    student_t = p.family == "student_t"
    pi = gamma[0].copy()
    pi /= pi.sum()
    rowsum = xi_sum.sum(axis=1, keepdims=True)
    A = np.where(rowsum > 0, xi_sum / np.where(rowsum > 0, rowsum, 1.0), p.A)
    A /= A.sum(axis=1, keepdims=True)
    mu = np.empty_like(p.mu)
    Sigma = np.empty_like(p.Sigma)
    nu = np.empty_like(p.nu) if student_t else None
    regularized = False
    for k in range(K):
        gk = gamma[:, k]
        s1 = gk.sum()
        if s1 <= 0:
            raise EstimationError(f"regime {k} collapsed to zero posterior mass")
        if student_t:
            u = (p.nu[k] + d) / (p.nu[k] + delta[:, k])
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
        mu[k] = mk
        Sigma[k] = Sk
        if student_t:
            s2 = float(gk @ (np.log(u) - u))
            nu[k] = solve_nu(float(s1), s2, d)
    try:
        return replace(p, pi=pi, A=A, mu=mu, Sigma=Sigma, nu=nu), regularized
    except ValueError as exc:  # a non-finite update ends this restart alone
        raise EstimationError(f"M-step gave invalid parameters: {exc}") from None


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
    return HmmParams(pi=pi, A=A, mu=mu, Sigma=Sigma, nu=nu, family=family)


# ---------------------------------------------------------------------------
# EM driver


def _run_em(X, p: HmmParams):
    """EM from p until a step gains less than EM_TOL * max(|loglik|, 1) or
    EM_MAX_ITERS steps have run. Returns (params, loglik, gamma, history)."""
    history = []
    consecutive = 0
    while True:
        logB, delta = _emission_terms(X, p.mu, p.Sigma, p.nu, p.family)
        loglik, gamma, xi_sum = _forward_backward_core(p.pi, p.A, logB)
        history.append(loglik)
        if len(history) > EM_MAX_ITERS or (
                len(history) > 1
                and loglik - history[-2] < EM_TOL * max(abs(history[-2]), 1.0)):
            return p, loglik, gamma, history
        p, regularized = _m_step(X, gamma, xi_sum, delta, p)
        consecutive = consecutive + 1 if regularized else 0
        if consecutive >= MAX_CONSECUTIVE_REGULARIZATIONS:
            raise EstimationError(
                "restart aborted: scale regularization needed on "
                f"{consecutive} consecutive iterations"
            )


def _restart(X, K, family, child, r):
    """One EM restart from its own seed. Returns _run_em's tuple, or the
    exception that ended the restart."""
    try:
        return _run_em(X, _initial_params(X, K, family, r, np.random.default_rng(child)))
    except Exception as exc:
        return exc


def _usable_cpus() -> list:
    """The CPUs this process may run on, sorted, or one None per CPU where
    the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _job_name(job) -> str:
    _, K, _, _, r = job
    return f"restart {r} for K={K}"


def _forked_restarts(jobs, cpus) -> list:
    """_restart on each job in a forked child, one running per entry of cpus.

    Each running child is pinned to its entry, unless that is None: a
    scheduler may otherwise keep a freshly forked child on its parent's
    CPU. A child writes its pipe once, when its job is done: the pickled
    outcome of its job, or a RuntimeError for one that does not pickle.
    The parent reads a readable pipe whole, reaps its child and starts the
    next job in the freed slot. A child that exits without a result is a
    ChildProcessError of its job. Every job runs; every child still
    running on the way out by exception is killed and reaped.
    """
    # imported here: only a forked fit uses them
    import selectors
    import signal

    runs = [None] * len(jobs)
    started = 0
    live = {}  # read end -> (pid, job index, cpu)
    free = list(cpus)
    sel = selectors.DefaultSelector()
    try:
        while started < len(jobs) or live:
            while started < len(jobs) and free:
                r, w = os.pipe()
                cpu = free.pop(0)
                pid = os.fork()
                if pid == 0:
                    try:
                        os.close(r)
                        run = _restart(*jobs[started])
                        try:
                            data = pickle.dumps(run)
                            pickle.loads(data)  # an exception can pickle yet not unpickle
                        except Exception as err:
                            data = pickle.dumps(RuntimeError(
                                f"{_job_name(jobs[started])} raised "
                                f"{type(run).__name__}: {run} (not picklable: {err})"))
                        data = memoryview(data)
                        while data:
                            data = data[os.write(w, data):]
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(w)
                live[r] = (pid, started, cpu)
                if cpu is not None:
                    try:
                        os.sched_setaffinity(pid, {cpu})
                    except OSError:
                        pass  # the placement is a hint, not a need
                sel.register(r, selectors.EVENT_READ)
                started += 1
            for key, _ in sel.select():
                pid, index, cpu = live[key.fd]
                data = b"".join(iter(lambda: os.read(key.fd, 1 << 16), b""))
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                sel.unregister(key.fd)
                os.close(key.fd)
                del live[key.fd]
                free.append(cpu)
                if code == 0:
                    runs[index] = pickle.loads(data)
                else:
                    runs[index] = ChildProcessError(
                        f"{_job_name(jobs[index])} ended without a result: "
                        + (f"exit status {code}" if code > 0 else f"signal {-code}"))
        return runs
    finally:
        for fd, (pid, _, _) in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        sel.close()


def _restarts(jobs) -> list:
    """_restart on each job, outcomes in job order. Every job runs; then the
    earliest exception other than an EstimationError is raised.

    With more than one usable CPU and os.fork the jobs run in forked
    children, one per usable CPU; otherwise they run in this process."""
    cpus = _usable_cpus()[:len(jobs)]
    if len(cpus) < 2 or not hasattr(os, "fork"):
        runs = [_restart(*job) for job in jobs]
    else:
        runs = _forked_restarts(jobs, cpus)
    for run in runs:
        if isinstance(run, Exception) and not isinstance(run, EstimationError):
            raise run
    return runs


def _fit_ks(panel: FactorPanel, ks, family: str, config: FitConfig) -> list:
    """Fit each K in ks as em_fit describes; every K must lie in 1..8.
    Returns, for each K in order, its HmmFit, or the SampleSizeError or
    EstimationError that ended it.

    Every feasible K's restarts share one set of workers (_restarts).
    Each restart is a pure function of the panel and its own seed, and
    comes back bit for bit, so the fits do not depend on the worker
    count. Any other exception is raised once every restart has run: the
    earliest restart's.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if min(ks) < 1:
        raise ValueError("K must be >= 1")
    if max(ks) > 8:
        raise ValueError(f"K must be <= 8, got K={max(ks)}")
    X = panel.returns
    T, d = X.shape
    n = config.n_restarts
    children = np.random.SeedSequence(config.seed).spawn(n)
    jobs = [(X, K, family, child, r)
            for K in ks if T > 10 * K for r, child in enumerate(children)]
    runs = _restarts(jobs)
    fits = []
    for K in ks:
        if T <= 10 * K:
            fits.append(SampleSizeError(10 * K + 1, T, f"fitting K={K} regimes"))
            continue
        restarts, runs = runs[:n], runs[n:]
        done = [run for run in restarts if not isinstance(run, EstimationError)]
        if not done:
            reasons = "; ".join(f"restart {r}: {exc}" for r, exc in enumerate(restarts))
            fits.append(EstimationError(f"all {n} restarts failed: {reasons}"))
            continue
        p, loglik, gamma, history = max(done, key=lambda run: run[1])
        nfree = n_free_params(K, d, family)
        fits.append(HmmFit(
            params=replace(p, pi=p.pi / p.pi.sum(),
                           A=p.A / p.A.sum(axis=1, keepdims=True)),
            loglik=loglik,
            bic=-2.0 * loglik + nfree * math.log(T),
            gamma=gamma,
            labels=np.argmax(gamma, axis=1),
            n_free_params=nfree,
            loglik_history=tuple(history),
            config=config,
        ))
    return fits


def em_fit(panel: FactorPanel, K: int, family: str, config: FitConfig) -> HmmFit:
    """Fit a K-regime HMM by EM with deterministic multi-restart: the
    one-K case of the pooled fit behind select_k.

    The restarts run concurrently in forked processes, one per usable
    CPU, or in this process when one CPU is usable or os.fork is missing;
    the fit is identical whatever the CPU count, and restricting the
    process's CPU affinity is the way to limit the workers. The best
    restart by log-likelihood wins; ties go to the lower restart index.
    Restarts that degenerate are dropped, and the fit fails only if
    every restart does, with an error that names each restart's reason.
    """
    (fit,) = _fit_ks(panel, [K], family, config)
    if isinstance(fit, Exception):
        raise fit
    return fit


def select_k(panel: FactorPanel, k_range, family: str, config: FitConfig):
    """Fit every K in k_range with the same restart budget; pick min BIC.

    Each row's fit is the one em_fit returns for that K, from the same
    pooled fit: every feasible K's restarts share the forked workers, one
    per usable CPU, so the table is identical whatever the CPU count, and
    restricting the process's CPU affinity is the way to limit the
    workers. Returns (best_k, table) where table rows are dicts with
    keys k, loglik, bic, n_free_params, error, fit. A successful row
    carries its HmmFit, so the winner needs no refit; a failed K carries
    the error message and fit None, and is excluded from the argmin. When
    every K fails, the error names each K's reason.
    """
    ks = list(k_range)
    if not ks:
        raise ValueError("k_range is empty")
    for i, k in enumerate(ks):
        if k in ks[:i]:
            raise ValueError(f"k_range repeats K={k}")
    table = []
    for k, fit in zip(ks, _fit_ks(panel, ks, family, config)):
        if isinstance(fit, HmmFit):
            table.append({"k": k, "loglik": fit.loglik, "bic": fit.bic,
                          "n_free_params": fit.n_free_params, "error": None,
                          "fit": fit})
        else:
            table.append({"k": k, "loglik": None, "bic": None,
                          "n_free_params": n_free_params(k, panel.n_factors, family),
                          "error": str(fit), "fit": None})
    fitted = [row for row in table if row["fit"] is not None]
    if not fitted:
        reasons = "; ".join(f"K={row['k']}: {row['error']}" for row in table)
        raise EstimationError(f"every candidate K failed to fit: {reasons}")
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
    p = fit.params
    params = replace(p, pi=p.pi[perm], A=p.A[np.ix_(perm, perm)], mu=p.mu[perm],
                     Sigma=p.Sigma[perm], nu=None if p.nu is None else p.nu[perm])
    return replace(fit, params=params, gamma=fit.gamma[:, perm],
                   labels=np.argsort(perm)[fit.labels])


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
        "seed": fit.config.seed,
        "restarts": fit.config.n_restarts,
    }
    _write_text(path, [json.dumps(doc, indent=2), "\n"])


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
