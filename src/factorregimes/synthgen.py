"""Ground-truth synthetic panels.

Simulates a regime-switching heavy-tailed factor panel from explicit
HMM parameters, optionally embedding a linear cross-factor lag
dependence inside one regime. Serves as the correctness oracle for the
fitting and causality modules: the generator knows the true labels and
the true lag structure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hmm import HmmParams
from .panel import FactorPanel, _aligned


@dataclass(frozen=True)
class CrossLagSpec:
    """Linear dependence x_target[t] += coefficient * x_source[t-lag],
    applied only on days whose true regime matches `regime`."""

    source: int
    target: int
    regime: int
    lag: int
    coefficient: float

    def __post_init__(self):
        if self.lag < 1:
            raise ValueError("lag must be >= 1")
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")


@dataclass(frozen=True)
class SyntheticSpec:
    hmm: HmmParams
    T: int
    seed: int
    cross_lag: CrossLagSpec | None = None

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        cl = self.cross_lag
        if cl is not None:
            d, K = self.hmm.n_factors, self.hmm.n_regimes
            if not (0 <= cl.source < d and 0 <= cl.target < d):
                raise ValueError(f"cross-lag source and target must lie in [0, {d})")
            if not 0 <= cl.regime < K:
                raise ValueError(f"cross-lag regime must lie in [0, {K})")


def _next_states(cum, u):
    """nxt[t, j]: the state a draw u[t] leads to from state j, given the
    rows' cumulative sums cum[j]. This is searchsorted(cum[j], u[t],
    side="right") as the rows do not decrease, clipped to K - 1 for a
    draw at or above a row's last sum, which may fall short of 1."""
    counts = (cum[None, :, :] <= u[:, None, None]).sum(axis=2)
    return np.minimum(counts, cum.shape[1] - 1, out=counts)


def generate(spec: SyntheticSpec) -> tuple[FactorPanel, np.ndarray]:
    """Simulate (panel, true_labels), bit-reproducible for a fixed seed.

    The chain is drawn first from pi and A, then observations from each
    regime's emission by the scale-mixture construction: a correlated
    normal draw divided by sqrt(chi2_nu / nu). Dates are consecutive
    weekdays from an arbitrary anchor.
    """
    p = spec.hmm
    K, d, T = p.n_regimes, p.n_factors, spec.T
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    u = rng.random(T)
    state = int(_next_states(np.cumsum(p.pi)[None, :], u[:1])[0, 0])
    # flat, so day t's row starts at t * K
    nxt = _next_states(np.cumsum(p.A, axis=1), u).ravel().tolist()
    z = [state]
    for t in range(K, T * K, K):
        state = nxt[t + state]
        z.append(state)
    z = np.array(z, dtype=np.int64)

    normals = rng.standard_normal((T, d))
    if p.family == "student_t":
        w = rng.chisquare(np.asarray(p.nu)[z]) / np.asarray(p.nu)[z]
    else:
        w = np.ones(T)

    X = np.empty((T, d))
    for k in range(K):
        idx = z == k
        L = np.linalg.cholesky(p.Sigma[k])
        X[idx] = p.mu[k] + (normals[idx] @ L.T) / np.sqrt(w[idx])[:, None]

    cl = spec.cross_lag
    if cl is not None:
        days = np.flatnonzero(z[cl.lag:] == cl.regime) + cl.lag
        if cl.source != cl.target:
            X[days, cl.target] += cl.coefficient * X[days - cl.lag, cl.source]
        else:
            # sequential so a same-column injection sees final past values
            for t in days.tolist():
                X[t, cl.target] += cl.coefficient * X[t - cl.lag, cl.source]

    dates = np.busday_offset("1990-01-02", np.arange(T), roll="forward")
    names = tuple(f"F{i}" for i in range(d))
    return FactorPanel(dates.astype("datetime64[D]"), X, names), z


def label_accuracy(estimated, truth, K: int) -> float:
    """Best agreement fraction over all K! relabelings of the estimate; the
    two label series are 1-D and of one length, a 2-D one a ValueError."""
    estimated = _aligned(estimated, None, "estimated labels")
    truth = _aligned(truth, estimated.shape[0], "true labels")
    if K > 6:
        raise ValueError("exhaustive permutation search supports K <= 6")
    for name, labels in (("estimated", estimated), ("true", truth)):
        outside = labels[(labels < 0) | (labels >= K)]
        if outside.size:
            raise ValueError(f"{name} label {outside[0]} is outside [0, {K})")
    best = 0.0
    for perm in itertools.permutations(range(K)):
        mapped = np.asarray(perm)[estimated]
        best = max(best, float(np.mean(mapped == truth)))
    return best
