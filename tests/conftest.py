"""Shared fixtures and the acceptance-criteria result summary."""

import glob
import os

import numpy as np
import pytest

from factorregimes import HmmParams, SyntheticSpec, generate


def locate_factor_data():
    """Find the two raw daily factor files, if the user provides them.

    Looks in $FACTOR_DATA_DIR, then ./data. Returns (ff5_path, mom_path)
    or None. The files are the public daily five-factor and momentum
    CSVs; see README for how to obtain them.
    """
    candidates = []
    env = os.environ.get("FACTOR_DATA_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data"))
    for root in candidates:
        if not os.path.isdir(root):
            continue
        ff5 = _match_one(root, ["*5_factors*daily*", "*5 factors*daily*"])
        mom = _match_one(root, ["*momentum*daily*", "*mom*daily*"])
        if ff5 and mom:
            return ff5, mom
    return None


def _match_one(root, patterns):
    for pat in patterns:
        for case in (pat, pat.upper(), pat.title()):
            hits = sorted(glob.glob(os.path.join(root, case)))
            hits = [h for h in hits if h.lower().endswith((".csv", ".txt"))]
            if hits:
                return hits[0]
    # case-insensitive fallback scan
    for name in sorted(os.listdir(root)):
        low = name.lower()
        if not low.endswith((".csv", ".txt")):
            continue
        for pat in patterns:
            core = pat.strip("*").replace("*", "")
            if all(tok in low for tok in core.split("daily") if tok):
                if "daily" in low:
                    return os.path.join(root, name)
    return None


requires_factor_data = pytest.mark.skipif(
    locate_factor_data() is None,
    reason="raw factor data files not present (set FACTOR_DATA_DIR or ./data)",
)


def table1_like_params(d: int = 6) -> HmmParams:
    """Three well-separated heavy-tailed regimes.

    Scales are tuned so per-day norm means sit near ratio 1 : 1.8 : 4
    with degrees of freedom {12, 7, 4} and strongly persistent chains.
    """
    scales = np.array([0.326, 0.559, 1.137])
    mu = np.zeros((3, d))
    mu[0, 0] = 0.03
    mu[2, 0] = -0.08
    Sigma = np.stack([np.eye(d) * s**2 for s in scales])
    A = np.array([
        [0.988, 0.011, 0.001],
        [0.007, 0.991, 0.002],
        [0.002, 0.030, 0.968],
    ])
    return HmmParams(
        pi=np.array([0.5, 0.35, 0.15]),
        A=A,
        mu=mu,
        Sigma=Sigma,
        nu=np.array([12.0, 7.0, 4.0]),
        family="student_t",
    )


@pytest.fixture(scope="session")
def synthetic_3regime():
    """A moderate-size ground-truth panel shared across test modules."""
    panel, truth = generate(SyntheticSpec(hmm=table1_like_params(), T=3000, seed=404))
    return panel, truth


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run

_ACCEPTANCE_RESULTS: dict[str, tuple[str, str]] = {}


def reference_design(y, x, L, rows):
    """The column-by-column lagged-design builder the shared design helper
    replaced: the response, then restricted [1, y lags 1..L] and
    unrestricted [.., x lags 1..L] regressors at the given rows."""
    cols = [np.ones(rows.size)]
    for lag in range(1, L + 1):
        cols.append(y[rows - lag])
    X_r = np.column_stack(cols)
    for lag in range(1, L + 1):
        cols.append(x[rows - lag])
    return y[rows], X_r, np.column_stack(cols)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if "test_acceptance.py" not in str(item.fspath):
        return
    name = item.name
    doc = (item.function.__doc__ or name).strip().splitlines()[0]
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        _ACCEPTANCE_RESULTS[name] = (status, doc)
    elif report.when == "setup" and report.skipped:
        _ACCEPTANCE_RESULTS[name] = ("SKIP", doc)
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE_RESULTS[name] = ("FAIL", doc)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        status, doc = _ACCEPTANCE_RESULTS[name]
        tr.write_line(f"[{status}] {doc}")
