"""Historical event-window validation.

Given decoded regime labels and a set of named market-stress windows,
this module measures crisis detection rates, early-warning lead times
(first sustained detection to the subsequent volatility peak), and
per-event directional HML -> SMB Granger classifications, each on every
day of its window, with an exact binomial summary of how many events
show the expected pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDesignError, PanelParseError, SampleSizeError
from .granger import full_mask, granger_f_test
from .numerics import binomial_tail
from .panel import (
    TESTED_PAIR,
    FactorPanel,
    _open_output,
    _read_lines,
    as_date64,
    slice_dates,
)

CHECK = "CHECK"
DIR = "DIR"
CROSS = "CROSS"
UNTESTABLE = "UNTESTABLE"


@dataclass(frozen=True)
class EventWindow:
    """A named calendar window expected to contain a crisis."""

    name: str
    start: np.datetime64
    end: np.datetime64

    def __post_init__(self):
        object.__setattr__(self, "start", as_date64(self.start))
        object.__setattr__(self, "end", as_date64(self.end))
        if self.start > self.end:
            raise ValueError(f"window {self.name!r}: start after end")


DEFAULT_EVENT_WINDOWS: tuple[EventWindow, ...] = (
    EventWindow("2008 Financial", "2008-07-01", "2009-06-30"),
    EventWindow("2011 EU Debt", "2011-07-01", "2011-10-31"),
    EventWindow("2015 China", "2015-08-01", "2015-10-31"),
    EventWindow("2018 Vol Shock", "2018-01-22", "2018-03-16"),
    EventWindow("2020 COVID", "2020-02-01", "2020-06-30"),
    EventWindow("2022 Rate Hikes", "2022-01-03", "2022-10-31"),
)


def _window_indices(dates: np.ndarray, w: EventWindow) -> np.ndarray:
    return np.flatnonzero((dates >= w.start) & (dates <= w.end))


def detection_rate(labels, dates, w: EventWindow, crisis_index: int) -> float:
    """Fraction of the window's trading days labeled as the crisis regime."""
    labels = np.asarray(labels)
    dates = np.asarray(dates, dtype="datetime64[D]")
    idx = _window_indices(dates, w)
    if idx.size == 0:
        raise ValueError(f"window {w.name!r} has no overlap with the panel")
    return float(np.mean(labels[idx] == crisis_index))


def first_sustained_detection(labels, dates, w: EventWindow, m: int = 3, *,
                              crisis_index: int) -> np.datetime64 | None:
    """Earliest in-window date starting m consecutive crisis labels.

    The run may extend past the window end but must fit inside the
    label series. Returns None when no such day exists.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    labels = np.asarray(labels)
    dates = np.asarray(dates, dtype="datetime64[D]")
    crisis = (labels == crisis_index).astype(int)
    T = labels.shape[0]
    if T < m:
        return None
    runs = np.convolve(crisis, np.ones(m, dtype=int), mode="valid") == m
    for t in _window_indices(dates, w):
        if t <= T - m and runs[t]:
            return dates[t]
    return None


@dataclass(frozen=True)
class LeadTime:
    detection: np.datetime64
    peak: np.datetime64
    lead_days: int


def lead_time(labels, dates, vol, w: EventWindow, horizon: int = 90, *,
              crisis_index: int, m: int = 3) -> LeadTime | None:
    """Calendar days from first sustained detection to the volatility peak.

    The peak is the argmax of the volatility norm over the `horizon`
    trading days starting at the detection day, so the lead is never
    negative. None when the window has no sustained detection.
    """
    dates = np.asarray(dates, dtype="datetime64[D]")
    vol = np.asarray(vol, dtype=float)
    det = first_sustained_detection(labels, dates, w, m, crisis_index=crisis_index)
    if det is None:
        return None
    t_d = int(np.searchsorted(dates, det))
    hi = min(dates.shape[0] - 1, t_d + horizon)
    peak_idx = t_d + int(np.argmax(vol[t_d:hi + 1]))
    lead = int((dates[peak_idx] - det) / np.timedelta64(1, "D"))
    return LeadTime(detection=det, peak=dates[peak_idx], lead_days=lead)


@dataclass(frozen=True)
class EventResult:
    event: str
    days: int
    p_fwd: float | None
    p_rev: float | None
    classification: str


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[EventResult, ...]
    n_check: int
    n_testable: int
    binomial_p: float
    alpha: float = 0.10  # significance level and binomial success probability


def _classify(p_fwd: float, p_rev: float, alpha: float) -> str:
    if p_fwd < alpha and p_rev > alpha:
        return CHECK
    if p_fwd >= alpha and p_fwd < p_rev:
        return DIR
    return CROSS


def event_granger_validation(panel: FactorPanel,
                             windows: Sequence[EventWindow] = DEFAULT_EVENT_WINDOWS,
                             L: int = 9, *, alpha: float = 0.10) -> ValidationReport:
    """Directional HML -> SMB Granger classification for each event window.

    At fixed lag L, tests HML -> SMB (forward) and the reverse on every
    day of the window. CHECK means the forward test is significant at
    `alpha` while the reverse is not; DIR means the forward p is smaller
    but misses significance; CROSS is anything else. Windows shorter
    than 2L+12 days (or whose design collapses) are UNTESTABLE. The
    summary attaches the exact binomial upper tail for the CHECK count
    among testable events at success probability `alpha`.
    """
    source, target = TESTED_PAIR
    rows = []
    min_days = 2 * L + 12
    for w in windows:
        sub = slice_dates(panel, w.start, w.end)
        days = sub.n_days
        if days < min_days:
            rows.append(EventResult(w.name, days, None, None, UNTESTABLE))
            continue
        mask = full_mask(days)
        y_t = sub.column(target)
        y_s = sub.column(source)
        try:
            fwd = granger_f_test(y_t, y_s, L, mask,
                                 source=source, target=target, regime=w.name)
            rev = granger_f_test(y_s, y_t, L, mask,
                                 source=target, target=source, regime=w.name)
        except (SampleSizeError, DegenerateDesignError):
            rows.append(EventResult(w.name, days, None, None, UNTESTABLE))
            continue
        cls = _classify(fwd.p_value, rev.p_value, alpha)
        rows.append(EventResult(w.name, days, fwd.p_value, rev.p_value, cls))
    testable = [r for r in rows if r.classification != UNTESTABLE]
    n_check = sum(1 for r in testable if r.classification == CHECK)
    n_testable = len(testable)
    binom = binomial_tail(n_check, n_testable, alpha) if n_testable else 1.0
    return ValidationReport(tuple(rows), n_check, n_testable, binom, alpha)


def write_validation_csv(report: ValidationReport, path_or_buf) -> None:
    """Canonical validation CSV plus a binomial footer row."""
    with _open_output(path_or_buf) as fh:
        fh.write("event,days,p_fwd,p_rev,classification\n")
        for r in report.rows:
            p_f = "" if r.p_fwd is None else f"{r.p_fwd:.5e}"
            p_r = "" if r.p_rev is None else f"{r.p_rev:.5e}"
            fh.write(f"{r.event},{r.days},{p_f},{p_r},{r.classification}\n")
        p = np.format_float_positional(report.alpha, min_digits=2)
        fh.write(
            f"# binomial: {report.n_check}/{report.n_testable} CHECK; "
            f"exact tail at p={p} = {report.binomial_p:.5e} "
            f"(exact sum, not an approximate method)\n"
        )


def read_event_windows(source) -> tuple[EventWindow, ...]:
    """Parse an event configuration, lines of name,start,end (ISO), from a
    path (str or os.PathLike) or a text stream."""
    windows = []
    for i, line in enumerate(_read_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "\ufffd" in line:
            raise PanelParseError("text is not valid UTF-8", i)
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise PanelParseError(
                f"expected 'name,start,end', got {line!r}", i
            )
        if parts[1].lower() == "start":  # header row
            continue
        try:
            windows.append(EventWindow(parts[0], parts[1], parts[2]))
        except ValueError as exc:
            raise PanelParseError(str(exc), i) from None
    if not windows:
        raise PanelParseError("no event windows found")
    return tuple(windows)

