"""Historical event-window validation.

Given decoded regime labels and a set of named market-stress windows,
this module measures crisis detection rates, early-warning lead times
(first sustained detection to the subsequent volatility peak), and
per-event directional HML -> SMB Granger classifications, each on every
day of its window, with an exact binomial summary of how many events
show the expected pattern.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .errors import PanelParseError
from .panel import (PEAK_HORIZON, TESTED_LAG, FactorPanel, _aligned, _in_range,
                    _read_lines, _tested_pair, _write_table, as_date64)

CHECK = "CHECK"
DIR = "DIR"
CROSS = "CROSS"
UNTESTABLE = "UNTESTABLE"

SUSTAINED_RUN = 3  # consecutive crisis days that make a detection
EVENT_ALPHA = 0.10  # significance level and binomial success probability


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
    return np.flatnonzero(_in_range(dates, w.start, w.end))


def detection_rate(labels, dates, w: EventWindow, crisis_index: int) -> float:
    """Fraction of the window's trading days labeled as the crisis regime."""
    dates = np.asarray(dates, dtype="datetime64[D]")
    labels = _aligned(labels, dates.shape[0], "labels")
    idx = _window_indices(dates, w)
    if idx.size == 0:
        raise ValueError(f"window {w.name!r} has no overlap with the panel")
    return float(np.mean(labels[idx] == crisis_index))


def first_sustained_detection(labels, dates, w: EventWindow, *,
                              crisis_index: int) -> np.datetime64 | None:
    """Earliest in-window date starting SUSTAINED_RUN consecutive crisis labels.

    The run may extend past the window end but must fit inside the
    label series. Returns None when no such day exists.
    """
    from .granger import _runs_from  # imported here: plotdata needs no granger

    dates = np.asarray(dates, dtype="datetime64[D]")
    labels = _aligned(labels, dates.shape[0], "labels")
    idx = _window_indices(dates, w)
    hits = idx[_runs_from(labels == crisis_index, SUSTAINED_RUN)[idx]]
    return dates[hits[0]] if hits.size else None


@dataclass(frozen=True)
class LeadTime:
    detection: np.datetime64
    peak: np.datetime64
    lead_days: int


def lead_time(labels, dates, vol, w: EventWindow, horizon: int = PEAK_HORIZON, *,
              crisis_index: int) -> LeadTime | None:
    """Calendar days from first sustained detection to the volatility peak.

    The peak is the argmax of the volatility norm over the `horizon`
    trading days starting at the detection day, so the lead is never
    negative. None when the window has no sustained detection.
    """
    if horizon < 0:
        raise ValueError(f"the peak-search horizon must be >= 0, got {horizon}")
    dates = np.asarray(dates, dtype="datetime64[D]")
    vol = _aligned(np.asarray(vol, dtype=float), dates.shape[0], "volatility norms")
    det = first_sustained_detection(labels, dates, w, crisis_index=crisis_index)
    if det is None:
        return None
    t_d = int(np.searchsorted(dates, det))
    peak_idx = t_d + int(np.argmax(vol[t_d:t_d + horizon + 1]))
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


def _classify(p_fwd: float, p_rev: float) -> str:
    if p_fwd < EVENT_ALPHA and p_rev > EVENT_ALPHA:
        return CHECK
    if p_fwd >= EVENT_ALPHA and p_fwd < p_rev:
        return DIR
    return CROSS


def event_granger_validation(panel: FactorPanel,
                             windows: Sequence[EventWindow] = DEFAULT_EVENT_WINDOWS,
                             L: int = TESTED_LAG) -> ValidationReport:
    """Directional HML -> SMB Granger classification for each event window.

    At fixed lag L, tests HML -> SMB (forward) and the reverse on every
    day of the window: the design rows are its days from the (L+1)th on,
    with lags read inside the window. CHECK means the forward test is
    significant at EVENT_ALPHA while the reverse is not; DIR means the
    forward p is smaller but misses significance; CROSS is anything
    else. A window is UNTESTABLE when its design collapses or when it
    has fewer than 3L+11 days, which would leave under 2L+11 design
    rows (at L=9, fewer than 38 days). The summary attaches the exact
    binomial upper tail for the CHECK count among testable events at
    success probability EVENT_ALPHA.
    """
    # imported here, so that plotdata, which tests nothing, loads neither
    from .granger import _segment_test
    from .numerics import binomial_tail

    y_t, y_s = _tested_pair(panel)
    rows = []
    for w in windows:
        idx = _window_indices(panel.dates, w)
        segment = [(idx[0], idx[-1])] if idx.size else []
        p_fwd, _ = _segment_test(y_t, y_s, segment, L)
        p_rev, _ = _segment_test(y_s, y_t, segment, L)
        if p_fwd is None or p_rev is None:
            rows.append(EventResult(w.name, idx.size, None, None, UNTESTABLE))
        else:
            rows.append(EventResult(w.name, idx.size, p_fwd, p_rev,
                                    _classify(p_fwd, p_rev)))
    testable = [r for r in rows if r.classification != UNTESTABLE]
    n_check = sum(1 for r in testable if r.classification == CHECK)
    n_testable = len(testable)
    binom = binomial_tail(n_check, n_testable, EVENT_ALPHA) if n_testable else 1.0
    return ValidationReport(tuple(rows), n_check, n_testable, binom)


def write_validation_csv(report: ValidationReport, path_or_buf) -> None:
    """Canonical validation CSV plus a binomial footer row."""
    p = np.format_float_positional(EVENT_ALPHA, min_digits=2)
    _write_table(path_or_buf, "event,days,p_fwd,p_rev,classification".split(","),
                 ("", "", ".5e", ".5e", ""), map(astuple, report.rows),
                 footer=f"# binomial: {report.n_check}/{report.n_testable} CHECK; "
                        f"exact tail at p={p} = {report.binomial_p:.5e} "
                        f"(exact sum, not an approximate method)\n")


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

