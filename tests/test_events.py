"""Event windows: detection, lead times, and directional classification."""

import io

import numpy as np
import pytest

from factorregimes import (
    CHECK,
    CROSS,
    DEFAULT_EVENT_WINDOWS,
    DIR,
    UNTESTABLE,
    EventResult,
    EventWindow,
    FactorPanel,
    PanelParseError,
    binomial_tail,
    detection_rate,
    event_granger_validation,
    granger_f_test,
    lead_time,
    read_event_windows,
    ValidationReport,
    slice_dates,
    write_validation_csv,
)
from factorregimes.events import (EVENT_ALPHA, _classify,
                                   first_sustained_detection)


def dated(n, start="2020-01-02"):
    return np.busday_offset(start, np.arange(n)).astype("datetime64[D]")


def window_over(dates, lo=0, hi=None, name="test"):
    hi = len(dates) - 1 if hi is None else hi
    return EventWindow(name, dates[lo], dates[hi])


class TestEventWindow:
    def test_start_after_end_rejected(self):
        with pytest.raises(ValueError):
            EventWindow("bad", "2020-03-01", "2020-02-01")

    def test_defaults_cover_six_events(self):
        assert len(DEFAULT_EVENT_WINDOWS) == 6
        names = [w.name for w in DEFAULT_EVENT_WINDOWS]
        assert names == sorted(names, key=lambda n: n[:4])  # chronological


class TestDetectionRate:
    def test_fraction_of_window(self):
        dates = dated(10)
        labels = np.array([0, 0, 2, 2, 2, 0, 2, 0, 0, 0])
        w = window_over(dates, 2, 6)
        assert detection_rate(labels, dates, w, 2) == pytest.approx(4 / 5)

    def test_no_overlap_raises(self):
        dates = dated(5)
        w = EventWindow("off", "1999-01-01", "1999-02-01")
        with pytest.raises(ValueError):
            detection_rate(np.zeros(5, dtype=int), dates, w, 1)


class TestFirstSustainedDetection:
    def test_shorter_runs_are_skipped(self):
        """A detection is SUSTAINED_RUN = 3 crisis days: runs of 1 and 2 are
        passed over."""
        dates = dated(10)
        labels = np.array([0, 0, 1, 0, 1, 1, 0, 1, 1, 1])
        w = window_over(dates)
        assert first_sustained_detection(labels, dates, w,
                                         crisis_index=1) == dates[7]

    def test_requires_m_consecutive(self):
        dates = dated(8)
        labels = np.array([0, 0, 1, 0, 1, 1, 1, 0])
        w = window_over(dates)
        assert first_sustained_detection(labels, dates, w,
                                         crisis_index=1) == dates[4]

    def test_run_may_extend_past_window(self):
        dates = dated(8)
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1])
        w = window_over(dates, 0, 5)
        assert first_sustained_detection(labels, dates, w,
                                         crisis_index=1) == dates[5]

    def test_run_must_fit_series(self):
        dates = dated(6)
        labels = np.array([0, 0, 0, 0, 1, 1])
        w = window_over(dates)
        assert first_sustained_detection(labels, dates, w,
                                         crisis_index=1) is None

    def test_none_when_absent(self):
        dates = dated(6)
        w = window_over(dates)
        assert first_sustained_detection(np.zeros(6, dtype=int), dates, w,
                                         crisis_index=1) is None


class TestLeadTime:
    def test_monotone_vol_peaks_at_horizon_end(self):
        dates = dated(30)
        labels = np.zeros(30, dtype=int)
        labels[5:] = 1
        vol = np.arange(30.0)
        w = window_over(dates)
        lt = lead_time(labels, dates, vol, w, horizon=10, crisis_index=1)
        assert lt.detection == dates[5]
        assert lt.peak == dates[15]
        assert lt.lead_days == int((dates[15] - dates[5])
                                   / np.timedelta64(1, "D"))

    def test_lead_never_negative(self):
        rng = np.random.default_rng(21)
        dates = dated(120)
        labels = (rng.random(120) < 0.4).astype(int)
        vol = rng.random(120)
        w = window_over(dates)
        lt = lead_time(labels, dates, vol, w, horizon=30, crisis_index=1)
        assert lt is not None and lt.lead_days >= 0

    def test_none_without_detection(self):
        dates = dated(20)
        w = window_over(dates)
        assert lead_time(np.zeros(20, dtype=int), dates, np.ones(20), w,
                         crisis_index=1) is None


class TestSeriesAlignment:
    """Labels and volatility norms must have one entry per date: 14 July
    days against a July window, with series of another length."""

    DATES = np.arange("2011-07-01", "2011-07-15", dtype="datetime64[D]")
    JULY = EventWindow("July", "2011-07-01", "2011-07-31")

    @staticmethod
    def calls(labels, dates, vol, w):
        return (lambda: detection_rate(labels, dates, w, 1),
                lambda: first_sustained_detection(labels, dates, w, crisis_index=1),
                lambda: lead_time(labels, dates, vol, w, crisis_index=1))

    @pytest.mark.parametrize("n", [10, 20])
    @pytest.mark.parametrize("call", range(3))
    def test_labels_of_another_length_rejected(self, n, call):
        fn = self.calls(np.ones(n, dtype=int), self.DATES, np.ones(14),
                        self.JULY)[call]
        with pytest.raises(ValueError, match="^labels must align with the panel "
                                             f"rows: {n} labels for 14 days$"):
            fn()

    def test_short_volatility_norm_rejected(self):
        with pytest.raises(ValueError, match="^volatility norms must align with "
                                             "the panel rows: 5 volatility norms "
                                             "for 14 days$"):
            lead_time(np.ones(14, dtype=int), self.DATES, np.ones(5), self.JULY,
                      crisis_index=1)

    def test_aligned_series_accepted(self):
        fns = self.calls(np.ones(14, dtype=int), self.DATES, np.ones(14), self.JULY)
        assert fns[0]() == 1.0
        assert fns[1]() == self.DATES[0]
        assert fns[2]().detection == self.DATES[0]


class TestClassify:
    def test_check(self):
        assert _classify(0.02, 0.60) == CHECK

    def test_reverse_also_low_is_cross(self):
        # significant both ways fails the one-directional requirement
        assert _classify(0.020, 0.081) == CROSS

    def test_directional(self):
        assert _classify(0.104, 0.194) == DIR

    def test_wrong_order_is_cross(self):
        assert _classify(0.711, 0.049) == CROSS


def build_event_panel(T=400, seed=30, coef=0.0, lag=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    y = rng.standard_normal(T)
    if coef:
        y[lag:] += coef * x[:-lag]
    dates = dated(T)
    return FactorPanel(dates, np.column_stack([x, y]), ("HML", "SMB"))


class TestEventGrangerValidation:
    def test_forward_signal_classified_check(self):
        panel = build_event_panel(T=500, seed=31, coef=0.8, lag=2)
        w = (EventWindow("evt", panel.dates[0], panel.dates[-1]),)
        report = event_granger_validation(panel, w, L=3)
        row = report.rows[0]
        assert row.classification == CHECK
        assert row.p_fwd < 0.10 < row.p_rev
        assert report.n_check == report.n_testable == 1

    def test_short_window_untestable(self):
        panel = build_event_panel(T=200, seed=32)
        w = (EventWindow("tiny", panel.dates[0], panel.dates[20]),)
        report = event_granger_validation(panel, w, L=9)
        assert report.rows[0].classification == UNTESTABLE
        assert report.rows[0].p_fwd is None
        assert report.n_testable == 0
        assert report.binomial_p == 1.0

    def test_window_size_boundary_is_3L_plus_11_days(self):
        """At L=9 a window needs 38 days: 29 design rows, 2L+11."""
        panel = build_event_panel(T=200, seed=35)
        ws = (EventWindow("d37", panel.dates[50], panel.dates[86]),
              EventWindow("d38", panel.dates[50], panel.dates[87]),
              EventWindow("none", "1990-01-01", "1990-12-31"))
        short, enough, outside = event_granger_validation(panel, ws, L=9).rows
        assert (short.days, short.classification) == (37, UNTESTABLE)
        assert short.p_fwd is None and short.p_rev is None
        assert enough.days == 38 and enough.classification != UNTESTABLE
        assert (outside.days, outside.classification) == (0, UNTESTABLE)

    def test_p_values_equal_tests_on_the_window_alone(self):
        """Lags are read inside the window: each p is the fixed-lag test
        on the window's own days, bit for bit."""
        panel = build_event_panel(T=600, seed=36, coef=0.4, lag=2)
        ws = tuple(EventWindow(f"e{lo}", panel.dates[lo], panel.dates[lo + n])
                   for lo, n in ((0, 80), (130, 200), (400, 45)))
        for w, row in zip(ws, event_granger_validation(panel, ws, L=4).rows):
            sub = slice_dates(panel, w.start, w.end)
            smb, hml = sub.column("SMB"), sub.column("HML")
            rows = np.ones(sub.n_days, dtype=bool)
            assert row.days == sub.n_days
            assert row.p_fwd == granger_f_test(smb, hml, 4, rows).p_value
            assert row.p_rev == granger_f_test(hml, smb, 4, rows).p_value

    def test_lag_below_one_rejected(self):
        panel = build_event_panel(T=200, seed=37)
        with pytest.raises(ValueError, match="L must be >= 1"):
            event_granger_validation(panel, (window_over(panel.dates),), L=0)

    def test_day_count_reported(self):
        panel = build_event_panel(T=300, seed=33)
        w = (EventWindow("evt", panel.dates[10], panel.dates[99]),)
        report = event_granger_validation(panel, w, L=5)
        assert report.rows[0].days == 90

    def test_binomial_matches_counts(self):
        panel = build_event_panel(T=2400, seed=34, coef=0.6, lag=2)
        step = 400
        ws = tuple(
            EventWindow(f"e{i}", panel.dates[i * step],
                        panel.dates[(i + 1) * step - 1])
            for i in range(6)
        )
        report = event_granger_validation(panel, ws, L=3)
        assert report.n_testable == 6
        assert report.binomial_p == pytest.approx(
            binomial_tail(report.n_check, 6, 0.10), rel=1e-12)


class TestValidationCsv:
    def test_layout_and_footer(self):
        panel = build_event_panel(T=500, seed=36, coef=0.8, lag=2)
        ws = (EventWindow("evt", panel.dates[0], panel.dates[-1]),
              EventWindow("tiny", panel.dates[0], panel.dates[5]))
        report = event_granger_validation(panel, ws, L=3)
        buf = io.StringIO()
        write_validation_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "event,days,p_fwd,p_rev,classification"
        assert lines[1].startswith("evt,")
        assert lines[2].split(",")[2] == ""  # untestable rows stay blank
        assert lines[-1].startswith("# binomial:")
        assert f"{report.n_check}/{report.n_testable} CHECK" in lines[-1]

    def test_five_of_six_footer_notes_exact_tail(self):
        rows = tuple(
            EventResult(f"e{i}", 100, 0.01, 0.5,
                        CHECK if i < 5 else CROSS)
            for i in range(6)
        )
        report = ValidationReport(rows, 5, 6, binomial_tail(5, 6, 0.10))
        buf = io.StringIO()
        write_validation_csv(report, buf)
        footer = buf.getvalue().splitlines()[-1]
        assert "5/6 CHECK" in footer
        assert "5.5" in footer and "e-05" in footer
        assert "approximate" in footer  # flags the common ~1e-3 misreading


    def test_event_name_with_comma_rejected(self):
        rows = (EventResult("Crash, 1987", 40, 0.01, 0.5, CHECK),)
        buf = io.StringIO()
        with pytest.raises(ValueError, match="column 'event': 'Crash, 1987'"):
            write_validation_csv(ValidationReport(rows, 1, 1, 0.1), buf)
        assert buf.getvalue() == ""

    def test_footer_reports_the_alpha_used(self):
        panel = build_event_panel(T=500, seed=36, coef=0.8, lag=2)
        ws = (EventWindow("evt", panel.dates[0], panel.dates[-1]),)
        report = event_granger_validation(panel, ws, L=3)
        assert EVENT_ALPHA == 0.10
        buf = io.StringIO()
        write_validation_csv(report, buf)
        footer = buf.getvalue().splitlines()[-1]
        assert "exact tail at p=0.10 =" in footer


class TestWindowConfigIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "name,start,end\n"
            "2008 Financial,2008-07-01,2009-06-30\n"
            "2011 EU Debt,2011-07-01,2011-10-31\n"
            "2015 China,2015-08-01,2015-10-31\n"
            "2018 Vol Shock,2018-01-22,2018-03-16\n"
            "2020 COVID,2020-02-01,2020-06-30\n"
            "2022 Rate Hikes,2022-01-03,2022-10-31\n"
        )
        back = read_event_windows(path)
        assert back == DEFAULT_EVENT_WINDOWS

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,start,end\nevt,2020-01-01\n")
        with pytest.raises(PanelParseError, match="line 2"):
            read_event_windows(path)

    def test_text_stream_source(self):
        back = read_event_windows(io.StringIO(
            "name,start,end\n2020 COVID,2020-02-01,2020-06-30\n"))
        assert back == (EventWindow("2020 COVID", "2020-02-01", "2020-06-30"),)

    def test_comment_lines_are_skipped(self):
        back = read_event_windows(io.StringIO(
            "# stress windows\nname,start,end\n# 2020\n"
            "2020 COVID,2020-02-01,2020-06-30\n"))
        assert back == (EventWindow("2020 COVID", "2020-02-01", "2020-06-30"),)

    @pytest.mark.parametrize("text,message", [
        ("A,2020-03-01,2020-02-01\n", "line 1: window 'A': start after end"),
        ("# only a comment\nname,start,end\n\n", "no event windows found"),
    ])
    def test_bad_window_set_rejected(self, text, message):
        with pytest.raises(PanelParseError) as exc:
            read_event_windows(io.StringIO(text))
        assert str(exc.value) == message

    def test_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(b"name,start,end\n2008 Financial,2008-07-01,2009-06-30\n"
                         b"2020 COV\xffID,2020-02-01,2020-06-30\n")
        with pytest.raises(PanelParseError, match="line 3"):
            read_event_windows(path)
