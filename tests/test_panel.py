"""Panel ingestion, merging, slicing, and aggregation, and the one rule
for every series argument of the library."""

import datetime as dt
import io
import re
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorregimes import (
    FactorPanel,
    PanelParseError,
    SchemaError,
    granger_f_test,
    label_accuracy,
    merge_on_dates,
    parse_ff_daily_csv,
    performance_metrics,
    read_labels_csv,
    read_panel_csv,
    regime_lag_mask,
    run_backtest,
    select_lag_bic,
    slice_dates,
    strategy_signal,
    volatility_norm,
    write_labels_csv,
    write_panel_csv,
    write_returns_csv,
)

from factorregimes.panel import _in_range, _write_table

from conftest import (
    reference_cli_date_range,
    reference_optional_bounds,
    reference_parse_lines,
    reference_post_split,
    reference_table,
    reference_window,
)

RAW_FF5 = """This file was created from the daily return database.
The 1-month TBill return is from an external provider.

,Mkt-RF,SMB,HML,RMW,CMA,RF
19900102,0.10,-0.20,0.30,0.05,-0.01,0.031
19900103,-0.50,0.12,0.08,-0.02,0.04,0.031
19900104,0.22,0.01,-0.11,0.09,0.00,0.031

 Annual Factors: January-December
,Mkt-RF,SMB,HML,RMW,CMA,RF
1990,-11.04,-1.71,2.43,3.01,1.20,7.81
"""

RAW_MOM = """Missing data are indicated by -99.99 or -999.

,Mom
19900102,0.25
19900103,-99.99
19900104,0.40
19900105,0.18
"""


def make_panel(values, names=("A", "B"), start="2020-01-06"):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    dates = np.busday_offset(start, np.arange(values.shape[0]), roll="forward")
    return FactorPanel(dates.astype("datetime64[D]"), values, names)


class TestParse:
    def test_three_row_passthrough(self):
        text = "date,X\n2020-01-01,0.1\n2020-01-02,-0.2\n2020-01-03,0.3\n"
        p = parse_ff_daily_csv(io.StringIO(text), ["X"])
        assert p.n_days == 3
        np.testing.assert_allclose(p.returns[:, 0], [0.1, -0.2, 0.3])

    def test_realistic_file_with_preamble_and_footer(self):
        p = parse_ff_daily_csv(io.StringIO(RAW_FF5),
                               ["MKT-RF", "SMB", "HML", "RMW", "CMA"])
        assert p.n_days == 3
        assert p.factor_names == ("MKT-RF", "SMB", "HML", "RMW", "CMA")
        # footer annual rows must not leak in
        assert str(p.dates[-1]) == "1990-01-04"

    def test_sentinel_rows_dropped(self):
        p = parse_ff_daily_csv(io.StringIO(RAW_MOM), ["MOM"])
        assert p.n_days == 3
        np.testing.assert_allclose(p.returns[:, 0], [0.25, 0.40, 0.18])
        text = "date,Z\n20200101,-999\n20200102,1.0\n"
        assert parse_ff_daily_csv(io.StringIO(text), ["Z"]).n_days == 1

    def test_columns_mapped_by_name_not_position(self):
        text = "date,B,A\n20200101,2.0,1.0\n"
        p = parse_ff_daily_csv(io.StringIO(text), ["A", "B"])
        np.testing.assert_allclose(p.returns[0], [1.0, 2.0])

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="HML"):
            parse_ff_daily_csv(io.StringIO("date,SMB\n20200101,0.1\n"),
                               ["SMB", "HML"])

    def test_malformed_date_reports_line_number(self):
        text = ",X\n20200101,0.1\n2020-13-45,0.2\n"
        with pytest.raises(PanelParseError, match="line 3"):
            parse_ff_daily_csv(io.StringIO(text), ["X"])

    def test_malformed_value_reports_line_number(self):
        text = ",X\n20200101,0.1\n20200102,oops\n"
        with pytest.raises(PanelParseError, match="line 3"):
            parse_ff_daily_csv(io.StringIO(text), ["X"])

    def test_accepts_stream_input(self):
        p = parse_ff_daily_csv(io.StringIO(RAW_MOM), ["MOM"])
        assert p.n_days == 3

    def test_path_parsed_whatever_its_suffix(self, tmp_path):
        for name in ("mom_daily.TXT", "mom_daily"):
            path = tmp_path / name
            path.write_text(RAW_MOM, encoding="utf-8")
            for source in (str(path), path):
                p = parse_ff_daily_csv(source, ["MOM"])
                np.testing.assert_allclose(p.returns[:, 0], [0.25, 0.40, 0.18])

    def test_text_is_not_a_source(self):
        with pytest.raises(FileNotFoundError):
            parse_ff_daily_csv("date,X\n2020-01-01,0.1\n", ["X"])
        with pytest.raises(TypeError, match="path or a text stream"):
            read_panel_csv(b"date,X\n2020-01-01,0.1\n")


class TestPanelType:
    def test_dates_must_increase(self):
        dates = np.array(["2020-01-02", "2020-01-01"], dtype="datetime64[D]")
        with pytest.raises(ValueError, match="increasing"):
            FactorPanel(dates, np.zeros((2, 1)), ("A",))

    def test_no_nonfinite_values(self):
        dates = np.array(["2020-01-01"], dtype="datetime64[D]")
        with pytest.raises(ValueError, match="finite"):
            FactorPanel(dates, np.array([[np.nan]]), ("A",))

    def test_names_distinct(self):
        dates = np.array(["2020-01-01"], dtype="datetime64[D]")
        with pytest.raises(ValueError, match="distinct"):
            FactorPanel(dates, np.zeros((1, 2)), ("A", "A"))

    def test_empty_panel_allowed(self):
        p = FactorPanel(np.array([], dtype="datetime64[D]"),
                        np.zeros((0, 2)), ("A", "B"))
        assert p.n_days == 0

    def test_column_lookup(self):
        p = make_panel([[1.0, 2.0]])
        assert p.column("B")[0] == 2.0
        with pytest.raises(SchemaError):
            p.column("C")


class TestMerge:
    def test_inner_join(self):
        a = make_panel([[1.0], [2.0], [3.0]], names=("A",))
        b_dates = a.dates[1:]
        b = FactorPanel(np.append(b_dates, b_dates[-1] + 3),
                        np.array([[10.0], [20.0], [30.0]]), ("B",))
        m = merge_on_dates(a, b)
        assert m.n_days == 2
        assert m.factor_names == ("A", "B")
        np.testing.assert_allclose(m.returns, [[2.0, 10.0], [3.0, 20.0]])

    def test_identical_dates(self):
        a = make_panel([[1.0], [2.0]], names=("A",))
        b = make_panel([[5.0], [6.0]], names=("B",))
        m = merge_on_dates(a, b)
        assert m.n_days == 2 and m.n_factors == 2

    def test_overlapping_names_rejected(self):
        a = make_panel([[1.0]], names=("A",))
        b = make_panel([[2.0]], names=("A",))
        with pytest.raises(ValueError, match="disjoint"):
            merge_on_dates(a, b)

    def test_empty_intersection_rejected(self):
        a = make_panel([[1.0]], names=("A",), start="2020-01-06")
        b = make_panel([[2.0]], names=("B",), start="2021-01-04")
        with pytest.raises(ValueError, match="common"):
            merge_on_dates(a, b)

    def test_symmetry_up_to_column_order(self):
        a = make_panel([[1.0, 2.0], [3.0, 4.0]], names=("A", "B"))
        b = make_panel([[9.0], [8.0]], names=("C",))
        ab = merge_on_dates(a, b)
        ba = merge_on_dates(b, a)
        np.testing.assert_allclose(ab.returns[:, [2, 0, 1]], ba.returns)


class TestSlice:
    def test_full_range_identity(self):
        p = make_panel([[1.0], [2.0], [3.0]], names=("A",))
        s = slice_dates(p, p.dates[0], p.dates[-1])
        np.testing.assert_array_equal(s.dates, p.dates)
        np.testing.assert_allclose(s.returns, p.returns)

    def test_empty_result_allowed(self):
        p = make_panel([[1.0]], names=("A",))
        s = slice_dates(p, "1999-01-01", "1999-12-31")
        assert s.n_days == 0

    def test_start_after_end_rejected(self):
        p = make_panel([[1.0]], names=("A",))
        with pytest.raises(ValueError):
            slice_dates(p, "2021-01-01", "2020-01-01")

    def test_one_open_bound(self):
        p = make_panel([[1.0], [2.0], [3.0], [4.0]], names=("A",))
        np.testing.assert_array_equal(slice_dates(p, p.dates[1]).dates,
                                      p.dates[1:])
        np.testing.assert_array_equal(slice_dates(p, end=p.dates[2]).dates,
                                      p.dates[:3])
        np.testing.assert_allclose(slice_dates(p, None, "2020-01-07").returns,
                                   [[1.0], [2.0]])
        assert slice_dates(p).n_days == 4
        assert slice_dates(p, "2030-01-01").n_days == 0


class TestRangeRule:
    """_in_range, the one date-range rule, against the masks it replaced."""

    BASE = np.datetime64("2020-01-01")

    @settings(max_examples=500, deadline=None)
    @given(offsets=st.sets(st.integers(0, 400), max_size=40),
           start=st.none() | st.integers(-50, 450),
           end=st.none() | st.integers(-50, 450))
    def test_matches_the_replaced_masks(self, offsets, start, end):
        dates = self.BASE + np.array(sorted(offsets), dtype="timedelta64[D]")
        start = None if start is None else self.BASE + start
        end = None if end is None else self.BASE + end
        if start is not None and end is not None and start > end:
            with pytest.raises(ValueError, match=f"^start {start} is after end {end}$"):
                _in_range(dates, start, end)
            return
        keep = _in_range(dates, start, end)
        assert keep.dtype == bool and keep.shape == dates.shape
        np.testing.assert_array_equal(keep, reference_optional_bounds(dates, start, end))
        if start is not None and end is not None:
            np.testing.assert_array_equal(keep, reference_window(dates, start, end))
        if end is None and start is not None:
            np.testing.assert_array_equal(keep, reference_post_split(dates, start))
        if dates.size:
            np.testing.assert_array_equal(
                keep, reference_cli_date_range(dates, start, end))

    def test_bounds_are_inclusive_and_accept_strings(self):
        dates = self.BASE + np.arange(5)
        np.testing.assert_array_equal(_in_range(dates, "2020-01-02", "2020-01-04"),
                                      [False, True, True, True, False])
        assert _in_range(dates).all()


class TestVolatilityNorm:
    def test_pythagorean_row(self):
        p = make_panel([[3.0, 4.0, 0.0]], names=("A", "B", "C"))
        assert volatility_norm(p)[0] == pytest.approx(5.0)

    def test_zero_iff_zero_row(self):
        p = make_panel([[0.0, 0.0], [0.1, 0.0]])
        v = volatility_norm(p)
        assert v[0] == 0.0 and v[1] > 0.0

    def test_empty_panel_rejected(self):
        p = FactorPanel(np.array([], dtype="datetime64[D]"),
                        np.zeros((0, 1)), ("A",))
        with pytest.raises(ValueError):
            volatility_norm(p)


class TestSerialization:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        p = make_panel(rng.normal(0, 1, (7, 3)).round(6), names=("A", "B", "C"))
        buf = io.StringIO()
        write_panel_csv(p, buf)
        q = read_panel_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(p.dates, q.dates)
        np.testing.assert_allclose(p.returns, q.returns, atol=5e-7)
        assert p.factor_names == q.factor_names
        # serialize again: byte-identical
        buf2 = io.StringIO()
        write_panel_csv(q, buf2)
        assert buf.getvalue() == buf2.getvalue()

    def test_canonical_header_and_format(self):
        p = make_panel([[1.234567891]], names=("A",))
        buf = io.StringIO()
        write_panel_csv(p, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "date,A"
        assert lines[1] == "2020-01-06,1.234568"

    def test_labels_round_trip(self, tmp_path):
        dates = np.busday_offset("2020-01-06", np.arange(5)).astype("datetime64[D]")
        labels = np.array([0, 1, 2, 1, 0])
        path = tmp_path / "labels.csv"
        write_labels_csv(dates, labels, path)
        d2, l2 = read_labels_csv(path)
        np.testing.assert_array_equal(dates, d2)
        np.testing.assert_array_equal(labels, l2)

    @pytest.mark.parametrize("n_dates", [5, 2])
    def test_labels_of_another_length_rejected(self, tmp_path, n_dates):
        """Three labels for five or for two dates: nothing is written, where
        the writer used to stop at the shorter series."""
        dates = np.busday_offset("2020-01-06", np.arange(n_dates)).astype(
            "datetime64[D]")
        path = tmp_path / "labels.csv"
        with pytest.raises(ValueError) as exc:
            write_labels_csv(dates, np.array([0, 1, 2]), path)
        assert str(exc.value) == ("labels must align with the panel rows: "
                                  f"3 labels for {n_dates} days")
        assert not path.exists()

    def test_labels_that_are_not_whole_numbers_rejected(self, tmp_path):
        """[0.5, 1.7, 2.0] used to be written as 0, 1, 2; whole-valued
        floats are still written as integers."""
        dates = np.busday_offset("2020-01-06", np.arange(3)).astype("datetime64[D]")
        path = tmp_path / "labels.csv"
        with pytest.raises(ValueError) as exc:
            write_labels_csv(dates, np.array([0.0, 1.7, 2.5]), path)
        assert str(exc.value) == "label 1.7 on 2020-01-07 is not a whole number"
        assert not path.exists()
        write_labels_csv(dates, np.array([0.0, 1.0, 2.0]), path)
        assert path.read_text() == ("date,regime\n2020-01-06,0\n2020-01-07,1\n"
                                    "2020-01-08,2\n")

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "1.0", "0x1", "1e0", "", "- 1"])
    def test_label_is_an_ascii_integer_token(self, token):
        """Only what write_labels_csv writes, -?[0-9]+, is a label; int()
        alone also took 1_0 (as 10), +1 and Arabic-Indic digits."""
        text = f"date,regime\n2020-01-06,0\n2020-01-07,{token}\n"
        with pytest.raises(PanelParseError) as exc:
            read_labels_csv(io.StringIO(text))
        assert str(exc.value) == f"line 3: malformed regime label {token!r}"
        assert exc.value.line_number == 3

    def test_label_tokens_the_writer_writes_are_read(self):
        text = "date,regime\n2020-01-06, 12 \n2020-01-07,-1\n2020-01-08,007\n"
        _, labels = read_labels_csv(io.StringIO(text))
        assert labels.tolist() == [12, -1, 7]

    @pytest.mark.parametrize("row", ["2020-01-07,0,1", "2020-01-07"])
    def test_labels_wrong_field_count_reports_line(self, row):
        text = f"date,regime\n2020-01-06,0\n{row}\n"
        with pytest.raises(PanelParseError,
                           match="line 3: expected 'date,regime'"):
            read_labels_csv(io.StringIO(text))

    @pytest.mark.parametrize("text,error,message", [
        ("", PanelParseError, "empty input"),
        ("day,A\n2020-01-06,0.1\n", PanelParseError,
         "line 1: expected header starting with 'date'"),
        ("date\n2020-01-06\n", SchemaError, "no factor columns in header"),
    ])
    def test_panel_header_rejected(self, text, error, message):
        with pytest.raises(error) as exc:
            read_panel_csv(io.StringIO(text))
        assert str(exc.value) == message

    def test_labels_header_rejected(self):
        with pytest.raises(PanelParseError) as exc:
            read_labels_csv(io.StringIO("date,label\n2020-01-06,0\n"))
        assert str(exc.value) == "line 1: expected header 'date,regime'"

    def test_labels_blank_line_skipped(self):
        dates, labels = read_labels_csv(io.StringIO(
            "date,regime\n2020-01-06,0\n\n2020-01-07,1\n"))
        assert dates.astype(str).tolist() == ["2020-01-06", "2020-01-07"]
        assert labels.tolist() == [0, 1]

    def test_labels_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"date,regime\n2020-01-06,0\n2020-01-07,\xff\n")
        with pytest.raises(PanelParseError, match="line 3"):
            read_labels_csv(path)

    def test_header_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"date,A\xff,B\n2020-01-06,0.1,0.2\n")
        with pytest.raises(PanelParseError,
                           match="line 1: text is not valid UTF-8"):
            read_panel_csv(path)

    @pytest.mark.parametrize("token", ["2020-01-07T00", "NaT", "2020"])
    def test_labels_date_is_yyyymmdd_or_iso(self, token):
        text = f"date,regime\n2020-01-06,0\n{token},1\n"
        with pytest.raises(PanelParseError,
                           match=f"line 3: malformed date token '{token}'"):
            read_labels_csv(io.StringIO(text))

    @pytest.mark.parametrize("dates,line,previous", [
        (["2000-01-04", "2000-01-03", "2000-01-03"], 3, "2000-01-04"),
        (["2000-01-03", "2000-01-04", "2000-01-04"], 4, "2000-01-04"),
    ])
    def test_labels_dates_must_increase(self, dates, line, previous):
        """The panel readers' rule: each date is after the previous row's."""
        text = "date,regime\n" + "".join(f"{d},0\n" for d in dates)
        with pytest.raises(PanelParseError) as exc:
            read_labels_csv(io.StringIO(text))
        assert str(exc.value) == (f"line {line}: date {dates[line - 2]} is not "
                                  f"after the previous row's {previous}")
        assert exc.value.line_number == line


class TestDailyBlockRule:
    @pytest.mark.parametrize("token", ["2020010x", "2020"])
    def test_corrupt_date_mid_block_is_an_error(self, token):
        text = f",X\n20200106,0.1\n{token},0.2\n20200108,0.3\n"
        with pytest.raises(PanelParseError,
                           match=f"line 3: malformed date token '{token}'"):
            parse_ff_daily_csv(io.StringIO(text), ["X"])

    def test_non_utf8_byte_in_date_reports_line(self, tmp_path):
        path = tmp_path / "x_daily.csv"
        path.write_bytes(b",X\n20200106,0.1\n2020010\xff,0.2\n20200108,0.3\n")
        with pytest.raises(PanelParseError, match="line 3: malformed date"):
            parse_ff_daily_csv(path, ["X"])

    def test_corrupt_first_byte_mid_block_is_an_error(self):
        text = ",X\n20200106,0.1\n\ufffd0200107,0.2\n20200108,0.3\n"
        with pytest.raises(PanelParseError,
                           match="line 3: malformed date token '\ufffd0200107'"):
            parse_ff_daily_csv(io.StringIO(text), ["X"])

    def test_non_utf8_first_byte_in_raw_file_reports_line(self, tmp_path):
        path = tmp_path / "x_daily.csv"
        path.write_bytes(b",X\n20200106,0.1\n \xff0200107,0.2\n20200108,0.3\n")
        with pytest.raises(PanelParseError, match="line 3: malformed date"):
            parse_ff_daily_csv(path, ["X"])

    def test_ufffd_lines_outside_the_rows_are_not_rows(self):
        text = (",X\n\ufffd preamble\n20200106,0.1\n20200107,0.2\n\n"
                "\ufffd footer\n")
        panel = parse_ff_daily_csv(io.StringIO(text), ["X"])
        assert panel.dates.tolist() == [dt.date(2020, 1, 6), dt.date(2020, 1, 7)]

    @pytest.mark.parametrize("rows, line, date", [
        ("20200106,0.1\n20200106,0.2\n", 3, "2020-01-06"),
        ("20200106,0.1\n20200108,0.2\n20200107,0.3\n", 4, "2020-01-07"),
        # the sentinel row is dropped before the check, as it is from the panel
        ("20200106,0.1\n20200109,-99.99\n20200107,0.2\n20200105,0.3\n", 5,
         "2020-01-05"),
    ])
    def test_out_of_order_date_reports_line(self, rows, line, date):
        with pytest.raises(PanelParseError,
                           match=f"line {line}: date {date} is not after"):
            parse_ff_daily_csv(io.StringIO(",X\n" + rows), ["X"])
        iso = rows.replace("202001", "2020-01-")
        with pytest.raises(PanelParseError,
                           match=f"line {line}: date {date} is not after"):
            read_panel_csv(io.StringIO("date,X\n" + iso))

    def test_malformed_value_after_sentinel_is_an_error(self):
        text = ",X,Y\n20200106,0.1,0.2\n20200107,-99.99,oops\n"
        with pytest.raises(PanelParseError,
                           match="line 3: malformed value 'oops' in column Y"):
            parse_ff_daily_csv(io.StringIO(text), ["X", "Y"])


# ---------------------------------------------------------------------------
# the readers against the line-by-line reference parser on drawn files

FACTOR_NAMES = ("Mkt-RF", "SMB", "HML", "RMW", "CMA", "Mom")
# no 'm' or 'M', which every factor name holds, so no drawn line is a header
TEXT = st.text(alphabet="abcXYZ019 .,-:", max_size=24)
# lines that cannot open the daily rows or look like a date to either reader
PROSE = st.text(alphabet="abcXYZ019 .,:", max_size=24).filter(
    lambda line: not line.lstrip()[:1].isdigit())
VALUES = st.one_of(
    st.floats(-30, 30).map(lambda v: f"{v:.2f}"),
    st.floats(-30, 30).map(repr),
    st.sampled_from(["-99.99", "-999", "nan", "inf", "-inf", " 0.5 ", "1e-3",
                     "-0.00", "+2"]),
)
BAD_DATES = st.sampled_from([
    "2020010x", "2020010\ufffd", "2020", "20200", "202001011", "2020-1-01",
    "2020/01/02", "2020-13-01", "20200230", "1990-01-02T00", "1e10",
])
BAD_VALUES = st.sampled_from(
    ["oops", "1.2.3", "", " ", "--1", "0x10", "1e", "\ufffd", "0.1\ufffd"])


class DailyFile(NamedTuple):
    before: list[str]    # the lines up to the first daily row, header included
    header: list[str]
    rows: list[list[str]]
    after: list[str]     # the footer
    requested: list[str]

    def text(self):
        lines = self.before + [",".join(r) for r in self.rows] + self.after
        return "\n".join(lines) + "\n"


@st.composite
def daily_files(draw, canonical, min_rows=0):
    """A raw daily factor file (preamble, shuffled columns in any case, a
    text column nobody requests, a requested subset) or a canonical one
    (header `date,<names>`, every column requested), each with sentinels,
    short rows, YYYYMMDD and ISO dates and an optional footer."""
    names = draw(st.permutations(FACTOR_NAMES))
    names = names[:draw(st.integers(1, len(names)))]
    columns = [draw(st.sampled_from([n, n.upper(), n.lower()])) for n in names]
    if canonical:
        header, requested, before = ["date"] + columns, columns, []
    else:
        if draw(st.booleans()):
            columns = draw(st.permutations(columns + ["RF"]))
        header = [draw(st.sampled_from(["", "Date"]))] + columns
        requested = draw(st.permutations([n.upper() for n in names]))
        requested = requested[:draw(st.integers(1, len(requested)))]
        before = draw(st.lists(TEXT, max_size=4))
    before = before + [",".join(header)] + draw(st.lists(PROSE, max_size=3))

    n = draw(st.integers(min_rows, 12))
    gaps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    rows = []
    for gap in np.cumsum(gaps, dtype=int):
        iso = (dt.date(1990, 1, 1) + dt.timedelta(days=int(gap))).isoformat()
        date = draw(st.sampled_from([iso, iso.replace("-", "")]))
        row = [draw(st.sampled_from(["", " "])) + date] + [
            draw(st.sampled_from(["0.01", "n/a", ""]) if c == "RF" else VALUES)
            for c in header[1:]]
        if draw(st.integers(0, 4)) == 0:
            row = row[:draw(st.integers(1, len(row)))]
        rows.append(row)

    after = []
    end = draw(st.sampled_from(["none", "blank", "text"])) if rows else "none"
    if end != "none":
        first = "" if end == "blank" else draw(PROSE.filter(str.strip))
        after = [first] + draw(st.lists(
            st.one_of(TEXT, st.just(",".join(header))), max_size=4))
    return DailyFile(before, header, rows, after, requested)


def read(f: DailyFile, canonical):
    source = io.StringIO(f.text())
    if canonical:
        return read_panel_csv(source)
    return parse_ff_daily_csv(source, f.requested)


class TestReaderProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_well_formed_file_matches_reference(self, data):
        canonical = data.draw(st.booleans())
        f = data.draw(daily_files(canonical))
        got = read(f, canonical)
        ref = reference_parse_lines(f.text().splitlines(), f.requested)
        assert got.factor_names == ref.factor_names
        np.testing.assert_array_equal(got.dates, ref.dates)
        assert got.returns.shape == ref.returns.shape
        assert got.returns.tobytes() == ref.returns.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_malformed_cell_names_its_line(self, data):
        canonical = data.draw(st.booleans())
        f = data.draw(daily_files(canonical, min_rows=1))
        k = data.draw(st.integers(0, len(f.rows) - 1))
        row = f.rows[k]
        if data.draw(st.booleans()):
            row[0] = data.draw(BAD_DATES)
        else:
            keys = [h.upper() for h in f.header]
            j = keys.index(data.draw(st.sampled_from(f.requested)).upper())
            row.extend(["0.5"] * (j + 1 - len(row)))
            row[j] = data.draw(BAD_VALUES)
        with pytest.raises(PanelParseError,
                           match=f"^line {len(f.before) + k + 1}: "):
            read(f, canonical)


# the cells where two formatters are most likely to differ: nan, both
# infinities, a negative zero, subnormals, 300 integer digits, and None
SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                  -0.0, 5e-324, -2.5e-310, 1e300, -1e300,
                                  None])
CELLS = {".6f": st.one_of(st.floats(), SPECIAL_FLOATS),
         ".5e": st.one_of(st.floats(), SPECIAL_FLOATS),
         "d": st.one_of(st.integers(), st.none())}


def written(header, specs, rows) -> str:
    buf = io.StringIO()
    _write_table(buf, header, specs, rows)
    return buf.getvalue()


class TestTableWriter:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_writer(self, data):
        specs = data.draw(st.lists(st.sampled_from(sorted(CELLS)),
                                   min_size=1, max_size=5))
        rows = data.draw(st.lists(st.tuples(*(CELLS[s] for s in specs)),
                                  max_size=20))
        header = [f"c{j}" for j in range(len(specs))]
        assert written(header, specs, rows) == \
            reference_table(header, specs, rows)

    def test_rows_across_blocks(self):
        """A long table is written a block at a time; a bad cell in a late
        block still leaves nothing written."""
        rows = [(i, i / 7, None if i % 5 else -0.0, f"r{i}") for i in range(2500)]
        header, specs = ["i", "x", "y", "name"], ["d", ".6f", ".5e", ""]
        assert written(header, specs, rows) == reference_table(header, specs, rows)
        rows[2400] = (2400, 0.0, None, "bad,cell")
        buf = io.StringIO()
        with pytest.raises(ValueError, match="column 'name': 'bad,cell'"):
            _write_table(buf, header, specs, rows)
        assert buf.getvalue() == ""

    def test_empty_table_is_its_header(self):
        assert written(["a", "b"], [".6f", "d"], []) == "a,b\n"

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_panel_and_labels_match_the_row_loop(self, data):
        T = data.draw(st.integers(0, 12))
        values = st.one_of(st.floats(-1e300, 1e300),
                           st.sampled_from([-0.0, 5e-324, -2.5e-310]))
        returns = np.array(data.draw(st.lists(values, min_size=2 * T,
                                              max_size=2 * T))).reshape(T, 2)
        p = make_panel(returns) if T else FactorPanel(
            np.array([], "datetime64[D]"), np.zeros((0, 2)), ("A", "B"))
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=T,
                                             max_size=T)), dtype=int)
        buf = io.StringIO()
        write_panel_csv(p, buf)
        # the loop iterated the arrays, so it formatted numpy scalars
        assert buf.getvalue() == reference_table(
            ("date", "A", "B"), ("", ".6f", ".6f"), zip(p.dates, *p.returns.T))
        buf = io.StringIO()
        write_labels_csv(p.dates, labels, buf)
        assert buf.getvalue() == reference_table(
            ("date", "regime"), ("", ""), zip(p.dates, labels))

    @pytest.mark.parametrize("cell", ["x,y", "x\ny", ",", "x\r", "x\u2028y"])
    def test_comma_or_newline_in_a_cell_rejected(self, cell):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(f"column 'name': {cell!r}")):
            _write_table(buf, ["n", "name"], ["d", ""], [(1, "ok"), (2, cell)])
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("name", ["A,B", "A\rB"])
    def test_factor_name_with_comma_or_line_break_rejected(self, tmp_path,
                                                           name):
        p = make_panel([[0.1, 0.2]], names=(name, "C"))
        path = tmp_path / "panel.csv"
        with pytest.raises(ValueError, match=re.escape(f"column {name!r}")):
            write_panel_csv(p, path)
        assert not path.exists()

    @pytest.mark.parametrize("header, rows", [(["a"], [(1, 2)]),
                                              (["a", "b"], [(1, 2), (3,)])])
    def test_row_of_another_length_rejected(self, header, rows):
        with pytest.raises(ValueError, match="cells do not match the header"):
            written(header, ["d", "d"], rows)


DAYS = np.array(["2020-01-06", "2020-01-07", "2020-01-08"], dtype="datetime64[D]")


@pytest.mark.parametrize("call, error, message", [
    (lambda: FactorPanel(DAYS, np.zeros((2, 1)), ("A",)), ValueError,
     "3 dates but 2 return rows"),
    (lambda: FactorPanel(DAYS, np.zeros((3, 2)), ("A",)), ValueError,
     "1 factor names but 2 columns"),
    (lambda: FactorPanel(DAYS, np.zeros(3), ("A",)), ValueError,
     "returns must be 2-D, got 1-D"),
    (lambda: parse_ff_daily_csv(io.StringIO("date,X\n20200106,0.1\n"), ["X", "x"]),
     SchemaError, "requested columns not distinct: ['X', 'x']"),
    (lambda: write_labels_csv(DAYS, np.zeros((3, 1)), io.StringIO()), ValueError,
     "labels must be one-dimensional, got shape (3, 1)"),
])
def test_bad_input_rejected(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _two_dimensional_series_calls():
    """(call, argument, shape): each call passes one series argument of
    the library as a 2-D array and every other one as a 1-D series."""
    z, flat, rows = np.zeros(50), np.zeros((50, 2)), np.ones(50, dtype=bool)
    report = performance_metrics(np.ones(3))
    return {
        "regime_lag_mask labels": (
            lambda: regime_lag_mask(np.zeros((50, 1), dtype=int), 0, 2), "labels", (50, 1)),
        "select_lag_bic y": (
            lambda: select_lag_bic(flat, z, lambda L: rows, 3), "y", (50, 2)),
        "select_lag_bic x": (
            lambda: select_lag_bic(z, flat, lambda L: rows, 3), "x", (50, 2)),
        "select_lag_bic mask": (
            lambda: select_lag_bic(z, z, lambda L: rows[:, None], 3),
            "mask_builder(1)", (50, 1)),
        "granger_f_test y": (lambda: granger_f_test(flat, z, 1, rows), "y", (50, 2)),
        "granger_f_test x": (lambda: granger_f_test(z, flat, 1, rows), "x", (50, 2)),
        "granger_f_test mask": (
            lambda: granger_f_test(z, z, 1, np.ones((50, 2), dtype=bool)), "mask", (50, 2)),
        "strategy_signal hml": (
            lambda: strategy_signal(flat, np.zeros(50, dtype=int), 1), "hml", (50, 2)),
        "strategy_signal labels": (
            lambda: strategy_signal(z, np.zeros((50, 1), dtype=int), 1), "labels", (50, 1)),
        "performance_metrics returns": (
            lambda: performance_metrics(np.ones((10, 3))), "returns", (10, 3)),
        "performance_metrics dates": (
            lambda: performance_metrics(np.ones(3), DAYS[:, None]), "dates", (3, 1)),
        "run_backtest labels": (
            lambda: run_backtest(make_panel(flat, ("HML", "SMB")),
                                 np.zeros((50, 1), dtype=int), 1), "labels", (50, 1)),
        "write_returns_csv benchmark": (
            lambda: write_returns_csv(report, replace(report, daily_returns=np.ones((3, 1))),
                                      io.StringIO()), "benchmark returns", (3, 1)),
        "label_accuracy estimated": (
            lambda: label_accuracy(np.zeros((4, 2), dtype=int), np.zeros(8, dtype=int), 2),
            "estimated labels", (4, 2)),
        "label_accuracy truth": (
            lambda: label_accuracy(np.zeros(4, dtype=int), np.zeros((4, 1), dtype=int), 2),
            "true labels", (4, 1)),
    }


SERIES_CALLS = _two_dimensional_series_calls()


@pytest.mark.parametrize("call, what, shape", SERIES_CALLS.values(),
                         ids=SERIES_CALLS.keys())
def test_every_series_argument_must_be_one_dimensional(call, what, shape):
    """One rule (`_aligned`) for every series argument: a 2-D array is an
    error naming the argument and its shape, where a call used to flatten
    it and test, trade or score the interleaved entries."""
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be one-dimensional, "
                                         f"got shape {re.escape(str(shape))}$"):
        call()


# Inputs at the edge of the readers' bulk conversion. Each gives the panel
# or labels of the plain rows after it, or the error text after it, exactly
# as the row-by-row readers did before the bulk conversion.
PLAIN_ROWS = ["2020-01-02,0.5,1.0", "2020-01-03,1.5,2.0", "2020-01-06,0.25,3.0"]
DROPPED = [PLAIN_ROWS[0], PLAIN_ROWS[2]]


def cell(value):
    """The plain rows with `value` as the second row's first cell."""
    return [PLAIN_ROWS[0], f"2020-01-03,{value},2.0", PLAIN_ROWS[2]]


PANEL_EDGES = {
    "digit separator": (cell("1_5"), cell("15")),
    "full-width digits": (cell("１.５"), PLAIN_ROWS),
    "leading space": (cell(" 1.5"), PLAIN_ROWS),
    "plus sign": (cell("+1.5"), PLAIN_ROWS),
    "nan": (cell("nan"), DROPPED),
    "inf": (cell("inf"), DROPPED),
    "sentinel": (cell("-99.99"), DROPPED),
    "empty cell": (cell(""), "line 3: malformed value '' in column A"),
    "hash in a cell": (cell("1#5"), "line 3: malformed value '1#5' in column A"),
    "missing field": ([PLAIN_ROWS[0], "2020-01-03,1.5", PLAIN_ROWS[2]], DROPPED),
    "extra field": ([PLAIN_ROWS[0], PLAIN_ROWS[1] + ",9", PLAIN_ROWS[2]],
                    PLAIN_ROWS),
    "YYYYMMDD dates": ([row.replace("-", "", 2) for row in PLAIN_ROWS], PLAIN_ROWS),
    "trailing blank line": (PLAIN_ROWS + [""], PLAIN_ROWS),
    "U+FFFD row": ([PLAIN_ROWS[0], "\ufffd" + PLAIN_ROWS[1][1:], PLAIN_ROWS[2]],
                   "line 3: malformed date token '\ufffd020-01-03'"),
    "out-of-order date": ([PLAIN_ROWS[0], "2020-01-07,1.5,2.0", PLAIN_ROWS[2]],
                          "line 4: date 2020-01-06 is not after the previous "
                          "kept row's 2020-01-07"),
}
PANEL_READERS = {
    "read_panel_csv": lambda rows: read_panel_csv(
        io.StringIO("\n".join(["date,A,B", *rows]) + "\n")),
    "parse_ff_daily_csv": lambda rows: parse_ff_daily_csv(
        io.StringIO("\n".join([",A,B", *rows]) + "\n"), ["A", "B"]),
}
LABEL_ROWS = ["2020-01-02,0", "2020-01-03,1", "2020-01-06,2"]
LABEL_EDGES = {
    "spaces around fields": (["2020-01-02,0", " 2020-01-03 , 1 ", "2020-01-06,2"],
                             LABEL_ROWS),
    "blank lines": (["", "2020-01-02,0", "", "2020-01-03,1", "2020-01-06,2", ""],
                    LABEL_ROWS),
    "plus sign": (["2020-01-02,0", "2020-01-03,+1", "2020-01-06,2"],
                  "line 3: malformed regime label '+1'"),
    "leading zero": (["2020-01-02,0", "2020-01-03,01", "2020-01-06,2"], LABEL_ROWS),
    "YYYYMMDD dates": ([row.replace("-", "", 2) for row in LABEL_ROWS], LABEL_ROWS),
    "month 13": (["2020-01-02,0", "2020-13-03,1", "2020-01-06,2"],
                 "line 3: malformed date token '2020-13-03'"),
    "label past int64": (["2020-01-02,99999999999999999999999", "2020-01-03,1",
                          "2020-01-06,2"],
                         "line 2: regime label 99999999999999999999999 is "
                         "outside the int64 range"),
}


def read_labels(rows):
    return read_labels_csv(io.StringIO("\n".join(["date,regime", *rows]) + "\n"))


@pytest.mark.parametrize("reader", PANEL_READERS.values(), ids=PANEL_READERS.keys())
@pytest.mark.parametrize("rows, want", PANEL_EDGES.values(), ids=PANEL_EDGES.keys())
def test_panel_edge_input(reader, rows, want):
    if isinstance(want, str):
        with pytest.raises(PanelParseError) as exc:
            reader(rows)
        assert str(exc.value) == want
        return
    got, plain = reader(rows), reader(want)
    assert got.factor_names == plain.factor_names == ("A", "B")
    assert got.dates.tobytes() == plain.dates.tobytes()
    assert got.returns.tobytes() == plain.returns.tobytes()


def test_labels_at_the_int64_bounds_read():
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    for rows in ([f"2020-01-02,{lo}", f"2020-01-03,{hi}"],
                 [f"2020-01-02,{lo}", f" 2020-01-03 , {hi} "]):  # bulk, row by row
        assert read_labels(rows)[1].tolist() == [lo, hi]
    with pytest.raises(PanelParseError, match=f"^line 3: regime label {hi + 1} "):
        read_labels([f"2020-01-02,{lo}", f"2020-01-03,{hi + 1}"])
    with pytest.raises(PanelParseError, match=f"^line 2: regime label {lo - 1} "):
        read_labels([f"2020-01-02,{lo - 1}", f"2020-01-03,{hi}"])


@pytest.mark.parametrize("rows, want", LABEL_EDGES.values(), ids=LABEL_EDGES.keys())
def test_labels_edge_input(rows, want):
    if isinstance(want, str):
        with pytest.raises(PanelParseError) as exc:
            read_labels(rows)
        assert str(exc.value) == want
        return
    (dates, labels), (plain_dates, plain_labels) = read_labels(rows), read_labels(want)
    assert dates.dtype == plain_dates.dtype and labels.dtype == plain_labels.dtype
    assert dates.tobytes() == plain_dates.tobytes()
    assert labels.tobytes() == plain_labels.tobytes() == np.array([0, 1, 2]).tobytes()
