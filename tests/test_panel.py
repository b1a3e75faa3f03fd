"""Panel ingestion, merging, slicing, and aggregation."""

import io

import numpy as np
import pytest

from factorregimes import (
    FactorPanel,
    PanelParseError,
    SchemaError,
    merge_on_dates,
    parse_ff_daily_csv,
    read_labels_csv,
    read_panel_csv,
    slice_dates,
    volatility_norm,
    write_labels_csv,
    write_panel_csv,
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

    @pytest.mark.parametrize("row", ["2020-01-07,0,1", "2020-01-07"])
    def test_labels_wrong_field_count_reports_line(self, row):
        text = f"date,regime\n2020-01-06,0\n{row}\n"
        with pytest.raises(PanelParseError,
                           match="line 3: expected 'date,regime'"):
            read_labels_csv(io.StringIO(text))

    def test_labels_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"date,regime\n2020-01-06,0\n2020-01-07,\xff\n")
        with pytest.raises(PanelParseError, match="line 3"):
            read_labels_csv(path)
