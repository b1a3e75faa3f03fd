"""Daily factor-return panels: reading, merging, slicing, writing.

A panel is a dated T x d matrix of daily returns in percent units, exactly
as published by the data provider. Cleaning drops whole rows containing
the provider's missing-data sentinels (-99.99 / -999) so every surviving
row is a complete observation vector.

The panel readers share one rule for the daily rows: after the header, a
line whose first field starts with a digit is a data row, and the first
other line after one ends them; once the rows have begun, a line led by
U+FFFD (a byte that was not UTF-8) is a corrupt data row, not their end.
A data row's date is YYYYMMDD or YYYY-MM-DD, later than the previous kept
row's; a malformed or out-of-order date, or a malformed value, raises
PanelParseError with its line.

The readers convert in bulk and look at single rows only on failure, as
`_to_dates` does for the dates: a panel's value columns go through one
`np.loadtxt` call, and a label file whose body is all `YYYY-MM-DD,<digits>`
lines through one more. When a bulk conversion raises, the row-by-row code
runs instead: it reads a short row's missing fields as NaN, so the row is
dropped, reads the cells that only Python's float() accepts (digit
separators, non-ASCII digits), and names the first malformed cell or row
with its line.

Every CSV table goes through one writer: a header line, then per row the
cells format(value, spec), or empty for None, joined by commas, unquoted;
a comma or a line break (as str.splitlines finds them) in a column name
or a cell raises ValueError, and nothing is written.
"""

from __future__ import annotations

import os
import re
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import PanelParseError, SchemaError

SENTINELS = (-99.99, -999.0)

FF5_COLUMNS = ("MKT-RF", "SMB", "HML", "RMW", "CMA")
MOMENTUM_COLUMNS = ("MOM",)
SIX_FACTOR_NAMES = FF5_COLUMNS + MOMENTUM_COLUMNS
# (source, target) of the hypothesis every single-pair test runs: HML -> SMB
TESTED_PAIR = ("HML", "SMB")
TESTED_LAG = 9  # the pair's fixed lag in the per-event and transition tests
# the other paper settings that are CLI defaults, kept here so that the
# parser needs no module beyond this one
DEFAULT_L_MAX = 15  # largest lag of the BIC lag search
DEFAULT_ALPHA = 0.01  # family-wise level of the pairwise matrix
PEAK_HORIZON = 90  # trading days searched for the volatility peak
SIGNAL_WINDOW = 9  # trading days of the strategy's trailing HML return


def as_date64(value) -> np.datetime64:
    """Coerce str / datetime.date / datetime64 to numpy datetime64[D]."""
    if isinstance(value, np.datetime64):
        return value.astype("datetime64[D]")
    return np.datetime64(str(value), "D")


@dataclass(frozen=True)
class FactorPanel:
    """Immutable dated return matrix.

    dates        : (T,) datetime64[D], strictly increasing trading days
    returns      : (T, d) float64, daily returns in percent
    factor_names : d distinct column labels
    """

    dates: np.ndarray
    returns: np.ndarray
    factor_names: tuple[str, ...]

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype="datetime64[D]").copy()
        returns = np.array(self.returns, dtype=float, copy=True)
        if returns.ndim != 2:
            raise ValueError(f"returns must be 2-D, got {returns.ndim}-D")
        names = tuple(str(n) for n in self.factor_names)
        if len(dates) != returns.shape[0]:
            raise ValueError(
                f"{len(dates)} dates but {returns.shape[0]} return rows"
            )
        if len(names) != returns.shape[1]:
            raise ValueError(
                f"{len(names)} factor names but {returns.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise ValueError(f"factor names must be distinct, got {names}")
        if len(dates) > 1 and not np.all(dates[1:] > dates[:-1]):
            raise ValueError("dates must be strictly increasing")
        if returns.size and not np.all(np.isfinite(returns)):
            raise ValueError("returns contain non-finite values")
        dates.flags.writeable = False
        returns.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "factor_names", names)

    @property
    def n_days(self) -> int:
        return self.returns.shape[0]

    @property
    def n_factors(self) -> int:
        return self.returns.shape[1]

    def column(self, name: str) -> np.ndarray:
        """Return series of one factor, by name."""
        try:
            j = self.factor_names.index(name)
        except ValueError:
            raise SchemaError(
                f"factor {name!r} not in panel columns {self.factor_names}"
            ) from None
        return self.returns[:, j]


# A date token is exactly YYYYMMDD or YYYY-MM-DD.
_DATE_TOKEN = re.compile(r"[0-9]{8}|[0-9]{4}-[0-9]{2}-[0-9]{2}")
# date tokens, each ended by a line break: one match checks them all
_DATE_COLUMN = re.compile(rf"(?:(?:{_DATE_TOKEN.pattern})\n)*")
# A regime label is what write_labels_csv writes: ASCII digits, maybe negative.
_LABEL_TOKEN = re.compile(r"-?[0-9]+")
# the body of a label file as write_labels_csv writes it, each line ended
_LABEL_BODY = re.compile(r"(?:[0-9]{4}-[0-9]{2}-[0-9]{2},-?[0-9]+\n)*")
# the characters at which str.splitlines, and so every reader here, ends a line
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
_TABLE_BLOCK_ROWS = 1024  # rows the table writer formats at once


def _to_dates(tokens: list[str], line_numbers: list[int]) -> np.ndarray:
    """datetime64[D] of stripped date tokens in one conversion. A token of
    another shape, or a month or day out of range, raises PanelParseError
    with the line number of the first such token."""
    iso = [f"{t[:4]}-{t[4:6]}-{t[6:]}" if len(t) == 8 else t for t in tokens]
    if _DATE_COLUMN.fullmatch("\n".join([*tokens, ""])):
        try:
            return np.array(iso, dtype="datetime64[D]")
        except ValueError:  # a month or day out of range
            pass
    for token, date, line_number in zip(tokens, iso, line_numbers):
        try:
            if not _DATE_TOKEN.fullmatch(token):
                raise ValueError
            np.datetime64(date, "D")
        except ValueError:
            raise PanelParseError(
                f"malformed date token {token!r}", line_number) from None


def _check_order(dates: np.ndarray, line_numbers: np.ndarray,
                 previous: str) -> None:
    """PanelParseError at the line of the first date that is not after the
    date before it."""
    late = np.flatnonzero(dates[1:] <= dates[:-1])
    if late.size:
        i = late[0] + 1
        raise PanelParseError(f"date {dates[i]} is not after the {previous} "
                              f"{dates[i - 1]}", int(line_numbers[i]))


def _read_lines(source) -> list[str]:
    """The lines of a text stream, or of the file at a path (str or
    os.PathLike), whatever its name."""
    if hasattr(source, "read"):
        return source.read().splitlines()
    if not isinstance(source, (str, os.PathLike)):
        raise TypeError(
            f"expected a path or a text stream, got {type(source).__name__}")
    with open(source, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()


def parse_ff_daily_csv(source, expected_columns: Sequence[str]) -> FactorPanel:
    """Parse a daily factor CSV in the data library's distribution format.

    The header row is the first line naming every requested column
    (matched case-insensitively). Other lines before the first data row are
    preamble; the first other line after it (blank, an annual table's title,
    a copyright line) ends the daily rows, each dated YYYYMMDD or YYYY-MM-DD.
    Rows where any requested column is missing, non-finite, or equal to a
    missing-data sentinel are dropped.

    `source` is a path (str or os.PathLike) or a text stream.
    """
    return _parse_lines(_read_lines(source), expected_columns)


def _parse_lines(lines: list[str], expected_columns: Sequence[str]) -> FactorPanel:
    """parse_ff_daily_csv on the file's lines."""
    wanted = [str(c) for c in expected_columns]
    wanted_keys = [c.strip().upper() for c in wanted]
    if len(set(wanted_keys)) != len(wanted_keys):
        raise SchemaError(f"requested columns not distinct: {wanted}")

    for header_line, line in enumerate(lines):
        header = [f.strip().upper() for f in line.split(",")]
        if all(key in header for key in wanted_keys):
            break
    else:
        present = set()
        for line in lines:
            present.update(f.strip().upper() for f in line.split(","))
        missing = [w for w, k in zip(wanted, wanted_keys) if k not in present]
        raise SchemaError(f"columns not found in any header row: {missing}")

    block: list[int] = []  # indices of the daily rows
    for i in range(header_line + 1, len(lines)):
        first = lines[i].lstrip()[:1]
        # U+FFFD replaced a byte that was not UTF-8: a corrupt row, not a footer
        if first.isdigit() or (block and first == "\ufffd"):
            block.append(i)
        elif block:
            break  # the first other line after the daily rows ends them
    rows = [lines[i].strip() for i in block]
    line_numbers = [i + 1 for i in block]
    dates = _to_dates([row.split(",", 1)[0].strip() for row in rows], line_numbers)
    idx = [header.index(key) for key in wanted_keys]
    try:
        values = (np.loadtxt(rows, delimiter=",", usecols=idx, comments=None,
                             ndmin=2) if rows else np.empty((0, len(idx))))
    except ValueError:  # a short row, or a cell only float() reads or none
        # a missing field reads as NaN, so its row is dropped with the others
        fields = [row.split(",") for row in rows]
        cells = [f[j] if j < len(f) else "nan" for f in fields for j in idx]
        try:
            values = np.array(cells, dtype=float).reshape(len(block), len(idx))
        except ValueError:
            for k, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    row, col = divmod(k, len(idx))
                    raise PanelParseError(
                        f"malformed value {cell!r} in column {wanted_keys[col]}",
                        line_numbers[row]) from None
            raise
    keep = np.isfinite(values).all(axis=1) & ~np.isin(values, SENTINELS).any(axis=1)
    _check_order(dates[keep], np.array(line_numbers)[keep], "previous kept row's")
    return FactorPanel(dates[keep], values[keep], tuple(wanted))


def merge_on_dates(a: FactorPanel, b: FactorPanel) -> FactorPanel:
    """Inner join of two panels on dates; columns of `a` precede columns of `b`."""
    overlap = set(a.factor_names) & set(b.factor_names)
    if overlap:
        raise ValueError(f"factor name sets must be disjoint, both have {sorted(overlap)}")
    common, ia, ib = np.intersect1d(a.dates, b.dates, return_indices=True)
    if common.size == 0:
        raise ValueError("no common dates between panels")
    returns = np.hstack([a.returns[ia], b.returns[ib]])
    return FactorPanel(common, returns, a.factor_names + b.factor_names)


def _in_range(dates: np.ndarray, start=None, end=None) -> np.ndarray:
    """Mask of start <= date <= end; a None bound leaves its side open, and
    a start after the end is a ValueError."""
    keep = np.ones(dates.shape, dtype=bool)
    if start is not None:
        start = as_date64(start)
        keep &= dates >= start
    if end is not None:
        end = as_date64(end)
        keep &= dates <= end
        if start is not None and start > end:
            raise ValueError(f"start {start} is after end {end}")
    return keep


def slice_dates(p: FactorPanel, start=None, end=None) -> FactorPanel:
    """Rows with start <= date <= end, order preserved; a None bound leaves
    its side open, so slice_dates(p, start) keeps every row from start on.
    May be empty."""
    keep = _in_range(p.dates, start, end)
    return FactorPanel(p.dates[keep], p.returns[keep], p.factor_names)


def _aligned(values, n: int | None, what: str, dtype=None) -> np.ndarray:
    """Any series argument as a 1-D array, of `dtype` if given, with n entries,
    else a ValueError; n None takes its own length, for a call's first one."""
    values = np.asarray(values, dtype=dtype)
    if values.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {values.shape}")
    if n is not None and values.shape[0] != n:
        raise ValueError(f"{what} must align with the panel rows: "
                         f"{values.shape[0]} {what} for {n} days")
    return values


def _tested_pair(p: FactorPanel) -> tuple[np.ndarray, np.ndarray]:
    """The target and source series of TESTED_PAIR, in that order."""
    source, target = TESTED_PAIR
    return p.column(target), p.column(source)


def volatility_norm(p: FactorPanel) -> np.ndarray:
    """Per-day Euclidean norm of the factor-return vector, aligned with p.dates."""
    if p.n_days == 0:
        raise ValueError("panel is empty")
    return np.linalg.norm(p.returns, axis=1)


def _write_table(target, header: Sequence[str], specs: Sequence[str], rows,
                 footer: str = "") -> None:
    """Write a CSV table and then `footer` to a path or a text stream, by the
    module docstring's rule, formatting and checking a block of rows at once."""
    rows, parts = iter(rows), []
    block, block_specs = [tuple(header)], [""] * len(header)
    while block:
        cells = [["" if v is None else format(v, spec) for v in column]
                 for spec, column in zip(block_specs, zip(*block))]
        text = "\n".join(map(",".join, zip(*cells))) + "\n"
        if (text.count(",") != len(block) * (len(header) - 1)
                or len(_LINE_BREAK.findall(text)) != len(block)):
            bad = [f"column {name!r}: {cell!r} holds a comma or line break"
                   for name, column in zip(header, cells) for cell in column
                   if "," in cell or _LINE_BREAK.search(cell)]
            raise ValueError((bad or ["a row's cells do not match the header"])[0])
        parts.append(text)
        block, block_specs = list(islice(rows, _TABLE_BLOCK_ROWS)), specs
    _write_text(target, [*parts, footer])


def _write_text(target, parts: Sequence[str]) -> None:
    """Write formatted text parts to a text stream, or to the file at a path
    as UTF-8: the one place an artifact file is opened for writing."""
    with (nullcontext(target) if hasattr(target, "write")
          else open(target, "w", encoding="utf-8")) as fh:
        fh.writelines(parts)


def write_panel_csv(p: FactorPanel, path_or_buf) -> None:
    """Write the canonical form: header `date,<names>`, ISO dates, 6 decimals."""
    _write_table(path_or_buf, ("date", *p.factor_names),
                 ("",) + (".6f",) * p.n_factors,
                 zip(np.datetime_as_string(p.dates).tolist(),
                     *p.returns.T.tolist()))


def read_panel_csv(source) -> FactorPanel:
    """Read a canonical panel CSV (the output format of write_panel_csv)
    from a path (str or os.PathLike) or a text stream."""
    lines = _read_lines(source)
    if not lines:
        raise PanelParseError("empty input")
    if "\ufffd" in lines[0]:
        raise PanelParseError("text is not valid UTF-8", 1)
    header = [f.strip() for f in lines[0].split(",")]
    if not header or header[0].lower() != "date":
        raise PanelParseError("expected header starting with 'date'", 1)
    names = header[1:]
    if not names:
        raise SchemaError("no factor columns in header")
    return _parse_lines(lines, names)


def write_labels_csv(dates: np.ndarray, labels: np.ndarray, path) -> None:
    """Sidecar regime-label series: header `date,regime`, one label per date."""
    days = np.datetime_as_string(dates)
    labels = _aligned(labels, len(dates), "labels")
    with np.errstate(invalid="ignore"):
        whole = labels.astype(int)
    bad = np.flatnonzero(whole != labels)
    if bad.size:
        raise ValueError(f"label {labels[bad[0]]} on {days[bad[0]]} "
                         f"is not a whole number")
    _write_table(path, ("date", "regime"), ("", "d"),
                 zip(days.tolist(), whole.tolist()))


def read_labels_csv(source) -> tuple[np.ndarray, np.ndarray]:
    """Read a label series (the output format of write_labels_csv) from a
    path (str or os.PathLike) or a text stream. Each date must be later
    than the previous row's, as in the panel readers."""
    lines = _read_lines(source)
    if not lines or lines[0].strip().lower() != "date,regime":
        raise PanelParseError("expected header 'date,regime'", 1)
    if len(lines) > 1 and _LABEL_BODY.fullmatch("\n".join([*lines[1:], ""])):
        try:
            table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=1,
                               dtype=[("date", "datetime64[D]"), ("regime", int)])
        except ValueError:  # a month or day out of range, or a huge label
            pass
        else:
            _check_order(table["date"], np.arange(2, len(lines) + 1),
                         "previous row's")
            return table["date"].copy(), table["regime"].copy()
    tokens, labels, line_numbers = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise PanelParseError(f"expected 'date,regime', got {line!r}", i)
        d, z = fields
        if not _LABEL_TOKEN.fullmatch(z.strip()):
            raise PanelParseError(f"malformed regime label {z!r}", i)
        labels.append(int(z))
        if not -2**63 <= labels[-1] < 2**63:
            raise PanelParseError(f"regime label {z.strip()} is outside the int64 "
                                  "range", i)
        tokens.append(d.strip())
        line_numbers.append(i)
    dates = _to_dates(tokens, line_numbers)
    _check_order(dates, np.array(line_numbers), "previous row's")
    return dates, np.array(labels, dtype=int)
