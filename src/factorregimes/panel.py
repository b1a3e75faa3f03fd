"""Daily factor-return panels: loading, merging, slicing, aggregation.

A panel is a dated T x d matrix of daily returns in percent units, exactly
as published by the data provider. Cleaning drops whole rows containing
the provider's missing-data sentinels (-99.99 / -999) so every surviving
row is a complete observation vector.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date as _date
from typing import Sequence

import numpy as np

from .errors import PanelParseError, SchemaError

SENTINELS = (-99.99, -999.0)

FF5_COLUMNS = ("MKT-RF", "SMB", "HML", "RMW", "CMA")
# (source, target) of the hypothesis every single-pair test runs: HML -> SMB
TESTED_PAIR = ("HML", "SMB")
MOMENTUM_COLUMNS = ("MOM",)
SIX_FACTOR_NAMES = FF5_COLUMNS + MOMENTUM_COLUMNS


def as_date64(value) -> np.datetime64:
    """Coerce str / datetime.date / datetime64 to numpy datetime64[D]."""
    if isinstance(value, np.datetime64):
        return value.astype("datetime64[D]")
    if isinstance(value, _date):
        return np.datetime64(value.isoformat(), "D")
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
    factor_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype="datetime64[D]").copy()
        returns = np.array(self.returns, dtype=float, copy=True)
        if returns.ndim != 2:
            returns = returns.reshape(len(dates), -1)
        names = tuple(str(n) for n in self.factor_names)
        if not names:
            names = tuple(f"F{i}" for i in range(returns.shape[1]))
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


def _parse_date_token(token: str, line_number: int) -> np.datetime64:
    token = token.strip()
    try:
        if len(token) == 8 and token.isdigit():
            iso = f"{token[:4]}-{token[4:6]}-{token[6:8]}"
        else:
            iso = token
        return np.datetime64(iso, "D")
    except ValueError:
        raise PanelParseError(f"malformed date token {token!r}", line_number) from None


def _looks_like_date(token: str) -> bool:
    token = token.strip()
    if len(token) == 8 and token.isdigit():
        return True
    return len(token) == 10 and token[4] == "-" and token[7] == "-"


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


@contextmanager
def _open_output(target):
    """A text stream to write to: `target` itself when it has a write
    method, else the file at that path, opened here and closed on exit."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", encoding="utf-8") as fh:
            yield fh


def parse_ff_daily_csv(source, expected_columns: Sequence[str]) -> FactorPanel:
    """Parse a daily factor CSV in the data library's distribution format.

    The file may carry preamble lines before the header and footer blocks
    (e.g. annual tables) after the last daily row. The header row is the
    first line naming every requested column (matched case-insensitively);
    the first field of each data row is the date, YYYYMMDD or ISO. Rows
    where any requested column is missing, non-finite, or equal to a
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

    col_index: dict[str, int] | None = None
    header_line = 0
    for i, line in enumerate(lines):
        fields = [f.strip().upper() for f in line.split(",")]
        if all(key in fields for key in wanted_keys):
            col_index = {key: fields.index(key) for key in wanted_keys}
            header_line = i
            break
    if col_index is None:
        present = set()
        for line in lines:
            present.update(f.strip().upper() for f in line.split(","))
        missing = [w for w, k in zip(wanted, wanted_keys) if k not in present]
        raise SchemaError(f"columns not found in any header row: {missing}")

    dates: list[np.datetime64] = []
    rows: list[list[float]] = []
    for i in range(header_line + 1, len(lines)):
        line = lines[i].strip()
        if not line:
            if dates:
                break  # footer reached
            continue
        first = line.split(",", 1)[0]
        if not _looks_like_date(first):
            if dates:
                break  # footer block (e.g. annual table header)
            continue  # still in preamble
        fields = line.split(",")
        d = _parse_date_token(first, i + 1)
        row = []
        ok = True
        for key in wanted_keys:
            j = col_index[key]
            if j >= len(fields):
                ok = False
                break
            try:
                v = float(fields[j])
            except ValueError:
                raise PanelParseError(
                    f"malformed value {fields[j]!r} in column {key}", i + 1
                ) from None
            if not np.isfinite(v) or any(v == s for s in SENTINELS):
                ok = False
                break
            row.append(v)
        if ok:
            dates.append(d)
            rows.append(row)

    returns = np.array(rows, dtype=float).reshape(len(dates), len(wanted))
    return FactorPanel(np.array(dates, dtype="datetime64[D]"), returns, tuple(wanted))


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


def slice_dates(p: FactorPanel, start, end) -> FactorPanel:
    """Rows with start <= date <= end, order preserved. May be empty."""
    start = as_date64(start)
    end = as_date64(end)
    if start > end:
        raise ValueError(f"start {start} is after end {end}")
    keep = (p.dates >= start) & (p.dates <= end)
    return FactorPanel(p.dates[keep], p.returns[keep], p.factor_names)


def volatility_norm(p: FactorPanel) -> np.ndarray:
    """Per-day Euclidean norm of the factor-return vector, aligned with p.dates."""
    if p.n_days == 0:
        raise ValueError("panel is empty")
    return np.linalg.norm(p.returns, axis=1)


def write_panel_csv(p: FactorPanel, path_or_buf) -> None:
    """Write the canonical form: header `date,<names>`, ISO dates, 6 decimals."""
    with _open_output(path_or_buf) as fh:
        fh.write("date," + ",".join(p.factor_names) + "\n")
        for d, row in zip(p.dates, p.returns):
            fh.write(str(d) + "," + ",".join(f"{v:.6f}" for v in row) + "\n")


def read_panel_csv(source) -> FactorPanel:
    """Read a canonical panel CSV (the output format of write_panel_csv)
    from a path (str or os.PathLike) or a text stream."""
    lines = _read_lines(source)
    if not lines:
        raise PanelParseError("empty input")
    header = [f.strip() for f in lines[0].split(",")]
    if not header or header[0].lower() != "date":
        raise PanelParseError("expected header starting with 'date'", 1)
    names = header[1:]
    if not names:
        raise SchemaError("no factor columns in header")
    return _parse_lines(lines, names)


def write_labels_csv(dates: np.ndarray, labels: np.ndarray, path) -> None:
    """Sidecar regime-label series: header `date,regime`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,regime\n")
        for d, z in zip(dates, labels):
            fh.write(f"{d},{int(z)}\n")


def read_labels_csv(source) -> tuple[np.ndarray, np.ndarray]:
    """Read a label series (the output format of write_labels_csv) from a
    path (str or os.PathLike) or a text stream."""
    lines = _read_lines(source)
    if not lines or lines[0].strip().lower() != "date,regime":
        raise PanelParseError("expected header 'date,regime'", 1)
    dates = []
    labels = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise PanelParseError(f"expected 'date,regime', got {line!r}", i)
        d, z = fields
        dates.append(_parse_date_token(d, i))
        try:
            labels.append(int(z))
        except ValueError:
            raise PanelParseError(f"malformed regime label {z!r}", i) from None
    return np.array(dates, dtype="datetime64[D]"), np.array(labels, dtype=int)
