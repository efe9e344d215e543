"""CSV ingestion, gap repair, and chronological splitting of daily price history.

The expected input is a Yahoo-Finance-style daily export:
``Date,Open,High,Low,Close,Adj Close,Volume`` with ISO ``YYYY-MM-DD`` dates.
Extra columns are tolerated; column matching is exact on header text.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DataError, InsufficientDataError, SchemaError, UnimputableError, check, quoted

DATE_COLUMN = "Date"
DEFAULT_PRICE_COLUMN = "Close"
TRAIN_FRACTION_RULE = (float, lambda v: 0.0 < v < 1.0, "in (0, 1)")  # SplitSpec's train_fraction (errors.check)


@dataclass(frozen=True)
class PriceSeries:
    """Daily price observations for one asset.

    ``values`` is a float64 array aligned with ``dates``; missing
    observations are stored as NaN.  Present values must be finite and
    strictly positive, and dates must be strictly increasing.
    """

    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != values.shape[0]:
            raise ValueError("dates and values must have equal length")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur == prev:
                raise DataError(f"duplicate date {prev.isoformat()}")
            if cur < prev:
                raise DataError(f"dates out of order at {cur.isoformat()}")
        present = values[~np.isnan(values)]
        if present.size:
            if not np.all(np.isfinite(present)):
                raise DataError("present prices must be finite")
            if np.any(present <= 0.0):
                raise DataError("present prices must be strictly positive")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def missing_count(self) -> int:
        return int(np.isnan(self.values).sum())


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/test split ratio."""

    train_fraction: float = 0.8

    def __post_init__(self):
        check("train_fraction", self.train_fraction, TRAIN_FRACTION_RULE)


def _parse_price_cell(cell: str, lineno: int):
    """Empty or non-numeric cells are missing markers; bad numerics are errors."""
    text = cell.strip()
    if not text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    if math.isnan(value):
        return math.nan
    if math.isinf(value):
        raise DataError(f"line {lineno}: non-finite price {quoted(text)}")
    if value <= 0.0:
        raise DataError(f"line {lineno}: non-positive price {quoted(text)}")
    return value


def parse_ohlcv(csv_text: str, price_column: str = DEFAULT_PRICE_COLUMN) -> PriceSeries:
    """Parse one daily OHLCV export into a univariate :class:`PriceSeries`.

    Only ``Date`` and ``price_column`` are read; other columns are ignored.
    Rows are sorted by date before validation, so out-of-order exports are
    accepted.  Blank, ``null``, or otherwise non-numeric price cells become
    missing markers to be repaired by :func:`impute_locf`.
    """
    reader = csv.reader(io.StringIO(csv_text))
    rows: list[tuple[date, float]] = []
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("CSV has no header row")
        shown = "[" + ", ".join(map(quoted, header)) + "]"
        if DATE_COLUMN not in header:
            raise SchemaError(f"CSV header lacks a {DATE_COLUMN!r} column: {shown}")
        if price_column not in header:
            raise SchemaError(f"CSV header lacks price column {price_column!r}: {shown}")
        read = reader.line_num  # physical lines read so far, blank lines counted
        for record in reader:
            lineno, read = read + 1, reader.line_num  # the physical line the record starts on
            if not record:  # a blank line
                continue
            row = dict(zip(header, record))  # as csv.DictReader: a repeated header name reads its last column
            raw_date = (row.get(DATE_COLUMN) or "").strip()
            if not raw_date:
                raise DataError(f"line {lineno}: empty Date cell")
            try:
                day = date.fromisoformat(raw_date)
            except ValueError:
                raise DataError(f"line {lineno}: date {quoted(raw_date)} is not YYYY-MM-DD") from None
            rows.append((day, _parse_price_cell(row.get(price_column) or "", lineno)))
    except csv.Error as exc:  # e.g. a lone carriage return inside a cell; the csv reader counts physical lines
        raise DataError(f"line {reader.line_num}: malformed CSV: {exc}") from None

    rows.sort(key=lambda item: item[0])
    dates = tuple(day for day, _ in rows)
    values = np.array([value for _, value in rows], dtype=np.float64)
    return PriceSeries(dates=dates, values=values)


def impute_locf(series: PriceSeries) -> PriceSeries:
    """Replace each missing value with the nearest earlier present value.

    Idempotent; present values are never touched.  Raises
    :class:`UnimputableError` when the series starts with a gap, since no
    earlier observation exists to carry forward.
    """
    values = series.values
    missing = np.isnan(values)
    if not missing.any():
        return series
    if missing[0]:
        raise UnimputableError(
            f"first observation ({series.dates[0].isoformat()}) is missing; nothing to carry forward"
        )
    last_present = np.where(~missing, np.arange(len(values)), 0)
    np.maximum.accumulate(last_present, out=last_present)
    return PriceSeries(dates=series.dates, values=values[last_present])


def chronological_split(series: PriceSeries, spec: SplitSpec = SplitSpec()) -> tuple[PriceSeries, PriceSeries]:
    """Split into (train, test) preserving time order, no shuffling.

    The train segment takes the first ``floor(n * train_fraction)`` entries,
    test takes the remainder, so concatenating the two reconstructs the
    input exactly.  Test data is never empty: for 0 < f < 1, n * f rounds
    below n in binary64, so the floor is at most n - 1.
    """
    if np.isnan(series.values).any():
        raise ValueError("series must be fully imputed before splitting")
    n = len(series)
    n_train = math.floor(n * spec.train_fraction)
    if n_train == 0:
        raise InsufficientDataError(f"split of {n} points at {spec.train_fraction} leaves no training data")
    train = PriceSeries(series.dates[:n_train], series.values[:n_train])
    test = PriceSeries(series.dates[n_train:], series.values[n_train:])
    return train, test
