"""Parsing, imputation, and splitting of daily OHLCV history."""

from datetime import date, timedelta

import numpy as np
import pytest

from cryptoforecast import (
    DataError,
    InsufficientDataError,
    SchemaError,
    SplitSpec,
    UnimputableError,
    chronological_split,
    impute_locf,
    parse_ohlcv,
)
from cryptoforecast.ingest import PriceSeries

from conftest import make_csv


def daily_series(values, start=date(2020, 1, 1), symbol="TST"):
    dates = tuple(start + timedelta(days=k) for k in range(len(values)))
    return PriceSeries(symbol=symbol, dates=dates, values=np.array(values, dtype=float))


class TestParseOhlcv:
    def test_two_well_formed_rows(self):
        text = make_csv([("2019-01-01", 3843.52), ("2019-01-02", 3943.41)])
        series = parse_ohlcv(text, "Close")
        assert len(series) == 2
        assert series.missing_count == 0
        assert series.values.tolist() == [3843.52, 3943.41]
        assert series.dates == (date(2019, 1, 1), date(2019, 1, 2))

    def test_blank_cell_becomes_missing(self):
        text = make_csv([("2019-01-01", 10.0), ("2019-01-02", None), ("2019-01-03", 12.0)])
        series = parse_ohlcv(text, "Close")
        assert series.missing_count == 1
        assert np.isnan(series.values[1])

    @pytest.mark.parametrize("cell", ["null", "NULL", "n/a", "-"])
    def test_non_numeric_cell_becomes_missing(self, cell):
        text = f"Date,Close\n2019-01-01,5.0\n2019-01-02,{cell}\n"
        series = parse_ohlcv(text, "Close")
        assert np.isnan(series.values[1])

    def test_duplicate_date_rejected(self):
        text = make_csv([("2019-01-01", 10.0), ("2019-01-01", 11.0)])
        with pytest.raises(DataError, match="duplicate"):
            parse_ohlcv(text, "Close")

    def test_rows_sorted_before_validation(self):
        text = make_csv([("2019-01-03", 12.0), ("2019-01-01", 10.0), ("2019-01-02", 11.0)])
        series = parse_ohlcv(text, "Close")
        assert series.values.tolist() == [10.0, 11.0, 12.0]

    def test_missing_price_column_is_schema_error(self):
        text = make_csv([("2019-01-01", 10.0)])
        with pytest.raises(SchemaError, match="Typical"):
            parse_ohlcv(text, "Typical")

    def test_missing_date_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="Date"):
            parse_ohlcv("Close\n5.0\n", "Close")

    def test_empty_text_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_ohlcv("", "Close")

    def test_non_positive_price_rejected(self):
        text = make_csv([("2019-01-01", 10.0), ("2019-01-02", -3.0)])
        with pytest.raises(DataError, match="non-positive"):
            parse_ohlcv(text, "Close")

    def test_zero_price_rejected(self):
        text = make_csv([("2019-01-01", 10.0), ("2019-01-02", 0.0)])
        with pytest.raises(DataError):
            parse_ohlcv(text, "Close")

    def test_bad_date_rejected(self):
        with pytest.raises(DataError, match="YYYY-MM-DD"):
            parse_ohlcv("Date,Close\n01/02/2019,5.0\n", "Close")

    @pytest.mark.parametrize("text, line", [
        ("Date,Close\n2020-01-01,1\r2\n", 2),  # a lone carriage return inside a cell
        ("Date,Close\n2020-01-01,1\n2020-01-02,3\r4\n", 3),
        ("Da\rte,Close\n2020-01-01,1\n", 1),
    ], ids=["first_row", "second_row", "header"])
    def test_malformed_csv_is_data_error_naming_the_line(self, text, line):
        with pytest.raises(DataError, match=f"^line {line}: malformed CSV: "):  # was a bare csv.Error
            parse_ohlcv(text, "Close")

    @pytest.mark.parametrize("text, line, message", [
        ("Date,Close\n\n2020-01-01,1\n\n2020-13-01,1\n", 5, "date '2020-13-01' is not YYYY-MM-DD"),  # was row 3
        ("Date,Close\n\n2020-01-01,1\n\n2020-01-02,-1\n", 5, "non-positive price '-1'"),
        ('Date,Close,Note\n2020-01-01,1,"two\nlines"\n\n,1,x\n', 5, "empty Date cell"),
        # a record that spans lines is named by the line it starts on, after a blank line (was line 4)
        ('Date,Close\n\n"2020-\n13-01",1\n', 3, r"date '2020-\\n13-01' is not YYYY-MM-DD"),
    ], ids=["date", "price", "empty_date", "record_spanning_lines"])
    def test_data_errors_name_the_physical_line(self, text, line, message):
        with pytest.raises(DataError, match=f"^line {line}: {message}$"):
            parse_ohlcv(text, "Close")

    @pytest.mark.parametrize("text, error, cell", [
        # an unbalanced quote makes a Date cell, or a header cell, the whole rest of the file
        (make_csv([("2019-01-01", 10.0), ('"2019-01-02', 11.0)] + [("2019-01-03", 12.0)] * 26), DataError, "date"),
        ('Date,"Close\n' + "2019-01-01,10.0\n" * 27, SchemaError, "header"),
        (make_csv([("2019-01-01", "-0." + "0" * 80 + "1")]), DataError, "price"),
    ], ids=["date", "header", "price"])
    def test_diagnostics_quote_at_most_40_characters_of_a_cell(self, text, error, cell):
        with pytest.raises(error) as info:
            parse_ohlcv(text, "Close")
        assert len(str(info.value)) <= 100 and "'..." in str(info.value), cell

    def test_extra_columns_tolerated_and_column_selectable(self):
        text = "Date,Open,Close,Extra\n2019-01-01,9.0,10.0,x\n2019-01-02,9.5,10.5,y\n"
        series = parse_ohlcv(text, "Open")
        assert series.values.tolist() == [9.0, 9.5]


class TestImputeLocf:
    def test_single_gap(self):
        series = daily_series([10.0, np.nan, 12.0])
        out = impute_locf(series)
        assert out.values.tolist() == [10.0, 10.0, 12.0]

    def test_trailing_run_of_gaps(self):
        series = daily_series([10.0, np.nan, np.nan])
        out = impute_locf(series)
        assert out.values.tolist() == [10.0, 10.0, 10.0]

    def test_complete_series_unchanged(self):
        series = daily_series([10.0, 11.0, 12.0])
        out = impute_locf(series)
        assert out is series

    def test_leading_gap_unimputable(self):
        series = daily_series([np.nan, 11.0])
        with pytest.raises(UnimputableError):
            impute_locf(series)

    def test_idempotent(self, rng):
        values = rng.uniform(1.0, 9.0, size=50)
        values[rng.integers(1, 50, size=12)] = np.nan
        once = impute_locf(daily_series(values))
        twice = impute_locf(once)
        assert np.array_equal(once.values, twice.values)

    def test_preserves_present_values(self, rng):
        values = rng.uniform(1.0, 9.0, size=40)
        mask = np.zeros(40, dtype=bool)
        mask[rng.integers(1, 40, size=10)] = True
        with_gaps = np.where(mask, np.nan, values)
        out = impute_locf(daily_series(with_gaps))
        assert out.missing_count == 0
        assert np.array_equal(out.values[~mask], values[~mask])


class TestChronologicalSplit:
    def test_ten_points_at_080(self):
        train, test = chronological_split(daily_series(range(1, 11)), SplitSpec(0.8))
        assert len(train) == 8
        assert len(test) == 2

    def test_five_points_at_050_floors_train(self):
        train, test = chronological_split(daily_series([1, 2, 3, 4, 5]), SplitSpec(0.5))
        assert len(train) == 2
        assert len(test) == 3

    def test_five_year_daily_boundary(self):
        start = date(2019, 1, 1)
        n = (date(2024, 1, 1) - start).days + 1
        series = daily_series(np.linspace(100.0, 200.0, n), start=start)
        train, test = chronological_split(series, SplitSpec(0.8))
        # 80% of a 2019-2024 daily span trains on 2019 through 2022, testing on 2023
        assert train.dates[-1] == date(2022, 12, 31)
        assert test.dates[0] == date(2023, 1, 1)
        assert test.dates[-1] == date(2024, 1, 1)

    def test_round_trip_concatenation(self, rng):
        for n in (10, 37, 100):
            values = rng.uniform(1.0, 5.0, size=n)
            series = daily_series(values)
            train, test = chronological_split(series, SplitSpec(0.8))
            rejoined = np.concatenate([train.values, test.values])
            assert np.array_equal(rejoined, series.values)
            assert train.dates + test.dates == series.dates

    def test_degenerate_splits_rejected(self):
        # too short to yield a nonempty train segment
        with pytest.raises(InsufficientDataError):
            chronological_split(daily_series([1.0, 2.0]), SplitSpec(0.2))
        with pytest.raises(InsufficientDataError):
            chronological_split(daily_series([1.0]), SplitSpec(0.8))

    def test_unimputed_series_rejected(self):
        with pytest.raises(ValueError, match="imputed"):
            chronological_split(daily_series([1.0, np.nan, 3.0] * 4), SplitSpec(0.8))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SplitSpec(0.0)
        with pytest.raises(ValueError):
            SplitSpec(1.0)

    def test_fraction_of_the_wrong_type_rejected_by_name(self):
        # was a bare comparison TypeError ("'<' not supported between ...")
        with pytest.raises(TypeError, match="^train_fraction must be a number, got str$"):
            SplitSpec("0.5")


class TestPriceSeriesInvariants:
    def test_out_of_order_dates_rejected(self):
        with pytest.raises(DataError):
            PriceSeries("X", (date(2020, 1, 2), date(2020, 1, 1)), np.array([1.0, 2.0]))

    def test_parser_output_is_monotone(self, rng):
        days = rng.permutation(200)[:60]
        rows = [((date(2019, 1, 1) + timedelta(days=int(d))).isoformat(), 1.0 + d) for d in days]
        series = parse_ohlcv(make_csv(rows), "Close")
        assert all(a < b for a, b in zip(series.dates, series.dates[1:]))

    def test_values_read_only(self):
        series = daily_series([1.0, 2.0])
        with pytest.raises(ValueError):
            series.values[0] = 5.0
