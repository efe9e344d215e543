"""Min-max scaling and windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoforecast import (
    DegenerateScaleError,
    InsufficientDataError,
    ScalerParams,
    fit_scaler,
    inverse_transform,
    make_windows,
    transform,
)


class TestFitScaler:
    def test_extrema(self):
        scaler = fit_scaler([2.0, 4.0, 10.0])
        assert scaler.min_value == 2.0
        assert scaler.max_value == 10.0

    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateScaleError):
            fit_scaler([5.0, 5.0, 5.0])

    def test_single_value_degenerate(self):
        with pytest.raises(DegenerateScaleError):
            fit_scaler([7.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler([1.0, np.nan, 3.0])


class TestTransform:
    def test_endpoints_and_midpoint(self):
        scaler = ScalerParams(2.0, 10.0)
        out = transform(scaler, [2.0, 10.0, 6.0])
        assert out.tolist() == [0.0, 1.0, 0.5]

    def test_extrapolates_beyond_training_max(self):
        scaler = ScalerParams(2.0, 10.0)
        assert transform(scaler, [12.0])[0] == 1.25

    def test_identity_scaler(self):
        scaler = ScalerParams(0.0, 1.0)
        values = np.array([0.3, 0.7])
        assert np.array_equal(transform(scaler, values), values)

    def test_fitted_data_maps_to_exact_unit_interval(self, rng):
        values = rng.uniform(10.0, 500.0, size=200)
        scaler = fit_scaler(values)
        out = transform(scaler, values)
        assert out.min() == 0.0
        assert out.max() == 1.0


class TestInverseTransform:
    def test_midpoint(self):
        assert inverse_transform(ScalerParams(2.0, 10.0), [0.5])[0] == 6.0

    def test_extrapolated_value(self):
        assert inverse_transform(ScalerParams(2.0, 10.0), [1.25])[0] == 12.0

    def test_round_trip_single_value(self):
        scaler = ScalerParams(2.0, 10.0)
        x = 3.7
        back = inverse_transform(scaler, transform(scaler, [x]))[0]
        assert abs(back - x) <= 1e-12 * abs(x)

    @settings(max_examples=200)
    @given(
        lo=st.floats(min_value=0.01, max_value=1e6),
        span=st.floats(min_value=1e-3, max_value=1e6),
        frac=st.floats(min_value=-2.0, max_value=3.0),
    )
    def test_round_trip_property(self, lo, span, frac):
        # x anywhere within a few spans of the fitted range
        scaler = ScalerParams(lo, lo + span)
        x = lo + frac * span
        back = inverse_transform(scaler, transform(scaler, [x]))[0]
        assert abs(back - x) <= 1e-12 * max(abs(x), scaler.span)


class TestMakeWindows:
    def test_window_layout(self):
        batch = make_windows([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        assert batch.inputs.tolist() == [[1, 2], [2, 3], [3, 4]]
        assert batch.targets.tolist() == [3, 4, 5]
        assert batch.origin_indices.tolist() == [2, 3, 4]

    def test_length_equal_to_lookback_rejected(self):
        with pytest.raises(InsufficientDataError):
            make_windows(np.arange(60, dtype=float), 60)

    def test_length_one_past_lookback_gives_one_window(self):
        batch = make_windows(np.arange(61, dtype=float), 60)
        assert len(batch) == 1
        assert batch.targets[0] == 60.0

    def test_bad_lookback_rejected(self):
        with pytest.raises(ValueError):
            make_windows([1.0, 2.0], 0)

    @pytest.mark.parametrize("lookback, kind", [(True, "bool"), (2.0, "float"), (np.int64(2), "int64")])
    def test_lookback_of_the_wrong_type_rejected_by_name(self, lookback, kind):
        # True made one-value windows; 2.0 failed inside numpy
        with pytest.raises(TypeError, match=f"^lookback must be an integer, got {kind}$"):
            make_windows([1.0, 2.0, 3.0, 4.0], lookback)

    @settings(max_examples=100)
    @given(n=st.integers(min_value=2, max_value=400), w=st.integers(min_value=1, max_value=80))
    def test_window_count_property(self, n, w):
        values = np.linspace(0.0, 1.0, n)
        if n <= w:
            with pytest.raises(InsufficientDataError):
                make_windows(values, w)
        else:
            batch = make_windows(values, w)
            assert len(batch) == n - w

    def test_no_future_leakage(self, rng):
        values = rng.uniform(size=100)
        batch = make_windows(values, 7)
        for k in range(len(batch)):
            target_idx = batch.origin_indices[k]
            input_indices = np.arange(target_idx - 7, target_idx)
            assert input_indices.max() < target_idx
            assert np.array_equal(batch.inputs[k], values[input_indices])
