"""Min-max scaling and lookback windowing for one-step-ahead forecasting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AT_LEAST_ONE, DegenerateScaleError, InsufficientDataError, check

LOOKBACK_RULE = AT_LEAST_ONE  # make_windows's lookback (errors.check)


@dataclass(frozen=True)
class ScalerParams:
    """Fitted min/max mapping the training range onto [0, 1].

    Values outside the fitted range (common for unseen test data) map
    outside [0, 1]; that is expected, not an error.
    """

    min_value: float
    max_value: float

    def __post_init__(self):
        if not (self.max_value > self.min_value):
            raise DegenerateScaleError(
                f"max ({self.max_value}) must exceed min ({self.min_value}); constant data cannot be scaled"
            )

    @property
    def span(self) -> float:
        return self.max_value - self.min_value


@dataclass(frozen=True)
class SequenceBatch:
    """Lookback windows paired with the value immediately following each one.

    ``inputs`` has shape (n, lookback), ``targets`` shape (n,), and
    ``origin_indices[k]`` is the index of target k in the source array.
    Every input index strictly precedes its target index, so no window can
    see its own future.
    """

    inputs: np.ndarray
    targets: np.ndarray
    origin_indices: np.ndarray

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=np.float64)
        targets = np.array(self.targets, dtype=np.float64)
        origin = np.array(self.origin_indices, dtype=np.int64)
        for arr in (inputs, targets, origin):
            arr.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "origin_indices", origin)
        if inputs.ndim != 2:
            raise ValueError("inputs must be 2-D (windows x lookback)")
        if not (inputs.shape[0] == targets.shape[0] == origin.shape[0]):
            raise ValueError("inputs, targets and origin_indices must align")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def fit_scaler(train_values) -> ScalerParams:
    """Fit min/max on the training values only (test extrema must not leak)."""
    arr = np.asarray(train_values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot fit a scaler on empty data")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scaler input must be finite")
    return ScalerParams(min_value=float(arr.min()), max_value=float(arr.max()))


def transform(scaler: ScalerParams, values) -> np.ndarray:
    """Map v to (v - min) / (max - min)."""
    arr = np.asarray(values, dtype=np.float64)
    return (arr - scaler.min_value) / scaler.span


def inverse_transform(scaler: ScalerParams, normalized) -> np.ndarray:
    """Exact algebraic inverse of :func:`transform`."""
    arr = np.asarray(normalized, dtype=np.float64)
    return arr * scaler.span + scaler.min_value


def make_windows(values, lookback: int) -> SequenceBatch:
    """Build every length-``lookback`` window with its one-step-ahead target.

    Window k covers ``values[k .. k+lookback-1]`` and predicts
    ``values[k+lookback]``, giving ``len(values) - lookback`` windows.
    """
    check("lookback", lookback, LOOKBACK_RULE)
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("values must be 1-D")
    n = arr.shape[0] - lookback
    if n <= 0:
        raise InsufficientDataError(
            f"need more than {lookback} values to build windows, got {arr.shape[0]}"
        )
    inputs = np.lib.stride_tricks.sliding_window_view(arr, lookback)[:n]
    return SequenceBatch(
        inputs=inputs,
        targets=arr[lookback:],
        origin_indices=np.arange(lookback, arr.shape[0], dtype=np.int64),
    )
