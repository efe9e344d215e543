"""Evaluation metrics and test-set reports.

Every report carries the four error measures twice: once on the
normalized scale the model was trained on, and once after inverting the
scaler back to prices.  MAPE divides by the signed actual value; with
positive prices the distinction is moot, on the normalized scale it can
matter and is kept as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import UndefinedMetricError
from .network import ModelParams, forward_batch
from .preprocess import ScalerParams, SequenceBatch, inverse_transform

# Evaluation batches are chunked to bound memory; fixed size keeps reruns
# byte-identical.  Per chunk, a tape-free forward streams: while a layer
# runs it holds the layer below's (T, chunk, directions*H) output buffer,
# its own, and small per-step buffers, and the top layer keeps one step;
# the kernels stream the input projection through a block buffer, so it is
# never held for all T steps.  Why 128 and not less: a paper-shape
# Bi-LSTM then scores within 15.4 MB, below the 17.5 MB that parsing its
# checkpoint takes, so a smaller chunk would lower no process's peak; and
# a full 128-row chunk keeps every H=100 product on the OpenBLAS path a
# 256-row one took while a fixture's 110-window tail chunk is unchanged,
# so paper-shape predictions keep their bits (chunks of 112 rows or fewer
# changed GRU predictions at H=100).
_EVAL_CHUNK = 128


def _validated(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.size == 0:
        raise ValueError(f"actual and predicted must be equal nonempty shapes, got {a.shape} vs {p.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise ValueError("metric inputs must be finite")
    return a, p


def mse_loss(predictions, targets) -> float:
    """Mean of squared residuals."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"predictions and targets must be equal nonempty shapes, got {p.shape} vs {t.shape}")
    d = p - t
    return float(np.mean(d * d))


def mae(actual, predicted) -> float:
    """Mean absolute difference."""
    a, p = _validated(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def rmse(actual, predicted) -> float:
    """Square root of the mean squared difference."""
    a, p = _validated(actual, predicted)
    return math.sqrt(mse_loss(p, a))


def mape(actual, predicted) -> float:
    """Mean absolute difference as a percentage of the actual value."""
    a, p = _validated(actual, predicted)
    if np.any(a == 0.0):
        raise UndefinedMetricError("MAPE is undefined when any actual value is zero")
    return float(100.0 * np.mean(np.abs(a - p) / a))


@dataclass(frozen=True)
class MetricSet:
    """The four error measures on one scale."""

    mse: float
    mae: float
    rmse: float
    mape: float

    @classmethod
    def compute(cls, actual, predicted) -> "MetricSet":
        mse = mse_loss(predicted, actual)
        return cls(mse=mse, mae=mae(actual, predicted), rmse=math.sqrt(mse), mape=mape(actual, predicted))

    def to_dict(self) -> dict:
        return {"mse": self.mse, "mae": self.mae, "rmse": self.rmse, "mape": self.mape}


@dataclass
class EvalReport:
    """Test-set evaluation at both scales plus the per-step prediction pairs."""

    normalized: MetricSet
    price: MetricSet
    pairs: list[tuple[date, float, float]]

    def to_dict(self) -> dict:
        return {
            "n": len(self.pairs),
            "normalized": self.normalized.to_dict(),
            "price": self.price.to_dict(),
            "pairs": [
                {"date": d.isoformat(), "actual": a, "predicted": p} for d, a, p in self.pairs
            ],
        }

    def pairs_csv(self) -> str:
        lines = ["date,actual,predicted"]
        lines.extend(f"{d.isoformat()},{a!r},{p!r}" for d, a, p in self.pairs)
        return "\n".join(lines) + "\n"


def predict_batch(model: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Tape-free predictions over many windows, in fixed-size chunks."""
    chunks = []
    for start in range(0, inputs.shape[0], _EVAL_CHUNK):
        preds, _ = forward_batch(model, inputs[start : start + _EVAL_CHUNK], store_tape=False)
        chunks.append(preds)
    return np.concatenate(chunks)


def _finite_metrics(scale: str, actual: np.ndarray, predicted: np.ndarray) -> MetricSet:
    """The four measures on ``scale``; :class:`UndefinedMetricError` if a prediction or one is not finite."""
    if not np.isfinite(predicted).all():
        raise UndefinedMetricError(f"{scale} predictions are not finite")
    metrics = MetricSet.compute(actual, predicted)
    for name, value in metrics.to_dict().items():
        if not math.isfinite(value):
            raise UndefinedMetricError(f"{scale} {name} is not finite")
    return metrics


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are reported below, not warned about
def evaluate(model: ModelParams, test_windows: SequenceBatch, scaler: ScalerParams, dates) -> EvalReport:
    """Run the model over the test windows and score it at both scales.

    ``dates`` must align one-to-one with the window targets.  The caller
    is expected to have built ``test_windows`` from scaler-transformed
    data with the final lookback's worth of training values prepended, so
    every test date receives a prediction.  A model whose predictions or
    metrics are not finite (it diverged) raises :class:`UndefinedMetricError`.
    """
    n = len(test_windows)
    if n == 0:
        raise ValueError("test window set is empty")
    dates = list(dates)
    if len(dates) != n:
        raise ValueError(f"got {len(dates)} dates for {n} windows")

    preds_norm = predict_batch(model, test_windows.inputs)
    actual_norm = test_windows.targets
    preds_price = inverse_transform(scaler, preds_norm)
    actual_price = inverse_transform(scaler, actual_norm)

    return EvalReport(
        normalized=_finite_metrics("normalized", actual_norm, preds_norm),
        price=_finite_metrics("price", actual_price, preds_price),
        pairs=[(d, float(a), float(p)) for d, a, p in zip(dates, actual_price, preds_price)],
    )
