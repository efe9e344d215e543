"""Mini-batch training: MSE loss, bias-corrected Adam, epoch scheduling.

The training loop is deliberately boring and deterministic: windows are
shuffled with a dedicated seeded generator, batches are consecutive
slices of the permutation, and the chronological tail of the window set
is held out as a validation split that never contributes a gradient.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InsufficientDataError, PoisonedUpdateError
from .network import ModelParams, ParamGrads, backward_batch, forward_batch
from .preprocess import SequenceBatch

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    epochs: int = 100
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    shuffle_seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0.0 <= self.validation_fraction < 0.5):
            raise ValueError("validation_fraction must be in [0, 0.5)")


@dataclass(eq=False)
class OptimizerState:
    """Adam accumulators, shape-congruent with the model they update."""

    m: ModelParams
    v: ModelParams
    step: int = 0

    @classmethod
    def zeros(cls, model: ModelParams) -> "OptimizerState":
        return cls(m=model.zeros_like(), v=model.zeros_like(), step=0)


@dataclass
class TrainReport:
    """Per-epoch loss curves plus run metadata.

    ``epoch_seconds`` is wall-clock time and therefore varies between
    otherwise identical runs; it is logged but never serialized into the
    run artifacts, which must be byte-reproducible.
    """

    train_losses: list[float]
    val_losses: list[float | None]
    epoch_seconds: list[float]
    config: TrainConfig

    def epochs_log(self) -> list[dict]:
        return [
            {"epoch": e + 1, "train_loss": tl, "val_loss": vl}
            for e, (tl, vl) in enumerate(zip(self.train_losses, self.val_losses))
        ]


def mse_loss(predictions, targets) -> float:
    """Mean of squared residuals."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"predictions and targets must be equal nonempty shapes, got {p.shape} vs {t.shape}")
    d = p - t
    return float(np.mean(d * d))


def adam_step(
    params: ModelParams, grads: ParamGrads, state: OptimizerState, config: TrainConfig
) -> tuple[ModelParams, OptimizerState]:
    """One bias-corrected Adam update.  Pure: returns new params and state."""
    p_arrays = params.flat()
    g_arrays = grads.flat()
    m_arrays = state.m.flat()
    v_arrays = state.v.flat()
    if len(p_arrays) != len(g_arrays):
        raise ValueError("gradient structure does not match parameters")
    for p, g in zip(p_arrays, g_arrays):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise PoisonedUpdateError("non-finite gradient; aborting update")

    t = state.step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    lr, eps = config.learning_rate, config.adam_epsilon

    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(p_arrays, g_arrays, m_arrays, v_arrays):
        m2 = b1 * m + (1.0 - b1) * g
        v2 = b2 * v + (1.0 - b2) * (g * g)
        update = lr * (m2 / corr1) / (np.sqrt(v2 / corr2) + eps)
        new_p.append(p - update)
        new_m.append(m2)
        new_v.append(v2)

    return params.rebuild(new_p), OptimizerState(m=state.m.rebuild(new_m), v=state.v.rebuild(new_v), step=t)


def train(
    model: ModelParams, train_batch: SequenceBatch, config: TrainConfig
) -> tuple[ModelParams, TrainReport]:
    """Train on mean-squared error over the normalized windows.

    The last ``validation_fraction`` of the windows (chronologically) is
    carved out for validation loss only: it is excluded from the shuffle
    pool, so it can never influence a gradient.  Each epoch shuffles the
    remaining windows with the seeded generator, walks them once in
    batches of ``batch_size`` (the last batch may be short), and applies
    each batch's mean-loss gradient with Adam.
    """
    n = len(train_batch)
    n_val = int(n * config.validation_fraction)
    n_train = n - n_val
    if n_train <= 0:
        raise InsufficientDataError(
            f"no training windows left after carving {n_val} of {n} for validation"
        )

    inputs = train_batch.inputs
    targets = train_batch.targets
    val_inputs = inputs[n_train:]
    val_targets = targets[n_train:]

    rng = np.random.default_rng(config.shuffle_seed)
    state = OptimizerState.zeros(model)

    train_losses: list[float] = []
    val_losses: list[float | None] = []
    epoch_seconds: list[float] = []

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        perm = rng.permutation(n_train)
        batch_losses = []
        for start in range(0, n_train, config.batch_size):
            idx = perm[start : start + config.batch_size]
            xb = inputs[idx]
            yb = targets[idx]
            preds, tape = forward_batch(model, xb)
            resid = preds - yb
            batch_losses.append(float(np.mean(resid * resid)))
            d_preds = (2.0 / idx.shape[0]) * resid
            grads = backward_batch(model, tape, d_preds)
            model, state = adam_step(model, grads, state, config)

        train_loss = float(np.mean(batch_losses))
        if n_val > 0:
            val_preds, _ = forward_batch(model, val_inputs, store_tape=False)
            val_loss = mse_loss(val_preds, val_targets)
        else:
            val_loss = None
        if not np.isfinite(train_loss) or (val_loss is not None and not np.isfinite(val_loss)):
            raise DivergenceError(epoch)

        train_losses.append(train_loss)
        val_losses.append(val_loss)
        epoch_seconds.append(time.perf_counter() - started)
        log.debug(
            "epoch %d/%d train_loss=%.6g val_loss=%s (%.2fs)",
            epoch,
            config.epochs,
            train_loss,
            f"{val_loss:.6g}" if val_loss is not None else "n/a",
            epoch_seconds[-1],
        )

    report = TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        epoch_seconds=epoch_seconds,
        config=config,
    )
    return model, report
