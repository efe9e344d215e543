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

from .cells import _HOIST_BYTES
from .errors import AT_LEAST_ONE, FINITE_POSITIVE, NON_NEGATIVE, check
from .errors import DivergenceError, ForecastError, InsufficientDataError, PoisonedUpdateError
from .metrics import mse_loss
from .network import ModelParams, backward_batch, forward_batch
from .preprocess import SequenceBatch

log = logging.getLogger(__name__)

TRAIN_RULES = {  # the rule (errors.check) of each TrainConfig field
    "batch_size": AT_LEAST_ONE,
    "epochs": AT_LEAST_ONE,
    "learning_rate": FINITE_POSITIVE,
    "shuffle_seed": NON_NEGATIVE,
    "validation_fraction": (float, lambda v: 0.0 <= v < 0.5, "in [0, 0.5)"),
}


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    epochs: int = 100
    learning_rate: float = 0.001
    shuffle_seed: int = 0
    validation_fraction: float = 0.1
    # Adam's decay rates and epsilon, the same for every run: Kingma & Ba's defaults (arXiv:1412.6980)
    adam_beta1 = 0.9
    adam_beta2 = 0.999
    adam_epsilon = 1e-8

    def __post_init__(self):
        for name, rule in TRAIN_RULES.items():
            check(name, getattr(self, name), rule)


@dataclass(eq=False)
class OptimizerState:
    """Adam moment vectors, element-for-element with the model's :attr:`ModelParams.vector`."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, model: ModelParams) -> "OptimizerState":
        return cls(m=np.zeros_like(model.vector), v=np.zeros_like(model.vector), step=0)


@dataclass
class TrainReport:
    """Per-epoch loss curves and timings.

    ``epoch_seconds`` is wall-clock time and therefore varies between
    otherwise identical runs; it is logged but never serialized into the
    run artifacts, which must be byte-reproducible.
    """

    train_losses: list[float]
    val_losses: list[float | None]
    epoch_seconds: list[float]

    def epochs_log(self) -> list[dict]:
        return [
            {"epoch": e + 1, "train_loss": tl, "val_loss": vl}
            for e, (tl, vl) in enumerate(zip(self.train_losses, self.val_losses))
        ]


def adam_step(params: ModelParams, grads: ModelParams, state: OptimizerState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of ``params.vector``, ``state.m``, ``state.v`` and ``state.step``, in place.

    A non-finite gradient raises :class:`PoisonedUpdateError`, naming its
    parameter array, before any update.  The vectors are updated a block at
    a time, so temporaries stay within :data:`cells._HOIST_BYTES` and in
    cache at any model size; each element sees the textbook operations in
    textbook order, so the result does not depend on the blocking.
    """
    if grads.arch != params.arch:
        raise ValueError("gradient structure does not match parameters")
    g = grads.vector
    finite = np.isfinite(g)
    if not finite.all():
        raise PoisonedUpdateError(params.locate(int(np.argmin(finite)))[0])
    p, m, v = params.vector, state.m, state.v

    t = state.step = state.step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    lr, eps = config.learning_rate, config.adam_epsilon

    block = _HOIST_BYTES // p.itemsize
    update_buf, denom_buf = np.empty(min(block, p.size)), np.empty(min(block, p.size))
    for start in range(0, p.size, block):
        rows = slice(start, start + block)
        update, denom = update_buf[: p.size - start], denom_buf[: p.size - start]
        m2 = m[rows]
        m2 *= b1
        m2 += np.multiply(1.0 - b1, g[rows], out=update)
        gg = np.multiply(g[rows], g[rows], out=update)
        gg *= 1.0 - b2
        v2 = v[rows]
        v2 *= b2
        v2 += gg
        np.divide(m2, corr1, out=update)
        update *= lr
        np.divide(v2, corr2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        update /= denom
        p[rows] -= update


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

    A :class:`ForecastError` raised in the epoch loop carries the epochs
    completed before it as its ``report``.
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
    model = model.copy()  # updated in place from here on
    state = OptimizerState.zeros(model)
    tape = None  # each batch overwrites the previous batch's tape
    report = TrainReport(train_losses=[], val_losses=[], epoch_seconds=[])
    try:
        # non-finite values are reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, config.epochs + 1):
                started = time.perf_counter()
                perm = rng.permutation(n_train)
                batch_losses = []
                for batch, start in enumerate(range(0, n_train, config.batch_size), start=1):
                    idx = perm[start : start + config.batch_size]
                    xb = inputs[idx]
                    yb = targets[idx]
                    preds, tape = forward_batch(model, xb, workspace=tape)
                    resid = preds - yb
                    batch_losses.append(float(np.mean(resid * resid)))
                    d_preds = (2.0 / idx.shape[0]) * resid
                    grads = backward_batch(model, tape, d_preds)
                    try:
                        adam_step(model, grads, state, config)
                    except PoisonedUpdateError as exc:
                        raise PoisonedUpdateError(exc.array, epoch, batch) from None

                train_loss = float(np.mean(batch_losses))
                if n_val > 0:
                    val_preds, _ = forward_batch(model, val_inputs, store_tape=False)
                    val_loss = mse_loss(val_preds, val_targets)
                else:
                    val_loss = None
                if not np.isfinite(train_loss):
                    raise DivergenceError(epoch, "train")
                if val_loss is not None and not np.isfinite(val_loss):
                    raise DivergenceError(epoch, "validation")

                report.train_losses.append(train_loss)
                report.val_losses.append(val_loss)
                report.epoch_seconds.append(time.perf_counter() - started)
                log.debug(
                    "epoch %d/%d train_loss=%.6g val_loss=%s (%.2fs)",
                    epoch,
                    config.epochs,
                    train_loss,
                    f"{val_loss:.6g}" if val_loss is not None else "n/a",
                    report.epoch_seconds[-1],
                )
    except ForecastError as exc:
        exc.report = report
        raise
    return model, report
