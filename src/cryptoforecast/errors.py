"""Exception types shared across the forecasting pipeline."""


class ForecastError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemaError(ForecastError):
    """An input file does not match its documented layout (headers, columns)."""


class DataError(ForecastError):
    """Rows violate a data invariant: duplicate dates, non-positive prices, ..."""


class UnimputableError(DataError):
    """Carry-forward imputation has no earlier observation to copy from."""


class DegenerateScaleError(ForecastError):
    """All fitted values coincide; the min-max rescaling is not invertible."""


class InsufficientDataError(ForecastError):
    """Series too short for the requested split, window length, or carve-out."""


class PoisonedUpdateError(ForecastError):
    """A non-finite gradient reached the optimizer.

    Carries the name of the first parameter array with a non-finite
    gradient (as in ``ModelParams.array_names()``) and, when raised by the
    training loop, the 1-based epoch and batch.
    """

    def __init__(self, array: str, epoch: int | None = None, batch: int | None = None):
        self.array = array
        self.epoch = epoch
        self.batch = batch
        where = f" at epoch {epoch}, batch {batch}" if epoch is not None else ""
        super().__init__(f"non-finite gradient in {array}{where}; aborting update")


class DivergenceError(ForecastError):
    """Training produced a non-finite loss.

    Carries the 1-based epoch and which loss it was: ``"train"`` or
    ``"validation"``.
    """

    def __init__(self, epoch: int, loss: str = "train"):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"non-finite {'training' if loss == 'train' else loss} loss at epoch {epoch}")


class CheckpointError(ForecastError, ValueError):
    """A checkpoint document is unreadable or does not describe a complete model.

    Also a ``ValueError``, so callers that catch the loader's ``ValueError``
    keep working.
    """


class UndefinedMetricError(ForecastError):
    """A metric has no finite value.

    Its denominator is exactly zero, or the model's predictions or the
    metric itself are not finite, as for a model whose weights diverged.
    """


class ConfigError(ForecastError):
    """Invalid experiment config.  Carries itemized (line, message) diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in self.diagnostics)
        super().__init__(lines or "invalid config")
