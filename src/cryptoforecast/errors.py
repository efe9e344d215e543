"""Exception types shared across the forecasting pipeline."""

import math

QUOTE_CHARS = 40  # most of an input a diagnostic quotes: one bad cell or line can hold a whole file


def quoted(text: str, show=repr) -> str:
    """``show`` of the first :data:`QUOTE_CHARS` characters of ``text``, then ``...`` if it was longer."""
    return show(text[:QUOTE_CHARS]) + ("..." if len(text) > QUOTE_CHARS else "")


PATH_CHARS = 120  # most of a path a diagnostic shows: its tail, which keeps the file name


def cannot(verb: str, what: str, path, exc: Exception) -> str:
    """``cannot VERB WHAT PATH: REASON``, the path shown once and cut to its last :data:`PATH_CHARS` characters.

    An OS error's reason is its ``strerror`` alone, as its text repeats the whole path.
    """
    text = str(path)
    shown = text if len(text) <= PATH_CHARS else "..." + text[-PATH_CHARS:]
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return f"cannot {verb} {what} {shown}: {reason}"


def check(name: str, value, rule) -> None:
    """Check ``value`` against ``rule``, a ``(kind, ok, expect)`` triple; raise ``TypeError`` or ``ValueError``.

    ``kind`` is ``int`` (not bool or a numpy integer) or ``float`` (an int too); ``ok`` tests the range,
    which ``expect`` states."""
    kind, ok, expect = rule
    if not (type(value) is int or kind is float and isinstance(value, float)):
        raise TypeError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {type(value).__name__}")
    if not ok(value):
        raise ValueError(f"{name} must be {expect}, got {quoted(str(value), str)}")


AT_LEAST_ONE = (int, lambda v: v >= 1, ">= 1")
NON_NEGATIVE = (int, lambda v: v >= 0, ">= 0")
FINITE_POSITIVE = (float, lambda v: 0.0 < v < math.inf, "finite and > 0")


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
    gradient (as in ``ArchSpec.param_layout``) and, when raised by the
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


class OutputError(ForecastError):
    """An output directory or file cannot be made: a regular file where a directory goes, say, or the reverse."""


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
    """Invalid experiment config.  Carries itemized (line, message) diagnostics;
    line 0 marks a whole-file problem, stated without a line number."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.diagnostics)
        super().__init__(lines or "invalid config")
