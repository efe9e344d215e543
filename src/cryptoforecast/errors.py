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
    """A non-finite gradient reached the optimizer."""


class DivergenceError(ForecastError):
    """Training produced a non-finite loss.  Carries the offending epoch."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


class CheckpointError(ForecastError, ValueError):
    """A checkpoint document is unreadable or does not describe a complete model.

    Also a ``ValueError``, so callers that catch the loader's ``ValueError``
    keep working.
    """


class UndefinedMetricError(ForecastError):
    """A metric denominator is exactly zero."""


class ConfigError(ForecastError):
    """Invalid experiment config.  Carries itemized (line, message) diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in self.diagnostics)
        super().__init__(lines or "invalid config")
