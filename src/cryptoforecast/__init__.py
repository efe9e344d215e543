"""Self-contained recurrent-network engine for univariate daily price forecasting.

Everything is implemented from first principles on top of numpy: CSV
ingestion with carry-forward gap repair, min-max scaling, lookback
windowing, LSTM/GRU/Bi-LSTM cells with analytic backpropagation through
time, Adam training, and MSE/MAE/RMSE/MAPE evaluation at both normalized
and price scale.  Experiments are driven by a small config format and the
``cryptoforecast`` command line tool.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DegenerateScaleError,
    DivergenceError,
    ForecastError,
    InsufficientDataError,
    OutputError,
    PoisonedUpdateError,
    SchemaError,
    UndefinedMetricError,
    UnimputableError,
)
from .ingest import PriceSeries, SplitSpec, chronological_split, impute_locf, parse_ohlcv
from .preprocess import (
    ScalerParams,
    SequenceBatch,
    fit_scaler,
    inverse_transform,
    make_windows,
    transform,
)
from .cells import CellParams, CellState, gru_step, lstm_step
from .network import (
    ArchSpec,
    ModelParams,
    grad_check,
    grad_check_worst,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .training import OptimizerState, TrainConfig, TrainReport, adam_step, train
from .metrics import EvalReport, MetricSet, evaluate, mae, mape, mse_loss, rmse
from .experiment import ExperimentConfig, run_experiment, validate_config

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "CellParams",
    "CellState",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "DegenerateScaleError",
    "DivergenceError",
    "EvalReport",
    "ExperimentConfig",
    "ForecastError",
    "InsufficientDataError",
    "MetricSet",
    "ModelParams",
    "OptimizerState",
    "OutputError",
    "PoisonedUpdateError",
    "PriceSeries",
    "ScalerParams",
    "SchemaError",
    "SequenceBatch",
    "SplitSpec",
    "TrainConfig",
    "TrainReport",
    "UndefinedMetricError",
    "UnimputableError",
    "adam_step",
    "chronological_split",
    "evaluate",
    "fit_scaler",
    "grad_check",
    "grad_check_worst",
    "gru_step",
    "impute_locf",
    "init_params",
    "inverse_transform",
    "load_checkpoint",
    "lstm_step",
    "mae",
    "make_windows",
    "mape",
    "mse_loss",
    "parse_ohlcv",
    "rmse",
    "run_experiment",
    "save_checkpoint",
    "train",
    "transform",
    "validate_config",
]
