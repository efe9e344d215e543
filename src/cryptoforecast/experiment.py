"""Config-driven experiment orchestration.

A config is flat ``key = value`` text with one ``[asset.<SYMBOL>]``
section per dataset::

    lookback = 60
    epochs = 100
    architectures = lstm, gru, bilstm

    [asset.BTC]
    csv = fixtures/btc_usd.csv

Running an experiment trains every (asset x architecture) pair, writes
one artifact directory per pair (train report, checkpoint, eval report,
prediction CSV) plus a top-level ``comparison.json``, and derives every
run's seeds deterministically from the master seed, the asset symbol and
the cell kind, so any single run can be reproduced in isolation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ForecastError
from .ingest import SplitSpec, chronological_split, impute_locf, parse_ohlcv
from .metrics import EvalReport, evaluate
from .network import ArchSpec, CELL_KINDS, ModelParams, init_params, save_checkpoint
from .preprocess import ScalerParams, SequenceBatch, fit_scaler, make_windows, transform
from .training import TrainConfig, TrainReport, train

log = logging.getLogger(__name__)

DEFAULT_SEED = 1234

_TOP_LEVEL_KEYS = {
    "price_column",
    "lookback",
    "train_fraction",
    "architectures",
    "hidden_units",
    "layers",
    "batch_size",
    "epochs",
    "learning_rate",
    "validation_fraction",
    "seed",
    "out_dir",
}
_ASSET_KEYS = {"csv"}


@dataclass(frozen=True)
class AssetSpec:
    symbol: str
    csv_path: Path


@dataclass(frozen=True)
class ExperimentConfig:
    assets: tuple[AssetSpec, ...]
    architectures: tuple[str, ...] = ("lstm", "gru", "bilstm")
    price_column: str = "Close"
    lookback: int = 60
    train_fraction: float = 0.8
    hidden_units: int = 100
    layers: int = 2
    batch_size: int = 32
    epochs: int = 100
    learning_rate: float = 0.001
    validation_fraction: float = 0.1
    master_seed: int = DEFAULT_SEED
    out_dir: Path = Path("runs")

    def arch_for(self, cell_kind: str) -> ArchSpec:
        return ArchSpec(cell_kind=cell_kind, layers=self.layers, hidden_units=self.hidden_units)

    def train_config_for(self, asset: str, cell_kind: str) -> TrainConfig:
        return TrainConfig(
            batch_size=self.batch_size,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            shuffle_seed=derive_seed(self.master_seed, asset, cell_kind, "shuffle"),
            validation_fraction=self.validation_fraction,
        )


def derive_seed(master_seed: int, *parts: str) -> int:
    """Stable 64-bit seed from the master seed and labeling strings."""
    text = "|".join([str(int(master_seed)), *parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _parse_scalar(raw: str, kind: str, line: int, key: str, diags: list):
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        article = "an" if kind == "int" else "a"
        diags.append((line, f"{key} expects {article} {kind}, got {raw!r}"))
        return None


def validate_config(config_text: str) -> ExperimentConfig:
    """Parse and validate config text, applying documented defaults.

    All problems are collected and raised together as a
    :class:`ConfigError` whose diagnostics carry line numbers.
    """
    diags: list[tuple[int, str]] = []
    top: dict[str, tuple[int, str]] = {}
    assets: list[tuple[int, str, dict[str, tuple[int, str]]]] = []
    section: dict[str, tuple[int, str]] | None = None

    for lineno, raw_line in enumerate(config_text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                diags.append((lineno, f"unterminated section header {line!r}"))
                section = None
                continue
            name = line[1:-1].strip()
            if not name.startswith("asset."):
                diags.append((lineno, f"unknown section [{name}]; only [asset.<SYMBOL>] is allowed"))
                section = None
                continue
            symbol = name[len("asset.") :].strip()
            if not symbol:
                diags.append((lineno, "asset section needs a symbol: [asset.<SYMBOL>]"))
                section = None
                continue
            if any(sym == symbol for _, sym, _ in assets):
                diags.append((lineno, f"duplicate asset symbol {symbol!r}"))
                section = None
                continue
            section = {}
            assets.append((lineno, symbol, section))
            continue
        if "=" not in line:
            diags.append((lineno, f"expected key = value, got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            if key not in _TOP_LEVEL_KEYS:
                diags.append((lineno, f"unknown key {key!r}"))
                continue
            if key in top:
                diags.append((lineno, f"duplicate key {key!r}"))
                continue
            top[key] = (lineno, value)
        else:
            if key not in _ASSET_KEYS:
                diags.append((lineno, f"unknown asset key {key!r}"))
                continue
            if key in section:
                diags.append((lineno, f"duplicate asset key {key!r}"))
                continue
            section[key] = (lineno, value)

    def scalar(key: str, kind: str, default):
        if key not in top:
            return default
        line, raw = top[key]
        return _parse_scalar(raw, kind, line, key, diags)

    price_column = top.get("price_column", (0, "Close"))[1]
    lookback = scalar("lookback", "int", 60)
    train_fraction = scalar("train_fraction", "float", 0.8)
    hidden_units = scalar("hidden_units", "int", 100)
    layers = scalar("layers", "int", 2)
    batch_size = scalar("batch_size", "int", 32)
    epochs = scalar("epochs", "int", 100)
    learning_rate = scalar("learning_rate", "float", 0.001)
    validation_fraction = scalar("validation_fraction", "float", 0.1)
    master_seed = scalar("seed", "int", DEFAULT_SEED)
    out_dir = Path(top.get("out_dir", (0, "runs"))[1])

    if "architectures" in top:
        line, raw = top["architectures"]
        kinds = tuple(k.strip().lower() for k in raw.split(",") if k.strip())
        if not kinds:
            diags.append((line, "architectures must name at least one of lstm, gru, bilstm"))
        for k in kinds:
            if k not in CELL_KINDS:
                diags.append((line, f"unknown architecture {k!r}; expected one of {CELL_KINDS}"))
    else:
        kinds = CELL_KINDS

    def check_range(key: str, value, ok: bool, expect: str):
        if value is not None and not ok:
            line = top.get(key, (0, ""))[0]
            diags.append((line, f"{key} must be {expect}, got {value}"))

    check_range("lookback", lookback, lookback is None or lookback >= 1, ">= 1")
    check_range(
        "train_fraction",
        train_fraction,
        train_fraction is None or 0.0 < train_fraction < 1.0,
        "in (0, 1)",
    )
    check_range("hidden_units", hidden_units, hidden_units is None or hidden_units >= 1, ">= 1")
    check_range("layers", layers, layers is None or layers >= 1, ">= 1")
    check_range("batch_size", batch_size, batch_size is None or batch_size >= 1, ">= 1")
    check_range("epochs", epochs, epochs is None or epochs >= 1, ">= 1")
    check_range(
        "learning_rate", learning_rate, learning_rate is None or learning_rate > 0.0, "> 0"
    )
    check_range(
        "validation_fraction",
        validation_fraction,
        validation_fraction is None or 0.0 <= validation_fraction < 0.5,
        "in [0, 0.5)",
    )

    asset_specs = []
    for line, symbol, keys in assets:
        if "csv" not in keys:
            diags.append((line, f"asset {symbol!r} is missing its csv path"))
            continue
        asset_specs.append(AssetSpec(symbol=symbol, csv_path=Path(keys["csv"][1])))
    if not assets:
        diags.append((0, "config declares no [asset.<SYMBOL>] sections"))

    if diags:
        raise ConfigError(sorted(diags))

    return ExperimentConfig(
        assets=tuple(asset_specs),
        architectures=kinds,
        price_column=price_column,
        lookback=lookback,
        train_fraction=train_fraction,
        hidden_units=hidden_units,
        layers=layers,
        batch_size=batch_size,
        epochs=epochs,
        learning_rate=learning_rate,
        validation_fraction=validation_fraction,
        master_seed=master_seed,
        out_dir=out_dir,
    )


def load_config(path, seed: int | None = None, out_dir=None) -> ExperimentConfig:
    """Read a config file and apply CLI overrides."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([(0, f"cannot read config {path}: {exc}")]) from exc
    config = validate_config(text)
    # config-relative dataset paths make configs relocatable
    assets = tuple(
        AssetSpec(a.symbol, a.csv_path if a.csv_path.is_absolute() else path.parent / a.csv_path)
        for a in config.assets
    )
    replacements: dict = {"assets": assets}
    if seed is not None:
        replacements["master_seed"] = seed
    if out_dir is not None:
        replacements["out_dir"] = Path(out_dir)
    return dataclasses.replace(config, **replacements)


@dataclass
class PreparedAsset:
    """Everything derived from one asset's CSV before any training."""

    symbol: str
    dates: tuple
    imputed_count: int
    train_series: np.ndarray
    test_series: np.ndarray
    train_dates: tuple
    test_dates: tuple
    scaler: ScalerParams
    train_windows: SequenceBatch
    test_windows: SequenceBatch


def prepare_asset(config: ExperimentConfig, asset: AssetSpec) -> PreparedAsset:
    """Ingest, repair, split, scale, and window one asset.

    The scaler is fitted on the training segment only.  Test windows are
    built from the transformed concatenation of the last lookback's worth
    of training values and the test segment, so the first test date is
    predictable and every test date receives a prediction.
    """
    try:
        text = asset.csv_path.read_text()
    except OSError as exc:
        raise ConfigError([(0, f"cannot read dataset for {asset.symbol}: {exc}")]) from exc
    series = parse_ohlcv(text, price_column=config.price_column, symbol=asset.symbol)
    imputed = impute_locf(series)
    train_part, test_part = chronological_split(imputed, SplitSpec(config.train_fraction))
    scaler = fit_scaler(train_part.values)
    train_windows = make_windows(transform(scaler, train_part.values), config.lookback)
    combined = np.concatenate([train_part.values[-config.lookback :], test_part.values])
    test_windows = make_windows(transform(scaler, combined), config.lookback)
    return PreparedAsset(
        symbol=asset.symbol,
        dates=imputed.dates,
        imputed_count=series.missing_count,
        train_series=train_part.values,
        test_series=test_part.values,
        train_dates=train_part.dates,
        test_dates=test_part.dates,
        scaler=scaler,
        train_windows=train_windows,
        test_windows=test_windows,
    )


def prepare_report(config: ExperimentConfig) -> dict:
    """Ingest + split summary for every configured asset."""
    out = []
    for asset in config.assets:
        prepared = prepare_asset(config, asset)
        out.append(
            {
                "symbol": prepared.symbol,
                "rows": len(prepared.dates),
                "missing_imputed": prepared.imputed_count,
                "start": prepared.dates[0].isoformat(),
                "end": prepared.dates[-1].isoformat(),
                "train": {
                    "rows": int(prepared.train_series.shape[0]),
                    "start": prepared.train_dates[0].isoformat(),
                    "end": prepared.train_dates[-1].isoformat(),
                    "windows": len(prepared.train_windows),
                },
                "test": {
                    "rows": int(prepared.test_series.shape[0]),
                    "start": prepared.test_dates[0].isoformat(),
                    "end": prepared.test_dates[-1].isoformat(),
                    "windows": len(prepared.test_windows),
                },
            }
        )
    return {"assets": out}


@dataclass
class RunResult:
    asset: str
    cell_kind: str
    model: ModelParams
    train_report: TrainReport
    eval_report: EvalReport | None  # None until the trained model is evaluated
    scaler: ScalerParams
    run_dir: Path | None = None


def run_single(
    config: ExperimentConfig,
    asset: AssetSpec,
    cell_kind: str,
    prepared: PreparedAsset | None = None,
    run_dir: Path | None = None,
) -> RunResult:
    """Train and evaluate one (asset, architecture) pair.

    With ``run_dir``, the run's artifacts are written there: the checkpoint
    and train report as soon as training ends, so an evaluation that fails
    still leaves the trained model on disk, then the eval report and
    predictions.  When training fails, the train report alone is written,
    with the epochs completed and the error.
    """
    if prepared is None:
        prepared = prepare_asset(config, asset)
    arch = config.arch_for(cell_kind)
    init_seed = derive_seed(config.master_seed, asset.symbol, cell_kind, "init")
    model = init_params(arch, seed=init_seed)
    tconfig = config.train_config_for(asset.symbol, cell_kind)
    log.info(
        "training %s/%s: %d windows, %d epochs, batch %d",
        asset.symbol,
        cell_kind,
        len(prepared.train_windows),
        tconfig.epochs,
        tconfig.batch_size,
    )
    try:
        model, train_report = train(model, prepared.train_windows, tconfig)
    except ForecastError as exc:
        if run_dir is not None:
            partial = getattr(exc, "report", None)
            run_dir.mkdir(parents=True, exist_ok=True)
            write_json(
                run_dir / "train_report.json",
                {
                    "config": _config_echo(config, asset.symbol, cell_kind),
                    "epochs": partial.epochs_log() if partial else [],
                    "error": str(exc),
                },
            )
        raise
    result = RunResult(
        asset=asset.symbol,
        cell_kind=cell_kind,
        model=model,
        train_report=train_report,
        eval_report=None,
        scaler=prepared.scaler,
    )
    if run_dir is not None:
        write_run_artifacts(config, result, run_dir)
    eval_report = evaluate(model, prepared.test_windows, prepared.scaler, prepared.test_dates)
    result.eval_report = eval_report
    log.info(
        "finished %s/%s: normalized rmse=%.6g price mape=%.4g%% (%.1fs)",
        asset.symbol,
        cell_kind,
        eval_report.normalized.rmse,
        eval_report.price.mape,
        sum(train_report.epoch_seconds),
    )
    if run_dir is not None:
        payload = eval_report_dict(eval_report, asset.symbol, cell_kind, prepared.scaler)
        write_eval_artifacts(run_dir, payload, eval_report)
    return result


def _config_echo(config: ExperimentConfig, asset: str, cell_kind: str) -> dict:
    return {
        "asset": asset,
        "cell_kind": cell_kind,
        "price_column": config.price_column,
        "lookback": config.lookback,
        "train_fraction": config.train_fraction,
        "hidden_units": config.hidden_units,
        "layers": config.layers,
        "batch_size": config.batch_size,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "validation_fraction": config.validation_fraction,
        "master_seed": config.master_seed,
        "init_seed": derive_seed(config.master_seed, asset, cell_kind, "init"),
        "shuffle_seed": derive_seed(config.master_seed, asset, cell_kind, "shuffle"),
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_run_artifacts(config: ExperimentConfig, result: RunResult, run_dir: Path) -> None:
    """Persist one trained run: checkpoint and train report."""
    run_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.model, run_dir / "checkpoint.json")
    write_json(
        run_dir / "train_report.json",
        {
            "config": _config_echo(config, result.asset, result.cell_kind),
            "checkpoint": "checkpoint.json",
            "epochs": result.train_report.epochs_log(),
        },
    )
    result.run_dir = run_dir


def eval_report_dict(report: EvalReport, asset: str, cell_kind: str, scaler: ScalerParams) -> dict:
    """The ``eval_report.json`` document, for a run or a re-scored checkpoint."""
    payload = report.to_dict()
    payload["asset"] = asset
    payload["cell_kind"] = cell_kind
    payload["scaler"] = {"min": scaler.min_value, "max": scaler.max_value}
    return payload


def write_eval_artifacts(out_dir: Path, payload: dict, report: EvalReport) -> None:
    """Write ``eval_report.json`` (``payload``) and ``predictions.csv`` into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "eval_report.json", payload)
    (out_dir / "predictions.csv").write_text(report.pairs_csv())


@dataclass
class ExperimentResult:
    out_dir: Path
    results: list[RunResult]
    failures: list[tuple[str, str, str]]  # (asset, cell_kind, error)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (asset x architecture) pair and write all artifacts.

    Data and config problems surface before any training starts.  A
    failing run is recorded as a failure without aborting its siblings; one
    whose evaluation fails keeps its checkpoint and train report.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # fail fast on unreadable/invalid datasets before burning training time
    prepared = {asset.symbol: prepare_asset(config, asset) for asset in config.assets}

    results: list[RunResult] = []
    failures: list[tuple[str, str, str]] = []
    for asset in config.assets:
        for cell_kind in config.architectures:
            run_dir = out_dir / f"{asset.symbol}_{cell_kind}"
            try:
                result = run_single(config, asset, cell_kind, prepared[asset.symbol], run_dir)
                results.append(result)
            except ForecastError as exc:
                log.error("run %s/%s failed: %s", asset.symbol, cell_kind, exc)
                failures.append((asset.symbol, cell_kind, str(exc)))

    write_json(out_dir / "comparison.json", comparison_dict(results, failures))
    return ExperimentResult(out_dir=out_dir, results=results, failures=failures)


def comparison_dict(results: list[RunResult], failures) -> dict:
    """Comparison rows across runs; best per asset by price-scale RMSE."""
    best: dict[str, RunResult] = {}
    for result in results:
        current = best.get(result.asset)
        if current is None or result.eval_report.price.rmse < current.eval_report.price.rmse:
            best[result.asset] = result
    rows = []
    for result in results:
        rows.append(
            {
                "asset": result.asset,
                "cell_kind": result.cell_kind,
                "run_dir": f"{result.asset}_{result.cell_kind}",
                "normalized": result.eval_report.normalized.to_dict(),
                "price": result.eval_report.price.to_dict(),
                "best": best[result.asset] is result,
            }
        )
    return {
        "rows": rows,
        "failures": [{"asset": a, "cell_kind": k, "error": e} for a, k, e in failures],
    }
