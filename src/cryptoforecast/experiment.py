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

import contextlib
import dataclasses
import hashlib
import json
import logging
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, ForecastError, OutputError, cannot, check, quoted
from .ingest import DEFAULT_PRICE_COLUMN, TRAIN_FRACTION_RULE, SplitSpec
from .ingest import chronological_split, impute_locf, parse_ohlcv
from .metrics import EvalReport, evaluate
from .network import ARCH_RULES, ArchSpec, CELL_KINDS, ModelParams, init_params, save_checkpoint
from .preprocess import LOOKBACK_RULE, ScalerParams, SequenceBatch, fit_scaler, make_windows, transform
from .training import TRAIN_RULES, TrainConfig, TrainReport, train

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AssetSpec:
    symbol: str
    csv_path: Path


@dataclass(frozen=True)
class ExperimentConfig:
    assets: tuple[AssetSpec, ...]
    architectures: tuple[str, ...] = CELL_KINDS
    price_column: str = DEFAULT_PRICE_COLUMN
    lookback: int = 60
    train_fraction: float = SplitSpec.train_fraction
    hidden_units: int = ArchSpec.hidden_units
    layers: int = ArchSpec.layers
    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    learning_rate: float = TrainConfig.learning_rate
    validation_fraction: float = TrainConfig.validation_fraction
    master_seed: int = 1234
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


def _number(kind: type):
    article = "an" if kind is int else "a"

    def parse(key: str, raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"{key} expects {article} {kind.__name__}, got {quoted(raw)}") from None

    return parse


def _text(key: str, raw: str) -> str:
    if not raw:
        raise ValueError(f"{key} must not be empty")
    return raw


def _path(key: str, raw: str) -> Path:
    return Path(_text(key, raw))


def _architectures(key: str, raw: str) -> tuple[str, ...]:
    kinds = tuple(k.strip().lower() for k in raw.split(",") if k.strip())
    unknown = [k for k in kinds if k not in CELL_KINDS]
    errors = [f"unknown architecture {quoted(k)}; expected one of {CELL_KINDS}" for k in unknown]
    errors += [f"duplicate architecture {quoted(k)}" for k, n in Counter(kinds).items() if n > 1]
    if not kinds:
        errors.append(f"{key} must name at least one of {', '.join(CELL_KINDS)}")
    if errors:
        raise ValueError(*errors)
    return kinds


class _Key(NamedTuple):
    """One top-level config key; its default is that of its ExperimentConfig field."""

    key: str
    # (key, raw value) -> value, or a ValueError whose args are the value's diagnostics
    parse: Callable[[str, str], object]
    rule: tuple | None = None  # the parsed value's rule (errors.check), the one its owner checks
    field: str | None = None  # the ExperimentConfig field; None: named like the key
    echo: bool = True  # part of every run's config echo in train_report.json


_KEYS = {
    row.key: row._replace(field=row.field or row.key)
    for row in (
        _Key("price_column", _text),
        _Key("lookback", _number(int), LOOKBACK_RULE),
        _Key("train_fraction", _number(float), TRAIN_FRACTION_RULE),
        _Key("architectures", _architectures, echo=False),
        _Key("hidden_units", _number(int), ARCH_RULES["hidden_units"]),
        _Key("layers", _number(int), ARCH_RULES["layers"]),
        _Key("batch_size", _number(int), TRAIN_RULES["batch_size"]),
        _Key("epochs", _number(int), TRAIN_RULES["epochs"]),
        _Key("learning_rate", _number(float), TRAIN_RULES["learning_rate"]),
        _Key("validation_fraction", _number(float), TRAIN_RULES["validation_fraction"]),
        _Key("seed", _number(int), field="master_seed"),
        _Key("out_dir", _path, echo=False),
    )
}


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
            section = None
            name = line[1:-1].strip()
            symbol = name[len("asset.") :].strip()
            if not line.endswith("]"):
                diags.append((lineno, f"unterminated section header {quoted(line)}"))
            elif not name.startswith("asset."):
                diags.append((lineno, f"unknown section [{quoted(name, str)}]; only [asset.<SYMBOL>] is allowed"))
            elif not symbol:
                diags.append((lineno, "asset section needs a symbol: [asset.<SYMBOL>]"))
            elif any(sym == symbol for _, sym, _ in assets):
                diags.append((lineno, f"duplicate asset symbol {quoted(symbol)}"))
            else:
                section = {}
                assets.append((lineno, symbol, section))
            continue
        if "=" not in line:
            diags.append((lineno, f"expected key = value, got {quoted(line)}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        known, kind, seen = (_KEYS, "key", top) if section is None else ({"csv"}, "asset key", section)
        if key not in known:
            diags.append((lineno, f"unknown {kind} {quoted(key)}"))
        elif key in seen:
            diags.append((lineno, f"duplicate {kind} {key!r}"))
        else:
            seen[key] = (lineno, value.strip())

    fields = {}
    for key, (line, raw) in top.items():
        row = _KEYS[key]
        try:
            value = row.parse(key, raw)
            if row.rule is not None:
                check(key, value, row.rule)
        except ValueError as exc:
            diags.extend((line, message) for message in exc.args)
        else:
            fields[row.field] = value

    asset_specs = []
    for line, symbol, keys in assets:
        if "csv" not in keys:
            diags.append((line, f"asset {quoted(symbol)} is missing its csv path"))
            continue
        csv_line, raw = keys["csv"]
        try:
            asset_specs.append(AssetSpec(symbol=symbol, csv_path=_path("csv", raw)))
        except ValueError as exc:
            diags.extend((csv_line, message) for message in exc.args)
    if not assets:
        diags.append((0, "config declares no [asset.<SYMBOL>] sections"))

    if diags:
        raise ConfigError(sorted(diags))
    return ExperimentConfig(assets=tuple(asset_specs), **fields)


def load_config(path, seed: int | None = None, out_dir=None) -> ExperimentConfig:
    """Read a config file and apply CLI overrides; an empty ``out_dir`` is rejected as the ``out_dir`` key is."""
    if out_dir is not None:
        try:
            out_dir = _path("--out", out_dir)
        except ValueError as exc:
            raise ConfigError([(0, message) for message in exc.args]) from None
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([(0, cannot("read", "config", path, exc))]) from exc
    config = validate_config(text)
    # config-relative dataset paths make configs relocatable; an absolute path stays as it is
    assets = tuple(AssetSpec(a.symbol, path.parent / a.csv_path) for a in config.assets)
    config = dataclasses.replace(config, assets=assets)
    if seed is not None:
        config = dataclasses.replace(config, master_seed=seed)
    if out_dir is not None:
        config = dataclasses.replace(config, out_dir=out_dir)
    return config


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
        text = asset.csv_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([(0, cannot("read", f"{asset.symbol} dataset", asset.csv_path, exc))]) from exc
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


def _span(dates: tuple) -> dict:
    """The ``rows``, ``start`` and ``end`` of a date-aligned segment."""
    return {"rows": len(dates), "start": dates[0].isoformat(), "end": dates[-1].isoformat()}


def prepare_report(config: ExperimentConfig) -> dict:
    """Ingest + split summary for every configured asset."""
    out = []
    for asset in config.assets:
        prepared = prepare_asset(config, asset)
        out.append(
            {
                "symbol": prepared.symbol,
                **_span(prepared.dates),
                "missing_imputed": prepared.imputed_count,
                "train": {**_span(prepared.train_dates), "windows": len(prepared.train_windows)},
                "test": {**_span(prepared.test_dates), "windows": len(prepared.test_windows)},
            }
        )
    return {"assets": out}


def write_prepare_report(out_dir: Path, report: dict) -> Path:
    """Write ``prepare_report.json`` into ``out_dir``; returns its path."""
    return write_json(out_dir / "prepare_report.json", report)


@dataclass
class RunResult:
    asset: str
    cell_kind: str
    model: ModelParams
    train_report: TrainReport
    eval_report: EvalReport | None  # None until the trained model is evaluated


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
            epochs = partial.epochs_log() if partial else []
            try:
                _write_train_report(run_dir, config, asset.symbol, cell_kind, epochs=epochs, error=str(exc))
            except OutputError as write_error:  # the training error stays the one raised
                log.error("%s", write_error)
        raise
    result = RunResult(
        asset=asset.symbol,
        cell_kind=cell_kind,
        model=model,
        train_report=train_report,
        eval_report=None,
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
    echo = {row.field: getattr(config, row.field) for row in _KEYS.values() if row.echo}
    return {
        **echo,
        "asset": asset,
        "cell_kind": cell_kind,
        "init_seed": derive_seed(config.master_seed, asset, cell_kind, "init"),
        "shuffle_seed": derive_seed(config.master_seed, asset, cell_kind, "shuffle"),
    }


def report_text(payload: dict) -> str:
    """A JSON report's text, as every report file holds it and the CLI prints it."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def make_out_dir(path: Path) -> Path:
    """Make the output directory ``path`` and its parents; returns ``path``.

    The commands call it before any work, so an unusable ``--out`` (a
    regular file, say) fails at once with an :class:`OutputError`.
    """
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(cannot("make", "output directory", path, exc)) from None
    return path


def _write_file(path: Path, write) -> Path:
    """Call ``write`` on a sibling of ``path``, then move the file onto ``path``, so no write leaves it half written.

    An ``OSError`` (a full disk or a directory in the way, say) removes the
    sibling and becomes an :class:`OutputError`; ``path`` is left as it was.
    """
    part = path.with_name(f".{path.name}.part")
    try:
        write(part)
        os.replace(part, path)
    except OSError as exc:
        with contextlib.suppress(OSError):  # not there, or not a file this call made
            part.unlink()
        raise OutputError(cannot("write", "output file", path, exc)) from None
    return path


def write_json(path: Path, payload: dict) -> Path:
    """Write ``payload``'s report text to ``path``, making its directory; returns ``path``."""
    make_out_dir(path.parent)
    return _write_file(path, lambda p: p.write_text(report_text(payload)))


def run_dir_name(asset: str, cell_kind: str) -> str:
    """The directory of one (asset, architecture) run under the output directory."""
    return f"{asset}_{cell_kind}"


def _write_train_report(run_dir: Path, config: ExperimentConfig, asset: str, cell_kind: str, **entries) -> None:
    """Write ``train_report.json``: the run's config echo and ``entries``."""
    write_json(run_dir / "train_report.json", {"config": _config_echo(config, asset, cell_kind), **entries})


def write_run_artifacts(config: ExperimentConfig, result: RunResult, run_dir: Path) -> None:
    """Persist one trained run: checkpoint and train report."""
    _write_file(make_out_dir(run_dir) / "checkpoint.json", lambda p: save_checkpoint(result.model, p))
    epochs = result.train_report.epochs_log()
    _write_train_report(run_dir, config, result.asset, result.cell_kind, checkpoint="checkpoint.json", epochs=epochs)


def eval_report_dict(report: EvalReport, asset: str, cell_kind: str, scaler: ScalerParams) -> dict:
    """The ``eval_report.json`` document, for a run or a re-scored checkpoint."""
    scaler_range = {"min": scaler.min_value, "max": scaler.max_value}
    return {**report.to_dict(), "asset": asset, "cell_kind": cell_kind, "scaler": scaler_range}


def write_eval_artifacts(out_dir: Path, payload: dict, report: EvalReport) -> Path:
    """Write ``eval_report.json`` (``payload``) and ``predictions.csv`` into ``out_dir``; returns the report's path."""
    path = write_json(out_dir / "eval_report.json", payload)
    _write_file(out_dir / "predictions.csv", lambda p: p.write_text(report.pairs_csv()))
    return path


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
    out_dir = make_out_dir(Path(config.out_dir))

    # fail fast on unreadable/invalid datasets before burning training time
    prepared = {asset.symbol: prepare_asset(config, asset) for asset in config.assets}

    results: list[RunResult] = []
    failures: list[tuple[str, str, str]] = []
    for asset in config.assets:
        for cell_kind in config.architectures:
            run_dir = out_dir / run_dir_name(asset.symbol, cell_kind)
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
                "run_dir": run_dir_name(result.asset, result.cell_kind),
                "normalized": result.eval_report.normalized.to_dict(),
                "price": result.eval_report.price.to_dict(),
                "best": best[result.asset] is result,
            }
        )
    return {
        "rows": rows,
        "failures": [{"asset": a, "cell_kind": k, "error": e} for a, k, e in failures],
    }
