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
from .errors import DataError, DegenerateScaleError, InsufficientDataError, SchemaError
from .ingest import DEFAULT_PRICE_COLUMN, TRAIN_FRACTION_RULE, PriceSeries, SplitSpec
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
    if "\0" in raw:  # no file system takes one; os calls raise a bare ValueError
        raise ValueError(f"{key} must not contain a NUL byte")
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
    """How one top-level config key is read; it is declared on the ExperimentConfig field it sets."""

    # (key, raw value) -> value, or a ValueError whose args are the value's diagnostics
    parse: Callable[[str, str], object]
    rule: tuple | None = None  # the parsed value's rule (errors.check), the one its owner checks
    echo: bool = True  # part of every run's config echo in train_report.json
    key: str | None = None  # the config key; None: named like its field
    field: str | None = None  # the ExperimentConfig field, filled in by _KEYS


def _config_key(default, parse, rule=None, *, echo=True, key=None):
    """An ExperimentConfig field with ``default`` that the config key ``key`` (None: the field's name) sets."""
    return dataclasses.field(default=default, metadata={"key": _Key(parse, rule, echo, key)})


@dataclass(frozen=True)
class ExperimentConfig:
    assets: tuple[AssetSpec, ...]
    architectures: tuple[str, ...] = _config_key(CELL_KINDS, _architectures, echo=False)
    price_column: str = _config_key(DEFAULT_PRICE_COLUMN, _text)
    lookback: int = _config_key(60, _number(int), LOOKBACK_RULE)
    train_fraction: float = _config_key(SplitSpec.train_fraction, _number(float), TRAIN_FRACTION_RULE)
    hidden_units: int = _config_key(ArchSpec.hidden_units, _number(int), ARCH_RULES["hidden_units"])
    layers: int = _config_key(ArchSpec.layers, _number(int), ARCH_RULES["layers"])
    batch_size: int = _config_key(TrainConfig.batch_size, _number(int), TRAIN_RULES["batch_size"])
    epochs: int = _config_key(TrainConfig.epochs, _number(int), TRAIN_RULES["epochs"])
    learning_rate: float = _config_key(TrainConfig.learning_rate, _number(float), TRAIN_RULES["learning_rate"])
    validation_fraction: float = _config_key(
        TrainConfig.validation_fraction, _number(float), TRAIN_RULES["validation_fraction"]
    )
    master_seed: int = _config_key(1234, _number(int), key="seed")
    out_dir: Path = _config_key(Path("runs"), _path, echo=False)

    def arch_for(self, cell_kind: str) -> ArchSpec:
        return ArchSpec(cell_kind=cell_kind, layers=self.layers, hidden_units=self.hidden_units)


def derive_seed(master_seed: int, *parts: str) -> int:
    """Stable 64-bit seed from the master seed and labeling strings."""
    text = "|".join([str(int(master_seed)), *parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


_KEYS = {  # each top-level config key's row, from the field that declares it
    row.key or f.name: row._replace(field=f.name)
    for f in dataclasses.fields(ExperimentConfig)
    if (row := f.metadata.get("key"))
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
            elif any(c in symbol for c in "/\\\0"):  # the symbol names its run directories
                diags.append((lineno, f"asset symbol {quoted(symbol)} must not contain '/', '\\' or a NUL byte"))
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
        text = path.read_text(encoding="utf-8-sig")
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
    """Everything derived from one asset's CSV before any training: the imputed series split in two, and its windows."""

    imputed_count: int
    train: PriceSeries
    test: PriceSeries
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
        text = asset.csv_path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([(0, cannot("read", f"{asset.symbol} dataset", asset.csv_path, exc))]) from exc
    try:
        series = parse_ohlcv(text, price_column=config.price_column)
        imputed = impute_locf(series)
        train_part, test_part = chronological_split(imputed, SplitSpec(config.train_fraction))
        scaler = fit_scaler(train_part.values)
        train_windows = make_windows(transform(scaler, train_part.values), config.lookback)
        combined = np.concatenate([train_part.values[-config.lookback :], test_part.values])
        test_windows = make_windows(transform(scaler, combined), config.lookback)
    except (SchemaError, DataError, InsufficientDataError, DegenerateScaleError) as exc:  # name the dataset
        raise type(exc)(f"{asset.symbol} dataset: {exc}") from exc
    return PreparedAsset(series.missing_count, train_part, test_part, scaler, train_windows, test_windows)


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
                "symbol": asset.symbol,
                **_span(prepared.train.dates + prepared.test.dates),
                "missing_imputed": prepared.imputed_count,
                "train": {**_span(prepared.train.dates), "windows": len(prepared.train_windows)},
                "test": {**_span(prepared.test.dates), "windows": len(prepared.test_windows)},
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
    eval_report: EvalReport


def run_single(
    config: ExperimentConfig,
    asset: AssetSpec,
    cell_kind: str,
    prepared: PreparedAsset | None = None,
    run_dir: Path | None = None,
) -> RunResult:
    """Train and evaluate one (asset, architecture) pair, built from the config echo its train report holds.

    With ``run_dir``, the run's artifacts are written there: the checkpoint
    and train report as soon as training ends, so an evaluation that fails
    still leaves the trained model on disk, then the eval report and
    predictions.  When building or training the model fails, the train
    report alone is written, with the epochs completed and the error.
    """
    if prepared is None:
        prepared = prepare_asset(config, asset)
    echo = _config_echo(config, asset.symbol, cell_kind)
    tconfig = TrainConfig(**{f.name: echo[f.name] for f in dataclasses.fields(TrainConfig)})
    log.info(
        "training %s/%s: %d windows, %d epochs, batch %d",
        asset.symbol,
        cell_kind,
        len(prepared.train_windows),
        tconfig.epochs,
        tconfig.batch_size,
    )
    try:  # train's copy is the only parameter vector alive while it trains
        model, train_report = train(
            init_params(config.arch_for(cell_kind), seed=echo["init_seed"]), prepared.train_windows, tconfig
        )
    except (ForecastError, MemoryError) as exc:
        if run_dir is not None:
            partial = getattr(exc, "report", None)
            epochs = partial.epochs_log() if partial else []
            try:
                write_json(run_dir / "train_report.json", {"config": echo, "epochs": epochs, "error": str(exc)})
            except OutputError as write_error:  # the training error stays the one raised
                log.error("%s", write_error)
        raise
    if run_dir is not None:
        write_run_artifacts(echo, model, train_report, run_dir)
    eval_report = evaluate(model, prepared.test_windows, prepared.scaler, prepared.test.dates)
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
    return RunResult(asset.symbol, cell_kind, model, train_report, eval_report)


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


def write_run_artifacts(echo: dict, model: ModelParams, train_report: TrainReport, run_dir: Path) -> None:
    """Persist one trained run: checkpoint, and train report with the config echo the run was built from."""
    _write_file(make_out_dir(run_dir) / "checkpoint.json", lambda p: save_checkpoint(model, p))
    report = {"config": echo, "checkpoint": "checkpoint.json", "epochs": train_report.epochs_log()}
    write_json(run_dir / "train_report.json", report)


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
    results: list[tuple[str, str, EvalReport]]  # (asset, cell_kind, eval_report)
    failures: list[tuple[str, str, str]]  # (asset, cell_kind, error)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (asset x architecture) pair and write all artifacts.

    Data and config problems surface before any training starts.  A
    failing run is recorded as a failure without aborting its siblings; one
    whose evaluation fails keeps its checkpoint and train report.  Of a
    finished run only its evaluation is kept, so one trained model at a
    time is alive.
    """
    out_dir = make_out_dir(Path(config.out_dir))

    # fail fast on unreadable/invalid datasets before burning training time
    prepared = {asset.symbol: prepare_asset(config, asset) for asset in config.assets}

    results: list[tuple[str, str, EvalReport]] = []
    failures: list[tuple[str, str, str]] = []
    for asset in config.assets:
        for cell_kind in config.architectures:
            run_dir = out_dir / run_dir_name(asset.symbol, cell_kind)
            try:  # no name holds the RunResult, so its model is freed before the next run starts
                eval_report = run_single(config, asset, cell_kind, prepared[asset.symbol], run_dir).eval_report
                results.append((asset.symbol, cell_kind, eval_report))
            except (ForecastError, MemoryError) as exc:  # a model too big to allocate fails its run alone
                log.error("run %s/%s failed: %s", asset.symbol, cell_kind, exc)
                failures.append((asset.symbol, cell_kind, str(exc)))

    write_json(out_dir / "comparison.json", comparison_dict(results, failures))
    return ExperimentResult(out_dir=out_dir, results=results, failures=failures)


def comparison_dict(results: list[tuple[str, str, EvalReport]], failures) -> dict:
    """Comparison rows across runs' ``(asset, cell_kind, eval_report)``; best per asset by price-scale RMSE."""
    best: dict[str, EvalReport] = {}
    for asset, _, report in results:
        current = best.get(asset)
        if current is None or report.price.rmse < current.price.rmse:
            best[asset] = report
    rows = [
        {
            "asset": asset,
            "cell_kind": cell_kind,
            "run_dir": run_dir_name(asset, cell_kind),
            "normalized": report.normalized.to_dict(),
            "price": report.price.to_dict(),
            "best": best[asset] is report,
        }
        for asset, cell_kind, report in results
    ]
    return {
        "rows": rows,
        "failures": [{"asset": a, "cell_kind": k, "error": e} for a, k, e in failures],
    }
