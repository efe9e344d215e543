"""Config parsing, experiment orchestration, and the CLI surface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from cryptoforecast import ConfigError, ForecastError, SplitSpec, TrainConfig, cli, experiment, network
from cryptoforecast import make_windows, validate_config
from cryptoforecast.cli import main
from cryptoforecast.network import ArchSpec, init_params, model_to_dict
from cryptoforecast.training import train
from cryptoforecast.experiment import (
    AssetSpec,
    ExperimentConfig,
    derive_seed,
    prepare_asset,
    run_experiment,
    run_single,
)

REPO = Path(__file__).resolve().parent.parent
BTC_FIXTURE = REPO / "fixtures" / "btc_usd.csv"


def tiny_csv(tmp_path, n=90, start=date(2022, 1, 1), seed=5) -> Path:
    rng = np.random.default_rng(seed)
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    price = 50.0
    for k in range(n):
        day = (start + timedelta(days=k)).isoformat()
        price *= float(np.exp(rng.normal(scale=0.02)))
        lines.append(f"{day},{price:.2f},{price:.2f},{price:.2f},{price:.2f},{price:.2f},1000")
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        assets=(AssetSpec("TST", tiny_csv(tmp_path)),),
        architectures=("lstm",),
        lookback=10,
        hidden_units=4,
        epochs=2,
        master_seed=7,
        out_dir=tmp_path / "out",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def diverging_btc_config(tmp_path) -> Path:
    """quick.cfg shapes on the first 385 BTC fixture rows, with a learning rate that blows up."""
    csv_path = tmp_path / "btc385.csv"
    csv_path.write_text("".join(BTC_FIXTURE.read_text().splitlines(keepends=True)[:386]))
    config_path = tmp_path / "diverge.cfg"
    config_path.write_text(
        "lookback = 20\narchitectures = lstm\nhidden_units = 8\nepochs = 2\nseed = 99\n"
        f"learning_rate = 1e300\nout_dir = {tmp_path / 'out'}\n[asset.BTC]\ncsv = {csv_path}\n"
    )
    return config_path


def one_batch_diverging_config(tmp_path, validation_fraction=0.0) -> Path:
    """The first 60 BTC fixture rows in a single batch at a learning rate of 1e300.

    The one update leaves finite weights of about 1e300, and no later
    gradient checks it; without validation, no validation loss does either.
    """
    csv_path = tmp_path / "btc60.csv"
    csv_path.write_text("".join(BTC_FIXTURE.read_text().splitlines(keepends=True)[:61]))
    config_path = tmp_path / "diverge60.cfg"
    config_path.write_text(
        "lookback = 10\narchitectures = lstm\nhidden_units = 4\nbatch_size = 64\nepochs = 1\n"
        f"learning_rate = 1e300\nvalidation_fraction = {validation_fraction}\nseed = 3\n"
        f"out_dir = {tmp_path / 'out'}\n[asset.BTC]\ncsv = {csv_path}\n"
    )
    return config_path


def strict_json(path: Path):
    """Parse ``path`` as standard JSON: ``Infinity``, ``-Infinity`` and ``NaN`` are errors."""

    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


TOP_LEVEL_KEYS = (
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
)

# (config line, the one diagnostic it gets) for a value of the wrong type or range
BAD_VALUE_DIAGNOSTICS = [
    ("lookback = 1.5", "lookback expects an int, got '1.5'"),
    ("lookback = 0", "lookback must be >= 1, got 0"),
    ("train_fraction = half", "train_fraction expects a float, got 'half'"),
    ("train_fraction = 1", "train_fraction must be in (0, 1), got 1.0"),
    ("train_fraction = nan", "train_fraction must be in (0, 1), got nan"),
    ("train_fraction = inf", "train_fraction must be in (0, 1), got inf"),
    ("architectures = lstm, transformer", "unknown architecture 'transformer'; expected one of ('lstm', 'gru', 'bilstm')"),
    ("architectures = ,", "architectures must name at least one of lstm, gru, bilstm"),
    ("hidden_units = x", "hidden_units expects an int, got 'x'"),
    ("hidden_units = 0", "hidden_units must be >= 1, got 0"),
    ("layers = two", "layers expects an int, got 'two'"),
    ("layers = -1", "layers must be >= 1, got -1"),
    ("batch_size = 32.0", "batch_size expects an int, got '32.0'"),
    ("batch_size = 0", "batch_size must be >= 1, got 0"),
    ("epochs =", "epochs expects an int, got ''"),
    ("epochs = 0", "epochs must be >= 1, got 0"),
    ("learning_rate = fast", "learning_rate expects a float, got 'fast'"),
    ("learning_rate = 0", "learning_rate must be finite and > 0, got 0.0"),
    ("learning_rate = -inf", "learning_rate must be finite and > 0, got -inf"),
    ("learning_rate = nan", "learning_rate must be finite and > 0, got nan"),
    ("validation_fraction = none", "validation_fraction expects a float, got 'none'"),
    ("validation_fraction = 0.5", "validation_fraction must be in [0, 0.5), got 0.5"),
    ("seed = 1e3", "seed expects an int, got '1e3'"),
]

# (config line, ExperimentConfig field, parsed value) for a valid non-default value of every key
ACCEPTED_VALUES = [
    ("price_column = Adj Close", "price_column", "Adj Close"),
    ("lookback = 5", "lookback", 5),
    ("train_fraction = 0.75", "train_fraction", 0.75),
    ("architectures = GRU, lstm", "architectures", ("gru", "lstm")),
    ("hidden_units = 3", "hidden_units", 3),
    ("layers = 1", "layers", 1),
    ("batch_size = 1", "batch_size", 1),
    ("epochs = 1", "epochs", 1),
    ("learning_rate = 1e300", "learning_rate", 1e300),
    ("validation_fraction = 0", "validation_fraction", 0.0),
    ("seed = -5", "master_seed", -5),
    ("out_dir = runs/x", "out_dir", Path("runs/x")),
]

# (config line, its diagnostics) for values that were accepted before the guards existed
NEW_GUARD_DIAGNOSTICS = [
    ("architectures = lstm, lstm", ["duplicate architecture 'lstm'"]),
    (
        "architectures = gru, LSTM, gru, lstm, gru",
        ["duplicate architecture 'gru'", "duplicate architecture 'lstm'"],
    ),
    ("learning_rate = inf", ["learning_rate must be finite and > 0, got inf"]),
    ("learning_rate = 1e400", ["learning_rate must be finite and > 0, got inf"]),
    ("price_column =", ["price_column must not be empty"]),
    ("out_dir =", ["out_dir must not be empty"]),
]


class TestValidateConfig:
    def test_minimal_config_gets_all_defaults(self):
        config = validate_config("[asset.BTC]\ncsv = data/btc.csv\n")
        assert config.lookback == 60
        assert config.batch_size == 32
        assert config.epochs == 100
        assert config.learning_rate == 0.001
        assert config.train_fraction == 0.8
        assert config.validation_fraction == 0.1
        assert config.hidden_units == 100
        assert config.layers == 2
        assert config.architectures == ("lstm", "gru", "bilstm")
        assert config.price_column == "Close"
        assert config.master_seed == 1234
        assert config.out_dir == Path("runs")
        assert [a.symbol for a in config.assets] == ["BTC"]
        assert config == ExperimentConfig(assets=(AssetSpec("BTC", Path("data/btc.csv")),))

    @pytest.mark.parametrize("line, message", BAD_VALUE_DIAGNOSTICS)
    def test_bad_value_diagnostic_text_and_line(self, line, message):
        with pytest.raises(ConfigError) as exc_info:
            validate_config(f"# the key sits on line 2\n{line}\n[asset.BTC]\ncsv = x.csv\n")
        assert exc_info.value.diagnostics == [(2, message)]

    @pytest.mark.parametrize("line, field, value", ACCEPTED_VALUES)
    def test_accepted_value_sets_its_field_only(self, line, field, value):
        config = validate_config(f"{line}\n[asset.BTC]\ncsv = x.csv\n")
        default = validate_config("[asset.BTC]\ncsv = x.csv\n")
        assert config == dataclasses.replace(default, **{field: value})

    @pytest.mark.parametrize("line, messages", NEW_GUARD_DIAGNOSTICS)
    def test_new_guard_diagnostics(self, line, messages):
        with pytest.raises(ConfigError) as exc_info:
            validate_config(f"# the key sits on line 2\n{line}\n[asset.BTC]\ncsv = x.csv\n")
        assert exc_info.value.diagnostics == [(2, m) for m in messages]

    def test_every_empty_value_is_diagnosed_at_its_own_line(self):
        lines = [f"{key} =" for key in TOP_LEVEL_KEYS] + ["[asset.BTC]", "csv ="]
        with pytest.raises(ConfigError) as exc_info:
            validate_config("\n".join(lines) + "\n")
        diagnosed = [line for line, _ in exc_info.value.diagnostics]
        assert diagnosed == [*range(1, len(TOP_LEVEL_KEYS) + 1), len(lines)]
        assert (len(lines), "csv must not be empty") in exc_info.value.diagnostics

    def test_readme_config_table_matches_the_key_table(self):
        section = (REPO / "README.md").read_text().split("## Config format", 1)[1].split("\n## ", 1)[0]
        cells = re.findall(r"^\| `(\w+)`[^|]*\| (\S.*?) *\| (\S.*?) *\|", section, re.M)
        rows = {key: [default, allowed] for key, default, allowed in cells}
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}

        def shown(value):
            return ", ".join(value) if isinstance(value, tuple) else str(value)

        expected = {
            key: [f"`{shown(defaults[row.field])}`", f"`{row.rule[2]}`" if row.rule else "—"]
            for key, row in experiment._KEYS.items()
        }
        assert rows == {**expected, "csv": ["—", "—"]}
        assert sorted(experiment._KEYS) == sorted(TOP_LEVEL_KEYS)

    def test_zero_lookback_is_range_diagnostic(self):
        text = "lookback = 0\n[asset.BTC]\ncsv = x.csv\n"
        with pytest.raises(ConfigError) as exc_info:
            validate_config(text)
        assert any("lookback" in msg and line == 1 for line, msg in exc_info.value.diagnostics)

    def test_duplicate_asset_diagnostic(self):
        text = "[asset.BTC]\ncsv = a.csv\n[asset.BTC]\ncsv = b.csv\n"
        with pytest.raises(ConfigError) as exc_info:
            validate_config(text)
        assert any("duplicate asset" in msg for _, msg in exc_info.value.diagnostics)

    def test_unknown_key_carries_line_number(self):
        text = "# comment\nlokback = 60\n[asset.BTC]\ncsv = x.csv\n"
        with pytest.raises(ConfigError) as exc_info:
            validate_config(text)
        assert (2, "unknown key 'lokback'") in exc_info.value.diagnostics

    def test_missing_csv_diagnostic(self):
        with pytest.raises(ConfigError) as exc_info:
            validate_config("[asset.BTC]\n")
        assert any("missing its csv" in msg for _, msg in exc_info.value.diagnostics)

    def test_no_assets_rejected(self):
        with pytest.raises(ConfigError):
            validate_config("lookback = 60\n")

    def test_unknown_architecture_rejected(self):
        text = "architectures = lstm, transformer\n[asset.BTC]\ncsv = x.csv\n"
        with pytest.raises(ConfigError) as exc_info:
            validate_config(text)
        assert any("transformer" in msg for _, msg in exc_info.value.diagnostics)

    def test_multiple_diagnostics_itemized(self):
        text = "lookback = none\nepochs = 0\n[asset.BTC]\n"
        with pytest.raises(ConfigError) as exc_info:
            validate_config(text)
        assert len(exc_info.value.diagnostics) == 3

    def test_file_level_diagnostic_is_line_0_and_prints_without_a_line(self):
        text = "epochs = 0\n"
        with pytest.raises(ConfigError) as exc_info:
            validate_config(text)
        assert exc_info.value.diagnostics == [
            (0, "config declares no [asset.<SYMBOL>] sections"), (1, "epochs must be >= 1, got 0")
        ]
        assert str(exc_info.value) == "config declares no [asset.<SYMBOL>] sections; line 1: epochs must be >= 1, got 0"

    def test_comments_and_blanks_ignored(self):
        text = "\n# full line comment\n; alt comment\nepochs = 5\n[asset.X]\ncsv = x.csv\n"
        assert validate_config(text).epochs == 5


LONG = "z" * 5000  # one bad line or value as long as a file

# calls that quote a 5000-character input in their diagnostic
LONG_INPUT_CALLS = {
    "no equals sign": lambda: validate_config(f"{LONG}\n[asset.BTC]\ncsv = x.csv\n"),
    "unterminated section": lambda: validate_config(f"[{LONG}\n[asset.BTC]\ncsv = x.csv\n"),
    "unknown section": lambda: validate_config(f"[{LONG}]\n[asset.BTC]\ncsv = x.csv\n"),
    "unknown key": lambda: validate_config(f"{LONG} = 1\n[asset.BTC]\ncsv = x.csv\n"),
    "unknown asset key": lambda: validate_config(f"[asset.BTC]\ncsv = x.csv\n{LONG} = 1\n"),
    "not an int": lambda: validate_config(f"lookback = {LONG}\n[asset.BTC]\ncsv = x.csv\n"),
    "out of range": lambda: validate_config(f"lookback = -{'9' * 4000}\n[asset.BTC]\ncsv = x.csv\n"),
    "not finite": lambda: validate_config(f"learning_rate = {'9' * 5000}\n[asset.BTC]\ncsv = x.csv\n"),
    "architecture": lambda: validate_config(f"architectures = {LONG}\n[asset.BTC]\ncsv = x.csv\n"),
    "missing csv": lambda: validate_config(f"[asset.{LONG}]\n"),
    "duplicate symbol": lambda: validate_config(f"[asset.{LONG}]\ncsv = a\n[asset.{LONG}]\ncsv = b\n"),
    "cell kind": lambda: ArchSpec(LONG),
    "train config": lambda: TrainConfig(epochs=-(10**400)),  # these three printed all 401 digits, or no value
    "arch spec": lambda: ArchSpec("lstm", layers=-(10**400)),
    "split spec": lambda: SplitSpec(10**400),
    "checkpoint cell kind": lambda: network.model_from_dict(
        {**model_to_dict(init_params(ArchSpec("gru", 1, 1), 1)), "arch": {"cell_kind": LONG}}
    ),
    "checkpoint version": lambda: network.model_from_dict({"format": network.CHECKPOINT_FORMAT, "version": LONG}),
}


LIBRARY_CALLS = {"cell kind", "train config", "arch spec", "split spec"}  # a ValueError, not a ForecastError

# a long input whose diagnostic quotes the parsed value, not the input: 5000 nines read as inf
SHORT_DIAGNOSTICS = {"not finite": "line 1: learning_rate must be finite and > 0, got inf"}


@pytest.mark.parametrize("case", LONG_INPUT_CALLS)
def test_diagnostics_cut_long_input(case):
    with pytest.raises(ValueError if case in LIBRARY_CALLS else ForecastError) as exc_info:
        LONG_INPUT_CALLS[case]()
    if case in SHORT_DIAGNOSTICS:
        assert str(exc_info.value) == SHORT_DIAGNOSTICS[case]
    else:
        assert "..." in str(exc_info.value) and len(str(exc_info.value)) < 200


# the library call that owns each ranged config key's rule, given the parsed value
OWNER_CALLS = {
    "lookback": lambda v: make_windows(np.arange(5.0), v),
    "train_fraction": lambda v: SplitSpec(v),
    "hidden_units": lambda v: ArchSpec("lstm", hidden_units=v),
    "layers": lambda v: ArchSpec("lstm", layers=v),
    "batch_size": lambda v: TrainConfig(batch_size=v),
    "epochs": lambda v: TrainConfig(epochs=v),
    "learning_rate": lambda v: TrainConfig(learning_rate=v),
    "validation_fraction": lambda v: TrainConfig(validation_fraction=v),
}


def test_every_ranged_key_has_its_owner_call():
    assert {key for key, row in experiment._KEYS.items() if row.rule is not None} == set(OWNER_CALLS)


@pytest.mark.parametrize("line", [
    "lookback = 0",
    "train_fraction = 1",
    "train_fraction = nan",
    "hidden_units = 0",  # the library's message had no value
    "layers = -1",
    "batch_size = 0",
    "epochs = 0",
    "learning_rate = 0",  # the config said "> 0", the library "finite and > 0"
    "learning_rate = inf",  # the config said "a finite float"
    "validation_fraction = 0.5",
    "validation_fraction = -0.1",
])
def test_config_diagnostic_is_the_owners_error(line):
    key, _, raw = (part.strip() for part in line.partition("="))
    with pytest.raises(ValueError) as owner:
        OWNER_CALLS[key](experiment._KEYS[key].parse(key, raw))
    with pytest.raises(ConfigError) as config:
        validate_config(f"{line}\n[asset.BTC]\ncsv = x.csv\n")
    assert config.value.diagnostics == [(1, str(owner.value))]


class TestSeedDerivation:
    def test_pure_function_of_inputs(self):
        a = derive_seed(1234, "BTC", "lstm", "init")
        b = derive_seed(1234, "BTC", "lstm", "init")
        assert a == b

    def test_distinct_across_runs_and_roles(self):
        seeds = {
            derive_seed(1234, sym, kind, role)
            for sym in ("BTC", "ETH")
            for kind in ("lstm", "gru")
            for role in ("init", "shuffle")
        }
        assert len(seeds) == 8

    def test_master_seed_matters(self):
        assert derive_seed(1, "BTC", "lstm") != derive_seed(2, "BTC", "lstm")


class TestPrepareAsset:
    def test_test_windows_cover_every_test_date(self, tmp_path):
        config = tiny_config(tmp_path)
        prepared = prepare_asset(config, config.assets[0])
        assert len(prepared.test_windows) == len(prepared.test.dates)
        # first test window is the tail of the training segment
        expected_first = (
            prepared.train.values[-config.lookback :] - prepared.scaler.min_value
        ) / prepared.scaler.span
        np.testing.assert_allclose(prepared.test_windows.inputs[0], expected_first, atol=1e-15)
        # its target is the first test value
        first_target = (
            prepared.test.values[0] - prepared.scaler.min_value
        ) / prepared.scaler.span
        assert prepared.test_windows.targets[0] == first_target

    def test_scaler_fitted_on_training_segment_only(self, tmp_path):
        config = tiny_config(tmp_path)
        prepared = prepare_asset(config, config.assets[0])
        assert prepared.scaler.min_value == prepared.train.values.min()
        assert prepared.scaler.max_value == prepared.train.values.max()


class TestRunExperiment:
    def test_artifact_manifest(self, tmp_path):
        config = tiny_config(tmp_path)
        outcome = run_experiment(config)
        files = sorted(p.name for p in outcome.out_dir.rglob("*") if p.is_file())
        assert files == [
            "checkpoint.json",
            "comparison.json",
            "eval_report.json",
            "predictions.csv",
            "train_report.json",
        ]
        assert (outcome.out_dir / "TST_lstm" / "checkpoint.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = tiny_config(tmp_path, out_dir=tmp_path / "a")
        config_b = tiny_config(tmp_path, out_dir=tmp_path / "b")
        out_a = run_experiment(config_a).out_dir
        out_b = run_experiment(config_b).out_dir
        for path_a in sorted(out_a.rglob("*")):
            if path_a.is_file():
                path_b = out_b / path_a.relative_to(out_a)
                assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_comparison_rows_and_best_flags(self, tmp_path):
        symbols = ("AAA", "BBB", "CCC")
        assets = []
        for k, sym in enumerate(symbols, start=1):
            (tmp_path / sym).mkdir()
            assets.append(AssetSpec(sym, tiny_csv(tmp_path / sym, seed=k)))
        config = tiny_config(tmp_path, assets=tuple(assets), architectures=("lstm", "gru", "bilstm"))
        outcome = run_experiment(config)
        doc = json.loads((outcome.out_dir / "comparison.json").read_text())
        assert len(doc["rows"]) == 9
        assert sum(r["best"] for r in doc["rows"]) == 3
        for symbol in symbols:
            flags = [r["best"] for r in doc["rows"] if r["asset"] == symbol]
            assert len(flags) == 3 and sum(flags) == 1
            best_row = next(r for r in doc["rows"] if r["asset"] == symbol and r["best"])
            rivals = [r["price"]["rmse"] for r in doc["rows"] if r["asset"] == symbol]
            assert best_row["price"]["rmse"] == min(rivals)
        assert doc["failures"] == []

    def test_failed_run_recorded_without_aborting_siblings(self, tmp_path, monkeypatch):
        from cryptoforecast import experiment as exp_mod
        from cryptoforecast.errors import DivergenceError

        config = tiny_config(tmp_path, architectures=("lstm", "gru"))
        real_train = exp_mod.train

        def sabotage(model, batch, tconfig):
            if model.arch.cell_kind == "lstm":
                raise DivergenceError(3)
            return real_train(model, batch, tconfig)

        monkeypatch.setattr(exp_mod, "train", sabotage)
        outcome = run_experiment(config)
        assert [(a, k) for a, k, _ in outcome.failures] == [("TST", "lstm")]
        assert [r.cell_kind for r in outcome.results] == ["gru"]
        doc = json.loads((outcome.out_dir / "comparison.json").read_text())
        assert len(doc["failures"]) == 1
        assert len(doc["rows"]) == 1

    def test_unwritable_run_directory_recorded_without_aborting_siblings(self, tmp_path):
        # was a FileExistsError traceback after training, with no comparison.json
        config = tiny_config(tmp_path, architectures=("lstm", "gru"))
        (config.out_dir / "TST_lstm").parent.mkdir(parents=True)
        (config.out_dir / "TST_lstm").write_text("kept\n")
        outcome = run_experiment(config)
        assert outcome.failures == [
            ("TST", "lstm", f"cannot make output directory {config.out_dir / 'TST_lstm'}: File exists")
        ]
        assert [r.cell_kind for r in outcome.results] == ["gru"]
        assert len(json.loads((config.out_dir / "comparison.json").read_text())["failures"]) == 1

    @pytest.mark.parametrize("blocked", ["checkpoint.json", "train_report.json", "predictions.csv"])
    def test_unwritable_run_file_recorded_without_aborting_siblings(self, tmp_path, blocked):
        # was an IsADirectoryError traceback that aborted the whole run, with no comparison.json
        config = tiny_config(tmp_path, architectures=("lstm", "gru"))
        (config.out_dir / "TST_lstm" / blocked).mkdir(parents=True)
        outcome = run_experiment(config)
        path = config.out_dir / "TST_lstm" / blocked
        assert outcome.failures == [("TST", "lstm", f"cannot write output file {path}: Is a directory")]
        assert [r.cell_kind for r in outcome.results] == ["gru"]
        assert len(json.loads((config.out_dir / "comparison.json").read_text())["failures"]) == 1

    def test_failed_checkpoint_write_leaves_the_previous_file_and_no_partial_one(self, tmp_path, monkeypatch):
        # was a truncated checkpoint.json holding the half that was written
        config = tiny_config(tmp_path)
        run_experiment(config)
        run_dir = config.out_dir / "TST_lstm"
        path = run_dir / "checkpoint.json"
        before, names = path.read_bytes(), sorted(p.name for p in run_dir.iterdir())

        def half_written(model, target):
            Path(target).write_text(path.read_text()[:100])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(experiment, "save_checkpoint", half_written)
        outcome = run_experiment(config)
        assert outcome.failures == [("TST", "lstm", f"cannot write output file {path}: No space left on device")]
        assert path.read_bytes() == before
        assert sorted(p.name for p in run_dir.iterdir()) == names

    def test_failed_training_leaves_train_report(self, tmp_path, monkeypatch):
        from cryptoforecast import training

        config = tiny_config(tmp_path, epochs=3, architectures=("lstm", "gru"))
        real_step = training.adam_step

        def poison_second_epoch(model, grads, state, tconfig, **kwargs):
            if model.arch.cell_kind == "lstm" and state.step == batches_per_epoch:
                grads.vector[-3] = np.inf  # in dense_w
            return real_step(model, grads, state, tconfig, **kwargs)

        n_windows = len(prepare_asset(config, config.assets[0]).train_windows)
        n_train = n_windows - int(n_windows * config.validation_fraction)
        batches_per_epoch = -(-n_train // config.batch_size)
        monkeypatch.setattr(training, "adam_step", poison_second_epoch)
        outcome = run_experiment(config)
        error = "non-finite gradient in dense_w at epoch 2, batch 1; aborting update"
        assert outcome.failures == [("TST", "lstm", error)]
        run_dir = outcome.out_dir / "TST_lstm"
        assert sorted(p.name for p in run_dir.iterdir()) == ["train_report.json"]
        doc = json.loads((run_dir / "train_report.json").read_text())
        assert doc["error"] == error
        assert [e["epoch"] for e in doc["epochs"]] == [1]
        assert np.isfinite(doc["epochs"][0]["train_loss"])
        assert doc["config"]["cell_kind"] == "lstm" and "checkpoint" not in doc
        assert (outcome.out_dir / "TST_gru" / "checkpoint.json").exists()

    def test_failed_evaluation_keeps_trained_model(self, tmp_path, monkeypatch):
        from cryptoforecast import experiment as exp_mod
        from cryptoforecast.errors import UndefinedMetricError

        trained = run_experiment(tiny_config(tmp_path, out_dir=tmp_path / "ok")).out_dir / "TST_lstm"

        def fail_evaluation(*args, **kwargs):
            raise UndefinedMetricError("normalized MAPE is undefined")

        monkeypatch.setattr(exp_mod, "evaluate", fail_evaluation)
        outcome = run_experiment(tiny_config(tmp_path, out_dir=tmp_path / "failed"))
        assert [(a, k) for a, k, _ in outcome.failures] == [("TST", "lstm")]
        assert "MAPE" in outcome.failures[0][2]
        assert outcome.results == []
        run_dir = outcome.out_dir / "TST_lstm"
        assert sorted(p.name for p in run_dir.iterdir()) == ["checkpoint.json", "train_report.json"]
        for name in ("checkpoint.json", "train_report.json"):
            assert (run_dir / name).read_bytes() == (trained / name).read_bytes(), name
        doc = json.loads((outcome.out_dir / "comparison.json").read_text())
        assert doc["rows"] == [] and len(doc["failures"]) == 1

    def test_eval_report_contents(self, tmp_path):
        config = tiny_config(tmp_path)
        outcome = run_experiment(config)
        doc = json.loads((outcome.out_dir / "TST_lstm" / "eval_report.json").read_text())
        assert set(doc) == {"asset", "cell_kind", "n", "normalized", "price", "pairs", "scaler"}
        assert set(doc["normalized"]) == {"mse", "mae", "rmse", "mape"}
        assert doc["n"] == len(doc["pairs"])
        assert doc["scaler"]["max"] > doc["scaler"]["min"]

    def test_train_report_contents(self, tmp_path):
        config = tiny_config(tmp_path)
        outcome = run_experiment(config)
        doc = json.loads((outcome.out_dir / "TST_lstm" / "train_report.json").read_text())
        assert doc["checkpoint"] == "checkpoint.json"
        assert len(doc["epochs"]) == config.epochs
        first = doc["epochs"][0]
        assert set(first) == {"epoch", "train_loss", "val_loss"}
        assert doc["config"]["asset"] == "TST"
        assert doc["config"]["epochs"] == 2

    def test_config_echo_keys_and_values(self):
        text = (
            "price_column = Open\nlookback = 7\ntrain_fraction = 0.7\narchitectures = gru, lstm\n"
            "hidden_units = 5\nlayers = 3\nbatch_size = 4\nepochs = 6\nlearning_rate = 0.02\n"
            "validation_fraction = 0.2\nseed = 42\nout_dir = elsewhere\n[asset.ETH]\ncsv = e.csv\n"
        )
        echo = experiment._config_echo(validate_config(text), "ETH", "gru")
        assert echo == {
            "asset": "ETH",
            "cell_kind": "gru",
            "price_column": "Open",
            "lookback": 7,
            "train_fraction": 0.7,
            "hidden_units": 5,
            "layers": 3,
            "batch_size": 4,
            "epochs": 6,
            "learning_rate": 0.02,
            "validation_fraction": 0.2,
            "master_seed": 42,
            "init_seed": derive_seed(42, "ETH", "gru", "init"),
            "shuffle_seed": derive_seed(42, "ETH", "gru", "shuffle"),
        }


class TestCli:
    def test_run_and_reevaluate_byte_identical(self, tmp_path, capsys):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "lookback = 10\nhidden_units = 4\nepochs = 2\narchitectures = lstm\n"
            f"out_dir = {tmp_path / 'out'}\n\n[asset.TST]\ncsv = {csv_path}\n"
        )
        assert main(["run", "--config", str(config_path)]) == 0
        run_dir = tmp_path / "out" / "TST_lstm"
        original = (run_dir / "eval_report.json").read_bytes()

        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(config_path),
                    "--asset",
                    "TST",
                    "--checkpoint",
                    str(run_dir / "checkpoint.json"),
                    "--out",
                    str(tmp_path / "reeval"),
                ]
            )
            == 0
        )
        reeval = (tmp_path / "reeval" / "eval_report.json").read_bytes()
        assert reeval == original
        assert (tmp_path / "reeval" / "predictions.csv").read_bytes() == (
            run_dir / "predictions.csv"
        ).read_bytes()

    @pytest.mark.parametrize("damage", ["drop_layer", "short_array", "non_numeric"])
    def test_evaluate_rejects_damaged_checkpoint(self, tmp_path, capsys, damage):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\nhidden_units = 4\n[asset.TST]\ncsv = {csv_path}\n")
        doc = model_to_dict(init_params(ArchSpec("lstm", hidden_units=4), seed=3))
        if damage == "drop_layer":
            doc["layers"] = doc["layers"][:1]
        elif damage == "short_array":
            doc["layers"][0]["w_i"] = doc["layers"][0]["w_i"][:-1]
        else:
            doc["layers"][0]["u_c"][0] = "oops"
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        argv = ["evaluate", "--config", str(config_path), "--asset", "TST", "--checkpoint", str(ckpt)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "checkpoint" in err

    def test_evaluate_rejects_checkpoint_declaring_an_unallocatable_model(self, tmp_path, capsys):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\nhidden_units = 4\n[asset.TST]\ncsv = {csv_path}\n")
        doc = model_to_dict(init_params(ArchSpec("lstm", hidden_units=4), seed=3))
        doc["arch"]["hidden_units"] = 10**7  # 3.2 PB of parameters: no machine can allocate them
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        argv = ["evaluate", "--config", str(config_path), "--asset", "TST", "--checkpoint", str(ckpt)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: checkpoint layers[0].w_i: expected 10000000 values, got 4\n"

    @pytest.mark.parametrize("field, value, message", [
        ("cell_kind", None, "cell_kind must be a string, got NoneType"),  # was an AttributeError traceback, exit 1
        ("hidden_units", 4.0, "hidden_units must be an integer, got float"),  # was a numpy TypeError traceback
        ("layers", True, "layers must be an integer, got bool"),  # was read as 1 layer
        ("input_dim", "1", "input_dim must be an integer, got str"),
    ])
    def test_evaluate_rejects_checkpoint_arch_of_the_wrong_type(self, tmp_path, capsys, field, value, message):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\nhidden_units = 4\nlayers = 1\n[asset.TST]\ncsv = {csv_path}\n")
        doc = model_to_dict(init_params(ArchSpec("lstm", layers=1, hidden_units=4), seed=3))
        doc["arch"][field] = value
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        argv = ["evaluate", "--config", str(config_path), "--asset", "TST", "--checkpoint", str(ckpt)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: checkpoint arch: {message}\n"

    def test_prepare_rejects_a_config_that_is_not_utf8(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_bytes(f"lookback = 10\n[asset.TST]\ncsv = {tiny_csv(tmp_path)}\n# \xff\n".encode("latin-1"))
        assert main(["prepare", "--config", str(config_path)]) == 2
        assert f"cannot read config {config_path}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_prepare_rejects_a_dataset_that_is_not_utf8(self, tmp_path, capsys):
        csv_path = tiny_csv(tmp_path)
        csv_path.write_bytes(csv_path.read_bytes().replace(b"1000\n", b"1000\xff\n", 1))
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\n[asset.TST]\ncsv = {csv_path}\n")
        assert main(["prepare", "--config", str(config_path)]) == 2
        assert f"cannot read TST dataset {csv_path}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_prepare_reads_a_dataset_saved_with_a_byte_order_mark(self, tmp_path, capsys):
        csv_path = tiny_csv(tmp_path)
        bom_path = csv_path.with_name("bom.csv")
        bom_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        config_path = tmp_path / "exp.cfg"
        reports = []
        for path in (csv_path, bom_path):
            config_path.write_text(f"lookback = 10\n[asset.TST]\ncsv = {path}\n")
            # the BOM file exited 2: CSV header lacks a 'Date' column: ['\ufeffDate', ...]
            assert main(["prepare", "--config", str(config_path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0]

    def test_load_config_reads_a_config_saved_with_a_byte_order_mark(self, tmp_path):
        text = f"lookback = 10\n[asset.TST]\ncsv = {tiny_csv(tmp_path)}\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        # the BOM config failed with line 1: unknown key '\ufefflookback'
        assert experiment.load_config(bom) == experiment.load_config(plain)

    def test_prepare_quotes_a_runaway_date_cell_short(self, tmp_path, capsys):
        csv_path = tiny_csv(tmp_path, n=28)
        csv_path.write_text(csv_path.read_text().replace("\n2022-01-05", '\n"2022-01-05', 1))  # the cell runs to EOF
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\n[asset.TST]\ncsv = {csv_path}\n")
        assert main(["prepare", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        # the record runs from line 6 to the last line, 29, and is named by the line it starts on
        assert "line 6: date '2022-01-05," in err and len(err) <= 200  # was the rest of the file, 1166 characters

    @pytest.mark.parametrize("fault", ["bad_date", "no_price_column", "too_short", "starts_with_a_gap", "constant"])
    def test_a_data_error_names_its_dataset(self, tmp_path, capsys, fault):
        good = tiny_csv(tmp_path)
        header, first, *rest = good.read_text().splitlines()
        rows, message = {  # one fault for each error type that preparing an asset raises
            "bad_date": ([header, "2019-13-01" + first[10:], *rest], "line 2: date '2019-13-01' is not YYYY-MM-DD"),
            "no_price_column": ([header.replace(",Close,", ",Shut,"), first, *rest], "CSV header lacks price column"),
            "too_short": ([header, first, *rest[:10]], "need more than 10 values to build windows"),
            "starts_with_a_gap": ([header, "2022-01-01,1,1,1,null,1,1000", *rest], "first observation (2022-01-01)"),
            "constant": ([header] + [f"{row[:10]},5,5,5,5,5,1000" for row in [first, *rest]], "max (5.0) must exceed"),
        }[fault]
        bad = tmp_path / "eth.csv"
        bad.write_text("\n".join(rows) + "\n")
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\n[asset.BTC]\ncsv = {good}\n[asset.ETH]\ncsv = {bad}\n")
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        # the message named neither the asset nor its file
        assert capsys.readouterr().err.startswith(f"error: ETH dataset: {message}")

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_a_model_too_big_to_allocate_is_a_failed_run_not_a_traceback(self, tmp_path, capsys, command):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            f"lookback = 10\nhidden_units = 10000000\narchitectures = lstm\n[asset.TST]\ncsv = {tiny_csv(tmp_path)}\n"
        )
        argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out")]
        # 8.5 PiB of parameters, beyond any address space: the allocation fails at once
        code = main(argv + ["--asset", "TST", "--arch", "lstm"] if command == "train" else argv)
        err = capsys.readouterr().err  # was a MemoryError traceback, exit 1
        report = json.loads((tmp_path / "out" / "TST_lstm" / "train_report.json").read_text())
        assert report["epochs"] == [] and report["error"].startswith("Unable to allocate")
        if command == "train":
            assert code == 2 and err == f"error: {report['error']}\n"
        else:
            comparison = json.loads((tmp_path / "out" / "comparison.json").read_text())
            failure = {"asset": "TST", "cell_kind": "lstm", "error": report["error"]}
            assert comparison == {"rows": [], "failures": [failure]}
            assert code == 1 and err.endswith(f"FAILED TST/lstm: {report['error']}\n")

    @pytest.mark.parametrize("command, extra", [
        ("prepare", []),
        ("train", ["--asset", "TST", "--arch", "lstm"]),
        ("evaluate", ["--asset", "TST", "--checkpoint", "checkpoint.json"]),
        ("run", []),
    ])
    def test_only_the_commands_that_draw_seeds_take_a_seed(self, capsys, command, extra):
        argv = [command, "--config", "exp.cfg", "--seed", "1", *extra]
        if command in ("train", "run"):
            assert cli.build_parser().parse_args(argv).seed == 1
        else:  # no code on their paths reads the master seed
            with pytest.raises(SystemExit) as exited:
                cli.build_parser().parse_args(argv)
            assert exited.value.code == 2
            assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["no_asset_section", "missing_config", "dataset_not_utf8"])
    def test_file_level_config_errors_name_no_line(self, tmp_path, capsys, problem):
        """A problem with a whole file has no line to name: stderr shows the message alone."""
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\n[asset.TST]\ncsv = {csv_path}\n")
        if problem == "no_asset_section":
            config_path.write_text("lookback = 10\n")
            expected = "error: config declares no [asset.<SYMBOL>] sections\n"
        elif problem == "missing_config":
            config_path.unlink()
            expected = f"error: cannot read config {config_path}: No such file or directory\n"
        else:
            csv_path.write_bytes(csv_path.read_bytes().replace(b"1000\n", b"1000\xff\n", 1))
            expected = f"error: cannot read TST dataset {csv_path}: 'utf-8' codec can't decode"
        assert main(["prepare", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(expected) and "line 0" not in err

    @pytest.mark.parametrize("target", ["config", "dataset", "checkpoint"])
    def test_unreadable_long_path_is_shown_once_and_cut(self, tmp_path, capsys, target):
        """The path is shown once, cut to a tail that keeps the file name; the OS error adds only its reason."""
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\nhidden_units = 4\n[asset.TST]\ncsv = {csv_path}\n")
        long_path = tmp_path / ("d" * 4990) / f"{target}.file"  # a name too long for the file system
        if target == "config":
            argv = ["prepare", "--config", str(long_path)]
        elif target == "dataset":
            config_path.write_text(f"lookback = 10\n[asset.TST]\ncsv = {long_path}\n")
            argv = ["prepare", "--config", str(config_path)]
        else:
            argv = ["evaluate", "--config", str(config_path), "--asset", "TST", "--checkpoint", str(long_path)]
        assert len(str(long_path)) > 5000
        assert main(argv) == 2
        err = capsys.readouterr().err
        # were 10064 (config) and 5075 (dataset) characters: the path in full, and again inside the OS error
        assert len(err) < 300 and err.count(f"{target}.file") == 1 and "File name too long" in err, err

    def test_prepare_prints_report(self, tmp_path, capsys):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\n[asset.TST]\ncsv = {csv_path}\n")
        assert main(["prepare", "--config", str(config_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        asset = doc["assets"][0]
        assert asset["symbol"] == "TST"
        assert asset["train"]["rows"] + asset["test"]["rows"] == asset["rows"]

    @pytest.mark.parametrize("command, report", [("prepare", "prepare_report.json"), ("evaluate", "eval_report.json")])
    def test_report_printed_without_out_is_the_file_written_with_it(self, tmp_path, capsys, command, report):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\nhidden_units = 4\n[asset.TST]\ncsv = {csv_path}\n")
        checkpoint = tmp_path / "checkpoint.json"
        network.save_checkpoint(init_params(ArchSpec("gru", hidden_units=4), seed=1), checkpoint)
        argv = [command, "--config", str(config_path)]
        if command == "evaluate":
            argv += ["--asset", "TST", "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out_dir = tmp_path / "out"
        assert main([*argv, "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == f"{out_dir / report}\n"  # with --out, the path written
        assert printed.encode() == (out_dir / report).read_bytes()

    def test_train_single_run(self, tmp_path):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "lookback = 10\nhidden_units = 4\nepochs = 1\n"
            f"out_dir = {tmp_path / 'out'}\n[asset.TST]\ncsv = {csv_path}\n"
        )
        assert main(["train", "--config", str(config_path), "--asset", "TST", "--arch", "gru"]) == 0
        assert (tmp_path / "out" / "TST_gru" / "checkpoint.json").exists()

    def test_train_failure_says_where_and_leaves_train_report(self, tmp_path, capsys):
        config_path = diverging_btc_config(tmp_path)
        assert main(["train", "--config", str(config_path), "--asset", "BTC", "--arch", "lstm"]) == 2
        error = "non-finite gradient in layers[0].w at epoch 1, batch 2; aborting update"
        assert error in capsys.readouterr().err
        run_dir = tmp_path / "out" / "BTC_lstm"
        assert sorted(p.name for p in run_dir.iterdir()) == ["train_report.json"]
        doc = json.loads((run_dir / "train_report.json").read_text())
        assert doc["error"] == error
        assert doc["epochs"] == []

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_failed_training_keeps_its_error_when_its_train_report_cannot_be_written(
        self, tmp_path, capsys, caplog, command
    ):
        # was only "cannot write output file .../train_report.json: Is a directory", in both commands
        config_path = diverging_btc_config(tmp_path)
        report = tmp_path / "out" / "BTC_lstm" / "train_report.json"
        report.mkdir(parents=True)
        extra = ["--asset", "BTC", "--arch", "lstm"] if command == "train" else []
        code = main([command, "--config", str(config_path), *extra])
        error = "non-finite gradient in layers[0].w at epoch 1, batch 2; aborting update"
        assert f"cannot write output file {report}: Is a directory" in caplog.text
        err = capsys.readouterr().err
        if command == "train":
            assert (code, err) == (2, f"error: {error}\n")
        else:
            assert (code, err) == (1, f"FAILED BTC/lstm: {error}\n")
            doc = json.loads((tmp_path / "out" / "comparison.json").read_text())
            assert doc["failures"] == [{"asset": "BTC", "cell_kind": "lstm", "error": error}]

    def test_train_keeps_model_when_evaluation_fails(self, tmp_path, capsys, monkeypatch):
        from cryptoforecast import experiment as exp_mod
        from cryptoforecast.errors import UndefinedMetricError

        def fail_evaluation(*args, **kwargs):
            raise UndefinedMetricError("normalized MAPE is undefined")

        monkeypatch.setattr(exp_mod, "evaluate", fail_evaluation)
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "lookback = 10\nhidden_units = 4\nepochs = 1\n"
            f"out_dir = {tmp_path / 'out'}\n[asset.TST]\ncsv = {csv_path}\n"
        )
        assert main(["train", "--config", str(config_path), "--asset", "TST", "--arch", "gru"]) == 2
        assert "MAPE" in capsys.readouterr().err
        run_dir = tmp_path / "out" / "TST_gru"
        assert sorted(p.name for p in run_dir.iterdir()) == ["checkpoint.json", "train_report.json"]
        network.load_checkpoint(run_dir / "checkpoint.json")
        assert len(json.loads((run_dir / "train_report.json").read_text())["epochs"]) == 1

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("lookback = 0\n[asset.TST]\ncsv = missing.csv\n")
        assert main(["run", "--config", str(config_path)]) == 2
        assert "lookback" in capsys.readouterr().err

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--cell", "gru", "--max-hidden", "4"]) == 0
        out = capsys.readouterr().out
        assert "gru" in out and "ok" in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "--seed must be >= 0, got -1"),
            ("--trials", "-3", "--trials must be >= 1, got -3"),
            ("--trials", "0", "--trials must be >= 1, got 0"),
            ("--max-hidden", "1", "--max-hidden must be >= 2, got 1"),
            ("--max-window", "2", "--max-window must be >= 3, got 2"),
            ("--epsilon", "0", "--epsilon must be within [1e-7, 1e-3], got 0.0"),
            ("--epsilon", "0.01", "--epsilon must be within [1e-7, 1e-3], got 0.01"),
            ("--epsilon", "nan", "--epsilon must be within [1e-7, 1e-3], got nan"),
            ("--threshold", "nan", "--threshold must be finite and > 0, got nan"),
            ("--threshold", "inf", "--threshold must be finite and > 0, got inf"),
            ("--threshold", "0", "--threshold must be finite and > 0, got 0.0"),
            ("--threshold", "-1", "--threshold must be finite and > 0, got -1.0"),
        ],
    )
    def test_gradcheck_rejects_bad_flags(self, capsys, flag, value, message):
        assert main(["gradcheck", "--trials", "1", "--cell", "gru", "--max-hidden", "2", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["prepare", "train", "evaluate", "run"])
    def test_empty_out_is_rejected_and_writes_nothing(self, tmp_path, capsys, monkeypatch, command):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            f"lookback = 10\nhidden_units = 4\nepochs = 1\nout_dir = {tmp_path / 'out'}\n[asset.TST]\ncsv = {csv_path}\n"
        )
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(model_to_dict(init_params(ArchSpec("lstm", hidden_units=4), seed=3))))
        extra = {"train": ["--asset", "TST", "--arch", "lstm"], "evaluate": ["--asset", "TST", "--checkpoint", str(ckpt)]}
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main([command, "--config", str(config_path), "--out", "", *extra.get(command, [])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out must not be empty\n"
        assert list(cwd.iterdir()) == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["prepare", "train", "evaluate", "run"])
    def test_out_naming_a_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # was a FileExistsError traceback and exit 1; train raised NotADirectoryError only after training
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\nhidden_units = 4\nepochs = 1\n[asset.TST]\ncsv = {csv_path}\n")
        ckpt = tmp_path / "checkpoint.json"
        network.save_checkpoint(init_params(ArchSpec("lstm", hidden_units=4), seed=3), ckpt)
        extra = {"train": ["--asset", "TST", "--arch", "lstm"], "evaluate": ["--asset", "TST", "--checkpoint", str(ckpt)]}

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        for module, name in ((experiment, "prepare_asset"), (experiment, "train"), (cli, "load_checkpoint")):
            monkeypatch.setattr(module, name, no_work)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main([command, "--config", str(config_path), "--out", str(afile), *extra.get(command, [])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        path, reason = (afile / "TST_lstm", "Not a directory") if command == "train" else (afile, "File exists")
        assert captured.err == f"error: cannot make output directory {path}: {reason}\n"
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("command, blocked", [
        ("prepare", "prepare_report.json"),
        ("evaluate", "eval_report.json"),
        ("evaluate", "predictions.csv"),
        ("train", "TST_lstm/checkpoint.json"),
    ])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, command, blocked):
        # was an IsADirectoryError traceback and exit 1
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\nhidden_units = 4\nepochs = 1\n[asset.TST]\ncsv = {csv_path}\n")
        ckpt = tmp_path / "checkpoint.json"
        network.save_checkpoint(init_params(ArchSpec("lstm", hidden_units=4), seed=3), ckpt)
        extra = {"train": ["--asset", "TST", "--arch", "lstm"], "evaluate": ["--asset", "TST", "--checkpoint", str(ckpt)]}
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main([command, "--config", str(config_path), "--out", str(out), *extra.get(command, [])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write output file {out / blocked}: Is a directory\n"

    def test_load_config_rejects_an_empty_out_dir_override(self, tmp_path):
        # was out_dir=Path('.'): a library caller wrote into the working directory
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"out_dir = {tmp_path / 'out'}\n[asset.TST]\ncsv = x.csv\n")
        with pytest.raises(ConfigError) as exc_info:
            experiment.load_config(config_path, out_dir="")
        assert exc_info.value.diagnostics == [(0, "--out must not be empty")]

    def test_gradcheck_has_no_out_option(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["gradcheck", "--trials", "1", "--out", "ignored"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --out ignored" in capsys.readouterr().err

    def test_gradcheck_failure_names_the_element(self, capsys, monkeypatch):
        real_backward = network.backward_batch

        def corrupted(model_, tape_, d_pred):
            grads = real_backward(model_, tape_, d_pred)
            grads.dense_b[0] *= 2.0
            return grads

        monkeypatch.setattr(network, "backward_batch", corrupted)
        argv = ["gradcheck", "--trials", "2", "--cell", "gru", "--max-hidden", "2", "--max-window", "3"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("gru: worst relative error") and lines[0].endswith("[FAIL]")
        assert lines[1].startswith("  FAIL gru trial 0: dense_b[0] analytic ")
        assert lines[2].startswith("  FAIL gru trial 1: dense_b[0] analytic ")
        assert " numeric " in lines[1] and " relative error " in lines[1]
        assert lines[1].endswith(" at epsilon 0.0001)") and lines[2].endswith(" at epsilon 0.0001)")

    def test_gradcheck_failure_shows_the_numeric_value_at_a_second_epsilon(self, capsys):
        # the default seed's one failing element: both steps agree with the analytic value to a few parts in 1e4,
        # and the relative error passes the threshold only because both sit below its 1e-8 floor
        assert main(["gradcheck", "--trials", "5"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "  FAIL bilstm trial 1: layers[1].bwd.u[9, 7] analytic 4.264e-09 numeric 4.269e-09"
            " relative error 5.012e-04 (numeric 4.265e-09 at epsilon 0.0001)"
        )

    @pytest.mark.parametrize("epsilon, second", [(1e-5, 1e-4), (1e-4, 1e-3), (1e-7, 1e-6), (2e-4, 2e-5), (1e-3, 1e-4)])
    def test_gradcheck_second_epsilon_stays_within_the_epsilon_rule(self, epsilon, second):
        assert network.recheck_epsilon(epsilon) == pytest.approx(second, rel=1e-12)
        assert network.EPSILON_RULE[1](network.recheck_epsilon(epsilon))

    def test_seed_override_changes_runs(self, tmp_path):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "lookback = 10\nhidden_units = 4\nepochs = 1\narchitectures = lstm\n"
            f"[asset.TST]\ncsv = {csv_path}\n"
        )
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "s1"), "--seed", "1"])
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "s2"), "--seed", "2"])
        a = (tmp_path / "s1" / "TST_lstm" / "checkpoint.json").read_bytes()
        b = (tmp_path / "s2" / "TST_lstm" / "checkpoint.json").read_bytes()
        assert a != b


class TestSingleRunReproduction:
    def test_train_subcommand_reproduces_experiment_run(self, tmp_path):
        # a lone (asset, arch) rerun must retrace the full experiment's
        # trajectory: per-run seeds depend only on (master seed, asset, kind)
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "lookback = 10\nhidden_units = 4\nepochs = 2\narchitectures = lstm, gru\n"
            f"seed = 31\nout_dir = {tmp_path / 'full'}\n[asset.TST]\ncsv = {csv_path}\n"
        )
        assert main(["run", "--config", str(config_path)]) == 0
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(config_path),
                    "--asset",
                    "TST",
                    "--arch",
                    "gru",
                    "--out",
                    str(tmp_path / "solo"),
                ]
            )
            == 0
        )
        for name in ("checkpoint.json", "train_report.json", "eval_report.json", "predictions.csv"):
            full = (tmp_path / "full" / "TST_gru" / name).read_bytes()
            solo = (tmp_path / "solo" / "TST_gru" / name).read_bytes()
            assert full == solo, name

    def test_a_run_rebuilt_from_its_train_report_alone_writes_the_same_checkpoint(self, tmp_path):
        """The ``config`` block of ``train_report.json`` is everything the run was built from."""
        csv_path = tmp_path / "btc385.csv"
        csv_path.write_text("".join(BTC_FIXTURE.read_text().splitlines(keepends=True)[:386]))
        config_path = tmp_path / "quick.cfg"
        config_path.write_text(
            "lookback = 20\nhidden_units = 8\nlayers = 2\nbatch_size = 8\nepochs = 2\n"
            f"architectures = lstm, gru, bilstm\n[asset.BTC]\ncsv = {csv_path}\n"
        )
        assert main(["run", "--config", str(config_path), "--seed", "5", "--out", str(tmp_path / "out")]) == 0
        for kind in ("lstm", "gru", "bilstm"):
            run_dir = tmp_path / "out" / f"BTC_{kind}"
            echo = json.loads((run_dir / "train_report.json").read_text())["config"]
            asset = AssetSpec(echo["asset"], csv_path)
            data = {key: echo[key] for key in ("lookback", "train_fraction", "price_column")}
            prepared = prepare_asset(ExperimentConfig(assets=(asset,), **data), asset)
            arch = ArchSpec(echo["cell_kind"], layers=echo["layers"], hidden_units=echo["hidden_units"])
            names = ("batch_size", "epochs", "learning_rate", "shuffle_seed", "validation_fraction")
            tconfig = TrainConfig(**{name: echo[name] for name in names})
            model, _ = train(init_params(arch, echo["init_seed"]), prepared.train_windows, tconfig)
            network.save_checkpoint(model, tmp_path / f"{kind}.json")
            assert (tmp_path / f"{kind}.json").read_bytes() == (run_dir / "checkpoint.json").read_bytes(), kind


class TestShippedConfigs:
    def test_paper_config_parses_with_protocol_defaults(self):
        from cryptoforecast.experiment import load_config

        config = load_config(REPO / "configs" / "paper.cfg")
        assert [a.symbol for a in config.assets] == ["BTC", "ETH", "LTC"]
        assert all(a.csv_path.exists() for a in config.assets)
        assert config.lookback == 60
        assert config.epochs == 100
        assert config.hidden_units == 100
        assert config.batch_size == 32

    def test_quick_config_parses(self):
        from cryptoforecast.experiment import load_config

        config = load_config(REPO / "configs" / "quick.cfg")
        assert config.epochs == 2
        assert config.assets[0].csv_path.exists()


class TestRunSingleOnRealFixture:
    def test_huge_learning_rate_failure_names_epoch_batch_and_array(self, tmp_path):
        from cryptoforecast.errors import PoisonedUpdateError
        from cryptoforecast.experiment import load_config

        config = load_config(diverging_btc_config(tmp_path))
        with pytest.raises(PoisonedUpdateError) as exc_info:
            run_single(config, config.assets[0], "lstm")
        exc = exc_info.value
        assert (exc.epoch, exc.batch, exc.array) == (1, 2, "layers[0].w")
        assert str(exc) == "non-finite gradient in layers[0].w at epoch 1, batch 2; aborting update"
        assert exc.report.epochs_log() == []
        assert not (tmp_path / "out").exists()  # no run_dir, no artifacts

    def test_btc_quick_run_shapes(self):
        config = ExperimentConfig(
            assets=(AssetSpec("BTC", BTC_FIXTURE),),
            architectures=("lstm",),
            lookback=20,
            hidden_units=4,
            epochs=1,
            master_seed=3,
            out_dir=Path("unused"),
        )
        result = run_single(config, config.assets[0], "lstm")
        assert len(result.eval_report.pairs) == 366
        assert result.eval_report.pairs[0][0] == date(2023, 1, 1)
        assert result.eval_report.pairs[-1][0] == date(2024, 1, 1)


class TestDivergedModel:
    """A model that diverged in its last update is a failure, not a scored result."""

    def test_train_fails_and_keeps_the_model(self, tmp_path, capsys):
        config_path = one_batch_diverging_config(tmp_path)
        assert main(["train", "--config", str(config_path), "--asset", "BTC", "--arch", "lstm"]) == 2
        assert "error: normalized mse is not finite" in capsys.readouterr().err
        run_dir = tmp_path / "out" / "BTC_lstm"
        assert sorted(p.name for p in run_dir.iterdir()) == ["checkpoint.json", "train_report.json"]
        for path in run_dir.iterdir():
            strict_json(path)
        network.load_checkpoint(run_dir / "checkpoint.json")

    def test_run_records_a_failure_and_ranks_nothing(self, tmp_path, capsys):
        config_path = one_batch_diverging_config(tmp_path)
        assert main(["run", "--config", str(config_path)]) == 1
        assert "FAILED BTC/lstm: normalized mse is not finite" in capsys.readouterr().err
        doc = strict_json(tmp_path / "out" / "comparison.json")
        assert doc["rows"] == []
        assert doc["failures"] == [{"asset": "BTC", "cell_kind": "lstm", "error": "normalized mse is not finite"}]
        for path in (tmp_path / "out").rglob("*.json"):
            strict_json(path)

    def test_evaluate_rejects_the_diverged_checkpoint(self, tmp_path, capsys):
        config_path = one_batch_diverging_config(tmp_path)
        main(["train", "--config", str(config_path), "--asset", "BTC", "--arch", "lstm"])
        capsys.readouterr()
        checkpoint = tmp_path / "out" / "BTC_lstm" / "checkpoint.json"
        argv = ["evaluate", "--config", str(config_path), "--asset", "BTC", "--checkpoint", str(checkpoint)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: normalized mse is not finite" in captured.err

    def test_validation_loss_named(self, tmp_path):
        from cryptoforecast.errors import DivergenceError
        from cryptoforecast.experiment import load_config

        config = load_config(one_batch_diverging_config(tmp_path, validation_fraction=0.2))
        with pytest.raises(DivergenceError) as exc_info:
            run_single(config, config.assets[0], "lstm", run_dir=tmp_path / "run")
        exc = exc_info.value
        assert (exc.epoch, exc.loss) == (1, "validation")
        assert str(exc) == "non-finite validation loss at epoch 1"
        report = strict_json(tmp_path / "run" / "train_report.json")
        assert report["error"] == "non-finite validation loss at epoch 1"
        assert report["epochs"] == []

    def test_cli_train_prints_no_numpy_warnings(self, tmp_path):
        # a child process prints numpy warnings as a user sees them; this session's filter would raise them
        config_path = one_batch_diverging_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "cryptoforecast.cli", "train", "--config", str(config_path)]
        argv += ["--asset", "BTC", "--arch", "lstm"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == "error: normalized mse is not finite"


def test_cli_bits_do_not_depend_on_the_blas_thread_variables(tmp_path):
    """Unset thread variables get the package's own one-thread pin, so a run matches one pinned by hand.

    Two OpenBLAS threads round this shape's training products otherwise: on a
    machine with more than one CPU its checkpoint differs from a pinned one.
    """
    lines = (REPO / "fixtures" / "btc_usd.csv").read_text().splitlines(keepends=True)
    (tmp_path / "btc.csv").write_text("".join(lines[:201]))
    (tmp_path / "tiny.cfg").write_text(
        "lookback = 60\nhidden_units = 16\nlayers = 2\nbatch_size = 32\nepochs = 1\narchitectures = lstm\n"
        "[asset.BTC]\ncsv = btc.csv\n"
    )
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in thread_vars}
    unset["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    trees = {}
    for label, env in (("unset", unset), ("pinned", {**unset, **dict.fromkeys(thread_vars, "1")})):
        argv = [sys.executable, "-m", "cryptoforecast.cli", "train", "--config", str(tmp_path / "tiny.cfg")]
        argv += ["--asset", "BTC", "--arch", "lstm", "--out", str(tmp_path / label)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trees[label] = {p.relative_to(tmp_path / label): p.read_bytes() for p in (tmp_path / label).rglob("*.*")}
    assert sorted(map(str, trees["pinned"])) == [f"BTC_lstm/{name}" for name in
                                                 ("checkpoint.json", "eval_report.json", "predictions.csv",
                                                  "train_report.json")]
    assert trees["unset"] == trees["pinned"]
