"""Config parsing, experiment orchestration, and the CLI surface."""

import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from cryptoforecast import ConfigError, network, validate_config
from cryptoforecast.cli import main
from cryptoforecast.network import ArchSpec, init_params, model_to_dict
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
        assert [a.symbol for a in config.assets] == ["BTC"]

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

    def test_comments_and_blanks_ignored(self):
        text = "\n# full line comment\n; alt comment\nepochs = 5\n[asset.X]\ncsv = x.csv\n"
        assert validate_config(text).epochs == 5


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
        assert len(prepared.test_windows) == len(prepared.test_dates)
        # first test window is the tail of the training segment
        expected_first = (
            prepared.train_series[-config.lookback :] - prepared.scaler.min_value
        ) / prepared.scaler.span
        np.testing.assert_allclose(prepared.test_windows.inputs[0], expected_first, atol=1e-15)
        # its target is the first test value
        first_target = (
            prepared.test_series[0] - prepared.scaler.min_value
        ) / prepared.scaler.span
        assert prepared.test_windows.targets[0] == first_target

    def test_scaler_fitted_on_training_segment_only(self, tmp_path):
        config = tiny_config(tmp_path)
        prepared = prepare_asset(config, config.assets[0])
        assert prepared.scaler.min_value == prepared.train_series.min()
        assert prepared.scaler.max_value == prepared.train_series.max()


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

    def test_failed_training_leaves_train_report(self, tmp_path, monkeypatch):
        from cryptoforecast import training

        config = tiny_config(tmp_path, epochs=3, architectures=("lstm", "gru"))
        real_step = training.adam_step

        def poison_second_epoch(model, grads, state, tconfig):
            if model.arch.cell_kind == "lstm" and state.step == batches_per_epoch:
                grads.vector[-3] = np.inf  # in dense_w
            return real_step(model, grads, state, tconfig)

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

    def test_prepare_prints_report(self, tmp_path, capsys):
        csv_path = tiny_csv(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"lookback = 10\n[asset.TST]\ncsv = {csv_path}\n")
        assert main(["prepare", "--config", str(config_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        asset = doc["assets"][0]
        assert asset["symbol"] == "TST"
        assert asset["train"]["rows"] + asset["test"]["rows"] == asset["rows"]

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

    def test_gradcheck_failure_names_the_element(self, capsys, monkeypatch):
        real_backward = network.backward

        def corrupted(model_, tape_, d_pred):
            grads = real_backward(model_, tape_, d_pred)
            grads.dense_b[0] *= 2.0
            return grads

        monkeypatch.setattr(network, "backward", corrupted)
        argv = ["gradcheck", "--trials", "2", "--cell", "gru", "--max-hidden", "2", "--max-window", "3"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("gru: worst relative error") and lines[0].endswith("[FAIL]")
        assert lines[1].startswith("  FAIL gru trial 0: dense_b[0] analytic ")
        assert lines[2].startswith("  FAIL gru trial 1: dense_b[0] analytic ")
        assert " numeric " in lines[1] and " relative error " in lines[1]

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
        assert result.eval_report.n == 366
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
