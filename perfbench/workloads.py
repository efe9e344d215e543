"""The three workloads: what one pass sends to the program and how it is checked.

Every workload is a closed loop with one caller: a pass issues its
requests one at a time through ``cli.main``, in process, and the next
pass starts only after the previous one and its output checks are done.
Every pass of a run uses the same master seed, so every pass does the
same work and must write byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import reference_predict

ASSETS = (("BTC", "btc_usd.csv"), ("ETH", "eth_usd.csv"), ("LTC", "ltc_usd.csv"))
ARCHS = ("lstm", "gru", "bilstm")
# Normalized-scale tolerance between the scalar reference and emitted predictions.
REFERENCE_TOL = 1e-9
REFERENCE_SAMPLES = 5

_KERNELS = {
    "lstm": ("lstm_forward", "lstm_backward"),
    "bilstm": ("lstm_forward", "lstm_backward"),
    "gru": ("gru_forward", "gru_backward"),
}
FORWARD_KERNELS = tuple(
    f"cells.{_KERNELS[a][0]}.{a}.l{k}" for a in ARCHS for k in (1, 2)
)
BACKWARD_KERNELS = tuple(
    f"cells.{_KERNELS[a][1]}.{a}.l{k}" for a in ARCHS for k in (1, 2)
)
_SHARED = (
    "network.forward_batch.notape",
    "metrics.evaluate",
    "metrics.predict_batch",
    "ingest.parse_ohlcv",
    "ingest.impute_locf",
    "preprocess.make_windows",
    "experiment.prepare_asset",
    "cli.main",
)
_TRAINING = (
    "network.forward_batch.tape",
    "network.backward_batch",
    "network.save_checkpoint",
    "training.adam_step",
    "training.train",
    "experiment.write_run_artifacts",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" trains every pair; "evaluate" re-scores checkpoints
    lookback: int
    hidden_units: int
    batch_size: int
    epochs: int
    rows: int | None  # fixture rows kept per asset; None keeps the whole file
    # calibration kernel (see calibrate.py): batch, JSON floats per unit, units per block
    calibration: tuple

    @property
    def required(self) -> tuple:
        """Layer spans the traced run must record at least once."""
        if self.command == "run":
            return FORWARD_KERNELS + BACKWARD_KERNELS + _SHARED + _TRAINING
        return FORWARD_KERNELS + _SHARED + ("network.load_checkpoint",)

    @property
    def forbidden(self) -> tuple:
        """Layer spans the workload must never record."""
        if self.command == "run":
            return ("network.load_checkpoint",)
        return BACKWARD_KERNELS + _TRAINING


WORKLOADS = {
    # paper.cfg shapes; the first 385 rows of each fixture give 224 gradient
    # windows (7 batches of 32) per pair, so one pass of all nine pairs fits
    # a run several times over.  Projections scale back to the full fixture.
    "train_paper": Workload("train_paper", "run", 60, 100, 32, 1, 385, (32, 1500, 20)),
    # quick.cfg shapes at batch 8 on the full fixtures: per-call overhead
    # (Adam, network plumbing, many small kernel calls) dominates.
    "train_small": Workload("train_small", "run", 20, 8, 8, 1, None, (8, 0, 100)),
    # paper.cfg shapes, untrained checkpoints from init_params(seed):
    # tape-free forward at chunk 256 plus JSON checkpoint reads.
    "score_ckpt": Workload("score_ckpt", "evaluate", 60, 100, 32, 1, None, (256, 12000, 2)),
}


def config_text(workload: Workload, csv_paths: dict) -> str:
    lines = [
        "price_column = Close",
        f"lookback = {workload.lookback}",
        "train_fraction = 0.8",
        f"architectures = {', '.join(ARCHS)}",
        f"hidden_units = {workload.hidden_units}",
        "layers = 2",
        f"batch_size = {workload.batch_size}",
        f"epochs = {workload.epochs}",
        "learning_rate = 0.001",
        "validation_fraction = 0.1",
        "out_dir = runs/bench",
    ]
    for symbol, _ in ASSETS:
        lines += ["", f"[asset.{symbol}]", f"csv = {csv_paths[symbol]}"]
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, root: Path, workdir: Path) -> Path:
    """Write the workload's config (and truncated fixtures) under ``workdir``."""
    csv_paths = {}
    for symbol, filename in ASSETS:
        source = root / "fixtures" / filename
        if workload.rows is None:
            csv_paths[symbol] = source
        else:
            lines = source.read_text().splitlines(keepends=True)
            target = workdir / filename
            target.write_text("".join(lines[: workload.rows + 1]))
            csv_paths[symbol] = target
    config = workdir / "bench.cfg"
    config.write_text(config_text(workload, csv_paths))
    return config


def make_checkpoints(experiment, network, config, out_dir: Path) -> dict:
    """Untrained paper-shape checkpoints, one per pair, weights from the master seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for asset in config.assets:
        for kind in config.architectures:
            seed = experiment.derive_seed(config.master_seed, asset.symbol, kind, "init")
            path = out_dir / f"{asset.symbol}_{kind}.json"
            network.save_checkpoint(network.init_params(config.arch_for(kind), seed=seed), path)
            paths[(asset.symbol, kind)] = path
    return paths


def _digests(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class Runner:
    """Issues one workload's passes and checks every output they write."""

    def __init__(self, workload, modules, tracer, calibrator, config_path, config, seed, workdir, checkpoints):
        self.workload = workload
        self.calibrator = calibrator
        self.cli = modules["cli"]
        self.experiment = modules["experiment"]
        self.tracer = tracer
        self.config_path = config_path
        self.seed = seed
        self.workdir = workdir
        self.checkpoints = checkpoints
        self.attempted = 0
        self.failed = 0
        self.val_losses: list = []
        self._rng = np.random.default_rng(seed)
        self._first = {}
        self._prepared = {a.symbol: self.experiment.prepare_asset(config, a) for a in config.assets}

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        return ok

    def _request(self, argv) -> bool:
        """One closed-loop request; True when it returned exit code 0."""
        try:
            with self.tracer.span("cli.main"):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed request, not a crashed benchmark
            traceback.print_exc()
            code = None
        self.calibrator.block()
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"REQUEST FAILED ({code}): {' '.join(argv)}", file=sys.stderr)
        return code == 0

    def run_pass(self, index: int) -> bool:
        """One pass of requests; False when a training request failed."""
        if self.workload.command == "evaluate":
            self._score_pass()
            return True
        out = self.workdir / f"pass{index}"
        return self._request(
            ["run", "--config", str(self.config_path), "--seed", str(self.seed), "--out", str(out)]
        )

    def check_pass(self, index: int, ok: bool) -> None:
        """Check a training pass's artifacts; evaluate passes check as they go."""
        if self.workload.command == "evaluate":
            return
        out = self.workdir / f"pass{index}"
        if ok:
            finite = True
            for symbol, _ in ASSETS:
                for kind in ARCHS:
                    epochs = json.loads((out / f"{symbol}_{kind}" / "train_report.json").read_text())["epochs"]
                    losses = [e["train_loss"] for e in epochs] + [e["val_loss"] for e in epochs]
                    finite &= all(isinstance(v, float) and math.isfinite(v) for v in losses)
                    if index == 0:
                        self.val_losses.append(epochs[-1]["val_loss"])
                        self._check_reference(out / f"{symbol}_{kind}" / "checkpoint.json",
                                              out / f"{symbol}_{kind}" / "eval_report.json", symbol)
            self.check(finite, f"pass {index}: non-finite loss in a train report")
            digests = _digests(out)
            if index == 0:
                self._first["artifacts"] = digests
            else:
                self.check(digests == self._first["artifacts"],
                           f"pass {index}: artifacts differ from pass 0 under the same seed")
        shutil.rmtree(out, ignore_errors=True)

    def _score_pass(self) -> None:
        out = self.workdir / "eval"
        for (symbol, kind), checkpoint in self.checkpoints.items():
            ok = self._request(
                ["evaluate", "--config", str(self.config_path), "--asset", symbol,
                 "--checkpoint", str(checkpoint), "--out", str(out)]
            )
            if not ok:
                continue
            report = out / "eval_report.json"
            # checks run between requests, outside the request's timed call
            data = report.read_bytes()
            first = self._first.get((symbol, kind))
            if first is None:
                self._first[(symbol, kind)] = data
                self._check_reference(checkpoint, report, symbol)
            else:
                self.check(data == first, f"evaluate {symbol}/{kind}: eval_report.json changed between calls")

    def _check_reference(self, checkpoint: Path, report_path: Path, symbol: str) -> None:
        doc = json.loads(checkpoint.read_text())
        report = json.loads(report_path.read_text())
        windows = self._prepared[symbol].test_windows.inputs
        lo, hi = report["scaler"]["min"], report["scaler"]["max"]
        worst = 0.0
        picks = self._rng.choice(len(windows), size=min(REFERENCE_SAMPLES, len(windows)), replace=False)
        for k in sorted(picks):
            expected = reference_predict(doc, windows[k])
            emitted = (report["pairs"][k]["predicted"] - lo) / (hi - lo)
            worst = max(worst, abs(expected - emitted))
        self.check(worst <= REFERENCE_TOL,
                   f"{checkpoint}: predictions differ from the scalar reference by {worst:.3e}")
