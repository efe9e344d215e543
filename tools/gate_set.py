#!/usr/bin/env python3
"""Write the bit-identity gate set of one checkout into one output tree.

Usage::

    python tools/gate_set.py CHECKOUT OUT

Runs CHECKOUT's ``src/`` (``python -m cryptoforecast.cli``, BLAS pinned to
one thread but for one step) on the gate set and writes everything under
OUT, which must not exist yet:

* ``inputs/``: the gate configs and the fixtures they read, the first
  385 data rows of each (``inputs/full/``: whole fixtures;
  ``inputs/rows200/``: the first 200 data rows);
* ``quick/``: ``configs/quick.cfg``;
* ``all_quick/``, ``all_paper/``, ``all_quick3/``, ``all_quick_b7/``,
  ``all_quick_h53/``: every architecture on the three 385-row fixtures,
  2 epochs, at quick shapes (lookback 20, 2x8, batch 8), paper shapes
  (lookback 60, 2x100, batch 32), quick shapes with 3 layers, quick shapes
  with batch 7 (a short last batch of 1), and quick shapes 53 units wide
  (a width where a product's rounding can depend on its row count, which
  widths 8 and 100 do not show);
* ``evaluate/<ASSET>_<arch>/``: ``evaluate`` of each of the nine
  ``all_paper`` checkpoints on the whole fixture of its asset;
* ``evaluate_h53/BTC_<arch>/``: ``evaluate`` of the three BTC
  ``all_quick_h53`` checkpoints on the whole BTC fixture (366 windows,
  scored in chunks of 128, 128 and 110);
* ``prepare/``: ``prepare`` of the 385-row paper-shape config with
  ``--out``;
* ``train/BTC_gru/``: ``train --asset BTC --arch gru`` of the 385-row
  quick-shape config with ``--out``;
* ``train_unpinned/BTC_lstm/``: ``train --asset BTC --arch lstm``, one
  epoch on the 200-row fixtures at lookback 60, 2x16, batch 32, run with
  the thread variables removed from its environment: the package's own
  pin must give the bits of a pinned run (two BLAS threads round this
  shape's products otherwise);
* ``stdout/<step>.txt``: what each step above printed, and the reports
  that ``prepare`` of that config and ``evaluate`` of the ``all_paper``
  BTC Bi-LSTM checkpoint print without ``--out`` (steps
  ``prepare_no_out`` and ``evaluate_BTC_bilstm_no_out``);
* ``stdout/help*.txt``: the ``--help`` page of the program (``help``)
  and of each command (``help_<command>``), at ``COLUMNS=80``;
* ``gradcheck/``: ``gradcheck --trials 5`` stdout and exit code.

Two checkouts' trees are then compared in one call::

    python tools/compare_artifacts.py OUT_PARENT OUT_CHANGE

Exit status is 0 when every step but ``gradcheck`` exited 0, 1 when
one did not (its stderr is printed), 2 on bad arguments.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ASSETS = (("BTC", "btc_usd.csv"), ("ETH", "eth_usd.csv"), ("LTC", "ltc_usd.csv"))
ARCHS = ("lstm", "gru", "bilstm")
ROWS = 385  # fixture data rows kept for the training runs
QUICK = {"lookback": 20, "hidden_units": 8, "layers": 2, "batch_size": 8}
PAPER = {"lookback": 60, "hidden_units": 100, "layers": 2, "batch_size": 32}
SHAPES = {
    "all_quick": QUICK,
    "all_paper": PAPER,
    "all_quick3": {**QUICK, "layers": 3},
    "all_quick_b7": {**QUICK, "batch_size": 7},
    "all_quick_h53": {**QUICK, "hidden_units": 53},
}
UNPINNED = {"lookback": 60, "hidden_units": 16, "layers": 2, "batch_size": 32}  # the smallest shape seen to differ
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # set to 1 but for unpinned_steps
FULL = "full"  # inputs/ subdirectory of the whole fixtures
CUTS = {FULL: None, "rows200": 200, ".": ROWS}  # inputs/ subdirectory: fixture data rows it keeps (None: all)
COMMANDS = ("prepare", "train", "evaluate", "run", "gradcheck")
EVALUATED = {"all_paper": ("evaluate", ASSETS), "all_quick_h53": ("evaluate_h53", ASSETS[:1])}  # out dir, assets


def config_text(shape: dict, csv_dir: str = ".", epochs: int = 2) -> str:
    """An all-architecture config of ``shape`` over the fixtures in ``csv_dir`` (config-relative)."""
    lines = [f"{key} = {value}" for key, value in shape.items()]
    lines += [f"architectures = {', '.join(ARCHS)}", f"epochs = {epochs}", "seed = 1234"]
    for symbol, filename in ASSETS:
        lines += ["", f"[asset.{symbol}]", f"csv = {csv_dir}/{filename}"]
    return "\n".join(lines) + "\n"


def gate_configs() -> dict[str, str]:
    """Every config the gate set writes to ``inputs/``, by name."""
    configs = {name: config_text(shape) for name, shape in SHAPES.items()}
    configs.update({f"{name}_full": config_text(SHAPES[name], FULL) for name in EVALUATED})
    configs["unpinned"] = config_text(UNPINNED, "rows200", epochs=1)
    return configs


def write_inputs(checkout: Path, inputs: Path) -> None:
    for subdir, rows in CUTS.items():
        (inputs / subdir).mkdir(parents=True, exist_ok=True)
        for _, filename in ASSETS:
            lines = (checkout / "fixtures" / filename).read_text().splitlines(keepends=True)
            (inputs / subdir / filename).write_text("".join(lines if rows is None else lines[: rows + 1]))
    for name, text in gate_configs().items():
        (inputs / f"{name}.cfg").write_text(text)


def gate_steps(checkout: Path, inputs: Path) -> list[tuple[str, tuple]]:
    """Every ``(name, cli argv)`` step of the gate set but ``gradcheck``, run from OUT in this order."""
    paper, quick = str(inputs / "all_paper.cfg"), str(inputs / "all_quick.cfg")

    def evaluate(shape: str, symbol: str, arch: str, *out: str) -> tuple:
        """``evaluate`` of the ``shape`` run's checkpoint of (``symbol``, ``arch``) on the whole fixture."""
        return ("evaluate", "--config", str(inputs / f"{shape}_full.cfg"), "--asset", symbol,
                "--checkpoint", f"{shape}/{symbol}_{arch}/checkpoint.json", *out)

    steps = [("quick", ("run", "--config", str(checkout / "configs" / "quick.cfg"), "--out", "quick"))]
    steps += [(name, ("run", "--config", str(inputs / f"{name}.cfg"), "--out", name)) for name in SHAPES]
    steps += [
        (f"{out_dir}_{symbol}_{arch}", evaluate(shape, symbol, arch, "--out", f"{out_dir}/{symbol}_{arch}"))
        for shape, (out_dir, assets) in EVALUATED.items()
        for symbol, _ in assets
        for arch in ARCHS
    ]
    return steps + [
        ("evaluate_BTC_bilstm_no_out", evaluate("all_paper", "BTC", "bilstm")),
        ("prepare", ("prepare", "--config", paper, "--out", "prepare")),
        ("prepare_no_out", ("prepare", "--config", paper)),
        ("train", ("train", "--config", quick, "--asset", "BTC", "--arch", "gru", "--out", "train")),
    ]


def unpinned_steps(inputs: Path) -> list[tuple[str, tuple]]:
    """The ``(name, cli argv)`` steps run with the BLAS thread variables removed from their environment."""
    unpinned = str(inputs / "unpinned.cfg")
    return [("train_unpinned", ("train", "--config", unpinned, "--asset", "BTC", "--arch", "lstm",
                                "--out", "train_unpinned"))]


def help_steps() -> list[tuple[str, tuple]]:
    """The ``(name, cli argv)`` steps that print the program's ``--help`` page and each command's."""
    return [("help", ("--help",))] + [(f"help_{command}", (command, "--help")) for command in COMMANDS]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout, out = Path(args[0]).resolve(), Path(args[1]).resolve()
    if not (checkout / "src" / "cryptoforecast").is_dir():
        print(f"error: {checkout} has no src/cryptoforecast", file=sys.stderr)
        return 2
    if out.exists():
        print(f"error: {out} already exists", file=sys.stderr)
        return 2
    unpinned = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    unpinned.update(PYTHONPATH=str(checkout / "src"), COLUMNS="80")  # COLUMNS: the width help pages wrap to
    env = {**unpinned, **dict.fromkeys(THREAD_VARS, "1")}

    def cli(*argv: str, env: dict = env) -> subprocess.CompletedProcess:
        command = [sys.executable, "-m", "cryptoforecast.cli", *argv]
        return subprocess.run(command, cwd=out, env=env, capture_output=True, text=True)

    probe = [sys.executable, "-c", "import cryptoforecast; print(cryptoforecast.__file__)"]
    found = subprocess.run(probe, cwd=checkout, env=env, capture_output=True, text=True).stdout.strip()
    if not found.startswith(str(checkout / "src")):
        print(f"error: cryptoforecast imports from {found or 'nowhere'}, not {checkout / 'src'}", file=sys.stderr)
        return 2

    inputs = out / "inputs"
    write_inputs(checkout, inputs)
    (out / "stdout").mkdir()
    failed = 0
    steps = [(step, env) for step in gate_steps(checkout, inputs) + help_steps()]
    for (name, argv), step_env in steps + [(step, unpinned) for step in unpinned_steps(inputs)]:
        result = cli(*argv, env=step_env)
        (out / "stdout" / f"{name}.txt").write_text(result.stdout)
        print(f"{name}: exit {result.returncode}", flush=True)
        if result.returncode != 0:
            failed += 1
            print(result.stderr, file=sys.stderr)
    result = cli("gradcheck", "--trials", "5")
    (out / "gradcheck").mkdir()
    (out / "gradcheck" / "stdout.txt").write_text(result.stdout)
    (out / "gradcheck" / "exit_code.txt").write_text(f"{result.returncode}\n")
    print(f"gradcheck: exit {result.returncode}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
