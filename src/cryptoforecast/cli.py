"""Command line entry point.

Subcommands:
  prepare    parse, impute, and split every configured asset; print a report
  train      train a single (asset, architecture) run
  evaluate   score an existing checkpoint against an asset's test set
  run        full experiment: every (asset x architecture) pair
  gradcheck  compare analytic gradients against finite differences
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import experiment
from .errors import AT_LEAST_ONE, FINITE_POSITIVE, NON_NEGATIVE, CheckpointError, ForecastError, check
from .metrics import evaluate
from .network import (
    DEFAULT_EPSILON, EPSILON_RULE, ArchSpec, CELL_KINDS, grad_check_worst, init_params, load_checkpoint,
    recheck_epsilon,
)

log = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser, seed: bool = False):
    parser.add_argument("--config", required=True, help="experiment config path")
    if seed:  # only train and run draw seeds
        parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")


_GRADCHECK_FLAGS = (  # (flag, rule its value must meet or None, add_argument keywords), in help order
    ("--seed", NON_NEGATIVE, dict(type=int, default=0, help="seed of the drawn models and inputs")),
    ("--cell", None, dict(choices=CELL_KINDS, default=None, help="restrict to one cell kind")),
    ("--trials", AT_LEAST_ONE, dict(type=int, default=20, help="seeded trials per cell kind")),
    ("--max-hidden", (int, lambda v: v >= 2, ">= 2"), dict(type=int, default=8)),
    ("--max-window", (int, lambda v: v >= 3, ">= 3"), dict(type=int, default=10)),
    ("--epsilon", EPSILON_RULE, dict(type=float, default=DEFAULT_EPSILON)),
    ("--threshold", FINITE_POSITIVE, dict(type=float, default=1e-4)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptoforecast",
        description="Config-driven recurrent-network price forecasting experiments.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest + split report")
    p.set_defaults(handler=cmd_prepare)
    _add_common(p)

    p = sub.add_parser("train", help="train one (asset, architecture) run")
    p.set_defaults(handler=cmd_train)
    _add_common(p, seed=True)
    p.add_argument("--asset", required=True, help="asset symbol from the config")
    p.add_argument("--arch", required=True, choices=CELL_KINDS, help="cell kind")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on an asset's test set")
    p.set_defaults(handler=cmd_evaluate)
    _add_common(p)
    p.add_argument("--asset", required=True, help="asset symbol from the config")
    p.add_argument("--checkpoint", required=True, help="path of a checkpoint that train or run wrote")

    p = sub.add_parser("run", help="full experiment over every asset and architecture")
    p.set_defaults(handler=cmd_run)
    _add_common(p, seed=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.set_defaults(handler=cmd_gradcheck)
    for flag, _, options in _GRADCHECK_FLAGS:
        p.add_argument(flag, **options)
    return parser


def _find_asset(config: experiment.ExperimentConfig, symbol: str) -> experiment.AssetSpec:
    for asset in config.assets:
        if asset.symbol == symbol:
            return asset
    known = ", ".join(a.symbol for a in config.assets)
    raise ForecastError(f"asset {symbol!r} is not in the config (known: {known})")


def _print_report(payload: dict, out: str | None, write) -> int:
    """Print ``payload``'s report text or, with ``--out``, the path that ``write()`` wrote it to."""
    if out is None:
        print(experiment.report_text(payload), end="")
    else:
        print(write())
    return 0


def _load_config(args) -> experiment.ExperimentConfig:
    """The command's config; with ``--out``, whose report goes there, its directory is made first."""
    config = experiment.load_config(args.config, out_dir=args.out)
    if args.out is not None:
        experiment.make_out_dir(config.out_dir)
    return config


def cmd_prepare(args) -> int:
    config = _load_config(args)
    report = experiment.prepare_report(config)
    return _print_report(report, args.out, lambda: experiment.write_prepare_report(config.out_dir, report))


def cmd_train(args) -> int:
    config = experiment.load_config(args.config, seed=args.seed, out_dir=args.out)
    asset = _find_asset(config, args.asset)
    run_dir = experiment.make_out_dir(config.out_dir / experiment.run_dir_name(asset.symbol, args.arch))
    experiment.run_single(config, asset, args.arch, run_dir=run_dir)
    print(run_dir)
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    asset = _find_asset(config, args.asset)
    prepared = experiment.prepare_asset(config, asset)
    model = load_checkpoint(args.checkpoint)
    if model.arch.input_dim != 1:  # a price window holds one value per step
        raise CheckpointError(f"checkpoint model takes {model.arch.input_dim} inputs per step; a price window holds 1")
    report = evaluate(model, prepared.test_windows, prepared.scaler, prepared.test.dates)
    payload = experiment.eval_report_dict(report, asset.symbol, model.arch.cell_kind, prepared.scaler)
    return _print_report(payload, args.out, lambda: experiment.write_eval_artifacts(config.out_dir, payload, report))


def cmd_run(args) -> int:
    config = experiment.load_config(args.config, seed=args.seed, out_dir=args.out)
    result = experiment.run_experiment(config)
    print(result.out_dir)
    if result.failures:
        for asset, kind, error in result.failures:
            print(f"FAILED {asset}/{kind}: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_gradcheck(args) -> int:
    try:
        for flag, rule, _ in _GRADCHECK_FLAGS:
            if rule is not None:
                check(flag, getattr(args, flag[2:].replace("-", "_")), rule)
    except ValueError as exc:
        raise ForecastError(str(exc)) from None
    kinds = (args.cell,) if args.cell else CELL_KINDS
    rng = np.random.default_rng(args.seed)
    failed = False
    for kind in kinds:
        worst = 0.0
        failures = []
        for trial in range(args.trials):
            hidden = int(rng.integers(2, args.max_hidden + 1))
            window_len = int(rng.integers(3, args.max_window + 1))
            arch = ArchSpec(kind, layers=2, hidden_units=hidden)
            model = init_params(arch, seed=int(rng.integers(0, 2**31)))
            window = rng.uniform(0.0, 1.0, size=window_len)
            target = float(rng.uniform(0.0, 1.0))
            result = grad_check_worst(model, window, target, epsilon=args.epsilon)
            worst = max(worst, result.rel_error)
            if result.rel_error > args.threshold:
                failures.append((trial, result))
        status = "FAIL" if failures else "ok"
        print(f"{kind}: worst relative error {worst:.3e} over {args.trials} trials [{status}]")
        for trial, result in failures:
            print(
                f"  FAIL {kind} trial {trial}: {result.location()} analytic {result.analytic:.3e}"
                f" numeric {result.numeric:.3e} relative error {result.rel_error:.3e}"
                f" (numeric {result.recheck:.3e} at epsilon {recheck_epsilon(args.epsilon):.3g})"
            )
        failed = failed or bool(failures)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (ForecastError, MemoryError) as exc:  # MemoryError: a model too big to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
