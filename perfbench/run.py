"""cryptoforecast benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``train_paper``, ``train_small`` or ``score_ckpt``
(see ``workloads.py``).  The seed is passed to the program only as its
master seed, so it drives initial weights, shuffle order and checkpoint
weights; the bundled fixtures are the input data.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead.  Human-readable lines go first; the last
line of standard output is one JSON object.
"""

import os

# Single-threaded BLAS must be pinned before numpy loads its backend.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Full criterion-7 protocol: paper.cfg trains every pair for 100 epochs.
PROTOCOL_EPOCHS = 100
# Per-epoch seconds at paper shapes from the ROADMAP baseline table.
ROADMAP_EPOCH_S = {"lstm": 2.8, "gru": 2.2, "bilstm": 6.6}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cryptoforecast" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"error: no cryptoforecast sources and fixtures under {ROOT}")
    sys.path.insert(0, str(SRC))
    import cryptoforecast
    from cryptoforecast import cli, experiment, metrics, network, training

    if Path(cryptoforecast.__file__).resolve().parent != SRC / "cryptoforecast":
        raise SystemExit(f"error: imported cryptoforecast from {cryptoforecast.__file__}")
    return {"cli": cli, "experiment": experiment, "metrics": metrics, "network": network,
            "training": training}


def setup_probe(workload, modules, seed, probe_dir: Path) -> int:
    """One set-up as a fresh process sees it: imports, config load, checkpoints."""
    experiment = modules["experiment"]
    config = experiment.load_config(probe_dir.parent / "bench.cfg", seed=seed)
    if workload.command == "evaluate":
        from workloads import make_checkpoints

        make_checkpoints(experiment, modules["network"], config, probe_dir)
    return 0


def time_setups(args, workdir: Path) -> list:
    """Wall time of SETUP_REPEATS fresh set-up processes, each waited for."""
    times = []
    for k in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup{k}"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        started = time.perf_counter()
        # no timeout: waiting with one polls in 50 ms steps and would round the time
        subprocess.run(command, check=True, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return times


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": openblas_config(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
    }


def openblas_config():
    """OpenBLAS build string with the core type it dispatched to, when it can be read."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(str(lib_path))
            for prefix in ("scipy_openblas", "openblas"):
                config = getattr(lib, f"{prefix}_get_config64_", None) or getattr(lib, f"{prefix}_get_config", None)
                core = getattr(lib, f"{prefix}_get_corename64_", None) or getattr(lib, f"{prefix}_get_corename", None)
                if config and core:
                    config.restype = core.restype = ctypes.c_char_p
                    return {"config": config().decode(), "core": core().decode()}
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def full_size_factors(experiment, config, workload) -> dict:
    """How much larger a pass would be on the whole fixtures, for projections."""
    if workload.rows is None:
        return {"grad_factor": 1.0, "test_factor": 1.0}
    from workloads import ASSETS

    whole = tuple(experiment.AssetSpec(symbol, ROOT / "fixtures" / name) for symbol, name in ASSETS)
    sizes = {}
    for label, cfg in (("bench", config), ("full", dataclasses.replace(config, assets=whole))):
        grad = test = 0
        for asset in cfg.assets:
            prepared = experiment.prepare_asset(cfg, asset)
            n = len(prepared.train_windows)
            grad += n - int(n * cfg.validation_fraction)
            test += len(prepared.test_windows)
        sizes[label] = (grad, test)
    return {
        "grad_factor": sizes["full"][0] / sizes["bench"][0],
        "test_factor": sizes["full"][1] / sizes["bench"][1],
    }


# Gated end-to-end metrics: each exists, and is never zero, on every workload.
# The others are printed for the workloads they apply to.
E2E_GATED = ("setup_s", "run_wall_cal", "peak_rss_mb")


def end_to_end(summary, passes, setup_times, runner, workload, full, cost_cal, unit_s) -> dict:
    """Every end-to-end figure that applies to this workload."""
    per_pass = summary.per_pass

    def ratio(name, p):
        return per_pass[(name, p, "windows")] / per_pass[(name, p)]

    out = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "run_wall_cal": metric(statistics.median(cost_cal[p] for p in passes), "cal"),
        "run_wall_s": metric(statistics.median(summary.request_s(p) for p in passes), "s"),
        "calibration_unit_ms": metric(1e3 * unit_s, "ms"),
        "score_windows_per_s": metric(statistics.median(ratio("metrics.evaluate", p) for p in passes), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    if workload.command == "run":
        out["train_windows_per_s"] = metric(statistics.median(ratio("training.train", p) for p in passes), "1/s")
        out["val_loss"] = metric(statistics.fmean(runner.val_losses), "mse")
        if workload.name == "train_paper":
            projected = []
            for p in passes:
                train_s = per_pass[("training.train", p)]
                eval_s = per_pass[("metrics.evaluate", p)]
                rest = summary.request_s(p) - train_s - eval_s
                full_train = train_s * full["grad_factor"] * PROTOCOL_EPOCHS / workload.epochs
                projected.append((full_train + eval_s * full["test_factor"] + rest) / 60)
            out["protocol_projected_min"] = metric(statistics.median(projected), "min")
    else:
        out["evaluate_ms.p50"] = metric(summary.percentile_ms("cli.main", 50), "ms")
        out["evaluate_ms.p90"] = metric(summary.percentile_ms("cli.main", 90), "ms")
        out["evaluate_calls"] = metric(summary.calls("cli.main"), "count")
    out["failed_ratio"] = metric(runner.failed / runner.attempted, "ratio")
    return out


_SELF_TIMED = (
    "network.forward_batch.tape",
    "network.forward_batch.notape",
    "network.backward_batch",
    "training.train",
    "metrics.evaluate",
    "experiment.write_run_artifacts",
    "cli.main",
)
_TOTAL_TIMED = (
    "network.save_checkpoint",
    "network.load_checkpoint",
    "training.adam_step",
    "metrics.predict_batch",
    "ingest.parse_ohlcv",
    "ingest.impute_locf",
    "preprocess.make_windows",
    "experiment.prepare_asset",
)


def epoch_table(summary, n_passes, workload, full) -> dict:
    """Per-epoch seconds of one pair, by architecture, projected to the whole fixture."""
    from workloads import ARCHS, ASSETS

    table = {}
    pair_epochs = n_passes * len(ASSETS) * workload.epochs
    for arch in ARCHS if workload.command == "run" else ():
        def share(name, per):
            return summary.by_arch[(name, arch)] / per

        table[arch] = {
            "fwd": share("network.forward_batch.tape", pair_epochs) * full["grad_factor"],
            "bwd": share("network.backward_batch", pair_epochs) * full["grad_factor"],
            "adam": share("training.adam_step", pair_epochs) * full["grad_factor"],
            "eval": share("metrics.evaluate", n_passes * len(ASSETS)) * full["test_factor"],
        }
    return table


def per_layer(summary, n_passes, workload, full, overhead) -> dict:
    """Every per-layer figure, per traced pass; zero where the workload never calls the layer."""
    from workloads import ARCHS, BACKWARD_KERNELS, FORWARD_KERNELS

    out = {}
    for name in FORWARD_KERNELS + BACKWARD_KERNELS:
        out[f"{name}.s"] = metric(summary.total[name] / n_passes, "s")
        out[f"{name}.calls"] = metric(summary.calls(name) / n_passes, "count")
        out[f"{name}.p50_ms"] = metric(summary.percentile_ms(name, 50), "ms")
        out[f"{name}.p90_ms"] = metric(summary.percentile_ms(name, 90), "ms")
        out[f"{name}.gflop"] = metric(summary.attrs[(name, "gflop")] / n_passes, "GFLOP")
        if name in FORWARD_KERNELS:
            out[f"{name}.tape_mb"] = metric(summary.attrs[(name, "tape_mb")] / n_passes, "MB")
    kernel_calls = sum(summary.calls(n) for n in FORWARD_KERNELS + BACKWARD_KERNELS)
    out["cells.calls"] = metric(kernel_calls / n_passes, "count")
    for name in _SELF_TIMED:
        out[f"{name}.self_s"] = metric(summary.self_time[name] / n_passes, "s")
    for name in _TOTAL_TIMED:
        out[f"{name}.s"] = metric(summary.total[name] / n_passes, "s")
    for name in ("network.save_checkpoint", "network.load_checkpoint"):
        out[f"{name}.mb"] = metric(summary.attrs[(name, "bytes")] / 1e6 / n_passes, "MB")
    out["training.adam_step.calls"] = metric(summary.calls("training.adam_step") / n_passes, "count")
    out["training.grad_windows"] = metric(summary.attrs[("training.train", "windows")] / n_passes, "count")
    out["metrics.scored_windows"] = metric(summary.attrs[("metrics.evaluate", "windows")] / n_passes, "count")
    out["trace.overhead_s"] = metric(overhead, "s")
    table = epoch_table(summary, n_passes, workload, full)
    for arch in ARCHS:
        for phase in ("fwd", "bwd", "adam", "eval"):
            out[f"epoch.{arch}.{phase}_s"] = metric(table.get(arch, {}).get(phase, 0.0), "s")
    return out


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def print_epoch_table(metrics: dict) -> None:
    print("per-epoch seconds of one pair at the whole fixture (traced passes), vs ROADMAP:")
    print(f"  {'cell':<8}{'epoch':>8}{'fwd':>8}{'bwd':>8}{'adam':>8}{'eval':>8}{'ROADMAP':>9}{'ratio':>7}")
    for arch, expected in ROADMAP_EPOCH_S.items():
        fwd, bwd, adam, ev = (metrics[f"epoch.{arch}.{p}_s"]["value"] for p in ("fwd", "bwd", "adam", "eval"))
        epoch = fwd + bwd + adam
        print(f"  {arch:<8}{epoch:8.2f}{fwd:8.2f}{bwd:8.2f}{adam:8.3f}{ev:8.3f}{expected:9.1f}{epoch / expected:7.2f}")


def measure(args, workload, modules, workdir: Path) -> int:
    from calibrate import Calibrator
    from tracer import E2E_BINDINGS, LAYER_BINDINGS, Summary, Tracer, binding_problems, kernel_count_problems
    from workloads import ASSETS, ARCHS, Runner, write_inputs

    config_path = write_inputs(workload, ROOT, workdir)
    setup_times = time_setups(args, workdir)
    experiment = modules["experiment"]
    config = experiment.load_config(config_path, seed=args.seed)
    checkpoints = {}
    if workload.command == "evaluate":
        made = workdir / f"setup{SETUP_REPEATS - 1}"
        checkpoints = {(s, k): made / f"{s}_{k}.json" for s, _ in ASSETS for k in ARCHS}
    full = full_size_factors(experiment, config, workload)
    env = environment(args)
    calibrator = Calibrator(workload.hidden_units, *workload.calibration)
    calibrator.block()
    tracer = Tracer(modules, calibrator.block, ("training.train",))
    runner = Runner(workload, modules, tracer, calibrator, config_path, config, args.seed, workdir, checkpoints)

    deadline = time.perf_counter() + args.seconds
    walls, traced, untraced = [], [], []
    with contextlib.redirect_stdout(sys.stderr):
        while True:
            index = len(walls)
            trace_this = args.trace == 1 and index % 2 == 1
            tracer.pass_id = index
            tracer.install(E2E_BINDINGS + (LAYER_BINDINGS if trace_this else ()))
            started = time.perf_counter()
            try:
                ok = runner.run_pass(index)
            finally:
                tracer.uninstall()
            walls.append(time.perf_counter() - started)
            runner.check_pass(index, ok)
            (traced if trace_this else untraced).append(index)
            if args.trace == 1 and not traced:
                continue
            if time.perf_counter() + statistics.median(walls) > deadline:
                break

    e2e_summary = Summary(tracer.spans, untraced)
    required = ("cli.main", "metrics.evaluate") + (("training.train",) if workload.command == "run" else ())
    forbidden = () if workload.command == "run" else ("training.train",)
    problems = binding_problems(e2e_summary, required, forbidden)
    if args.trace == 1:
        summary = Summary(tracer.spans, traced)
        problems += binding_problems(summary, workload.required, workload.forbidden)
        problems += kernel_count_problems(summary, config.layers)
        if workload.command == "run":
            taped = summary.attrs[("network.forward_batch.tape", "windows")]
            counted = summary.attrs[("training.train", "windows")]
            if taped != counted:
                problems.append(f"tape forwards saw {taped} windows, training.train expects {counted}")
    for problem in problems:
        print(f"BINDING: {problem}", file=sys.stderr)
    runner.check(not problems, "binding self-check")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: {len(walls)} passes ({len(traced)} traced), "
          f"{runner.attempted} operations attempted, {runner.failed} failed")
    every = Summary(tracer.spans, range(len(walls)))
    # each pass's request time in calibration units, stretch by stretch
    cost_cal = [calibrator.in_units([(sp[3], sp[4]) for sp in tracer.spans if sp[0] == "cli.main" and sp[1] == p])
                for p in range(len(walls))]
    unit_s = statistics.median(block[2] for block in calibrator.blocks)
    print(f"request seconds per pass (traced: {traced}): {[round(every.request_s(p), 4) for p in range(len(walls))]}")
    print(f"request cal per pass: {[round(c, 2) for c in cost_cal]}")
    e2e = end_to_end(e2e_summary, untraced, setup_times, runner, workload, full, cost_cal, unit_s)
    if args.trace == 0:
        print("end-to-end (gated: " + ", ".join(E2E_GATED) + "):")
        print_metrics(e2e)
        metrics = {name: e2e[name] for name in E2E_GATED}
    else:
        # compared in calibration units, so machine drift between passes cancels
        traced_cal = statistics.median(cost_cal[p] for p in traced)
        untraced_cal = statistics.median(cost_cal[p] for p in untraced)
        overhead = (traced_cal - untraced_cal) * unit_s
        metrics = per_layer(summary, len(traced), workload, full, overhead)
        print(f"tracing overhead: traced pass {traced_cal * unit_s:.4f} s - "
              f"untraced pass {untraced_cal * unit_s:.4f} s = {overhead:+.4f} s "
              f"(at the run's median calibration unit, {1e3 * unit_s:.4f} ms)")
        print("per-layer, per traced pass:")
        print_metrics(metrics)
        if workload.name == "train_paper":
            print_epoch_table(metrics)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(workload, modules, args.seed, Path(args.setup_probe))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        return measure(args, workload, modules, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
