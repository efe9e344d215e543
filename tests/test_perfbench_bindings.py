"""The benchmark's tracer contract, checked on every test run.

``perfbench/tracer.py`` wraps the functions the program calls at the names
their callers look up (``network.lstm_backward``, ``training.forward_batch``
and so on).  A refactor that calls a kernel or a batch function by another
name makes the traced benchmark record nothing there; this test runs a tiny
``run``, then ``evaluate`` of its checkpoints, under the benchmark's own
bindings and self-checks to catch that without a benchmark run.  The
perfbench modules are imported, not changed.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from cryptoforecast import cli, experiment, metrics, network, training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name, monkeypatch):
    """``perfbench/<name>.py`` as the module ``name``, registered for this test only."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tiny_run_records_every_binding_and_kernel_call(tmp_path, monkeypatch):
    load_perfbench("reference", monkeypatch)  # imported by workloads
    tracer, workloads = load_perfbench("tracer", monkeypatch), load_perfbench("workloads", monkeypatch)
    train_small = workloads.WORKLOADS["train_small"]
    tiny = dataclasses.replace(train_small, lookback=10, hidden_units=4, rows=120)
    config = workloads.write_inputs(tiny, PERFBENCH.parent, tmp_path)
    modules = {"cli": cli, "experiment": experiment, "metrics": metrics, "network": network, "training": training}
    recorder = tracer.Tracer(modules)
    recorder.pass_id = 0
    recorder.install(tracer.E2E_BINDINGS + tracer.LAYER_BINDINGS)
    codes = []
    try:
        with recorder.span("cli.main"):
            codes.append(cli.main(["run", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "out")]))
        recorder.pass_id = 1  # the score_ckpt leg: evaluate re-scores the run's checkpoints
        for kind in workloads.ARCHS:
            checkpoint = tmp_path / "out" / f"BTC_{kind}" / "checkpoint.json"
            with recorder.span("cli.main"):
                codes.append(cli.main(["evaluate", "--config", str(config), "--asset", "BTC",
                                       "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]))
    finally:
        recorder.uninstall()
    assert codes == [0] * (1 + len(workloads.ARCHS))
    for pass_id, workload in enumerate((train_small, workloads.WORKLOADS["score_ckpt"])):
        summary = tracer.Summary(recorder.spans, [pass_id])
        assert tracer.binding_problems(summary, workload.required, workload.forbidden) == [], workload.name
        assert tracer.kernel_count_problems(summary, 2) == [], workload.name
