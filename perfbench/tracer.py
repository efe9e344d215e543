"""Spans recorded around the calls into each package module.

Every span is kept in memory as ``(name, pass, parent, start, end, attrs)``
and reduced to per-layer figures after the measurement loop.  Wrappers are
installed at the binding the caller actually uses: ``network`` imports the
``cells`` kernels by name, ``training`` and ``metrics`` import
``forward_batch``, and so on, so wrapping the originals would record nothing.
A wrapper left on a dead binding is caught by the per-workload binding
self-check (:func:`binding_problems`).
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from collections import defaultdict

_MB = 1e6
_GIGA = 1e9


def _model_kind(model) -> str:
    return model.arch.cell_kind


def _forward_attrs(args, kwargs, parent):
    model, windows = args[0], args[1]
    store_tape = kwargs.get("store_tape", args[2] if len(args) > 2 else True)
    variant = "tape" if store_tape else "notape"
    return {
        "name": f"network.forward_batch.{variant}",
        "arch": _model_kind(model),
        "windows": len(windows),
    }


def _arch_attrs(args, kwargs, parent):
    return {"arch": _model_kind(args[0])}


def _train_attrs(args, kwargs, parent):
    model, batch, config = args
    n = len(batch)
    grad_windows = (n - int(n * config.validation_fraction)) * config.epochs
    return {"arch": _model_kind(model), "windows": grad_windows}


def _evaluate_attrs(args, kwargs, parent):
    return {"arch": _model_kind(args[0]), "windows": len(args[1])}


def _file_attrs(args, kwargs, parent):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}


def _kernel_gflop(kernel: str, steps: int, batch: int, inp: int, hidden: int) -> float:
    """GEMM floating-point operations of one kernel call, from array shapes."""
    if kernel == "lstm_forward":
        flops = 2 * steps * batch * 4 * hidden * (inp + hidden)
    elif kernel == "lstm_backward":
        flops = 2 * 4 * hidden * batch * (steps * hidden + 2 * steps * inp + (steps - 1) * hidden)
    elif kernel == "gru_forward":
        flops = 2 * steps * batch * 3 * hidden * (inp + hidden)
    else:  # gru_backward: per-step 3H x H products, weight grads, input grad
        flops = 2 * batch * hidden * (
            3 * steps * hidden + 6 * steps * inp + 2 * (steps - 1) * hidden + steps * hidden
        )
    return flops / _GIGA


# bytes per (step, window) of the tape a forward kernel allocates, per hidden unit:
# LSTM keeps 3 sigmoid gates + candidate + cell + tanh(cell), GRU 2 gates + candidate + r*h
_TAPE_WIDTH = {"lstm_forward": 6, "gru_forward": 4}


def _layer_of(model, params, inp: int) -> int:
    """1-based layer holding ``params``; by input width when cells are rebuilt per call."""
    for index, entry in enumerate(model.layers):
        cells = entry if isinstance(entry, (tuple, list)) else (
            entry, getattr(entry, "fwd", None), getattr(entry, "bwd", None))
        if any(params is cell for cell in cells):
            return index + 1
    return 1 if inp == model.arch.input_dim else len(model.layers)


def _kernel_attrs(kernel: str):
    def attrs(args, kwargs, parent):
        params = args[0]
        if kernel.endswith("forward"):
            steps, batch, inp = args[1].shape
            store_tape = kwargs.get("store_tape", args[2] if len(args) > 2 else True)
        else:
            steps, batch, _ = args[1].h.shape
            inp = params.w.shape[1]
            store_tape = False
        hidden = params.u.shape[1]
        arch, layer = "unknown", 0
        model = parent[0][0] if parent and parent[0] else None
        if hasattr(model, "arch"):
            arch = _model_kind(model)
            layer = _layer_of(model, params, inp)
        tape = 8 * steps * batch * hidden * _TAPE_WIDTH.get(kernel, 0) if store_tape else 0
        return {
            "name": f"cells.{kernel}.{arch}.l{layer}",
            "arch": arch,
            "gflop": _kernel_gflop(kernel, steps, batch, inp, hidden),
            "tape_mb": tape / _MB,
        }

    return attrs


# (module, attribute, span name, attribute function).  The first three are
# the end-to-end probes and are installed in every pass; the rest only in
# traced passes.
E2E_BINDINGS = (
    ("experiment", "train", "training.train", _train_attrs),
    ("experiment", "evaluate", "metrics.evaluate", _evaluate_attrs),
    ("cli", "evaluate", "metrics.evaluate", _evaluate_attrs),
)
LAYER_BINDINGS = (
    ("training", "adam_step", "training.adam_step", _arch_attrs),
    ("training", "forward_batch", "network.forward_batch", _forward_attrs),
    ("metrics", "forward_batch", "network.forward_batch", _forward_attrs),
    ("training", "backward_batch", "network.backward_batch", _arch_attrs),
    ("metrics", "predict_batch", "metrics.predict_batch", _arch_attrs),
    ("network", "lstm_forward", "cells.lstm_forward", _kernel_attrs("lstm_forward")),
    ("network", "lstm_backward", "cells.lstm_backward", _kernel_attrs("lstm_backward")),
    ("network", "gru_forward", "cells.gru_forward", _kernel_attrs("gru_forward")),
    ("network", "gru_backward", "cells.gru_backward", _kernel_attrs("gru_backward")),
    ("experiment", "save_checkpoint", "network.save_checkpoint", _file_attrs),
    ("cli", "load_checkpoint", "network.load_checkpoint", _file_attrs),
    ("experiment", "parse_ohlcv", "ingest.parse_ohlcv", None),
    ("experiment", "impute_locf", "ingest.impute_locf", None),
    ("experiment", "make_windows", "preprocess.make_windows", None),
    ("experiment", "prepare_asset", "experiment.prepare_asset", None),
    ("experiment", "write_run_artifacts", "experiment.write_run_artifacts", None),
)


class BindingError(RuntimeError):
    """A binding the tracer must wrap does not exist in the program."""


class Tracer:
    """In-memory span recorder with installable module wrappers."""

    def __init__(self, modules: dict, calibrate=None, calibrate_after=()):
        self.modules = modules
        # run after every call of the named spans, as a "calibration" span
        # that request times exclude
        self.calibrate = calibrate
        self.calibrate_after = calibrate_after
        self.spans: list = []
        self.pass_id = -1
        self._stack: list = []
        self._installed: list = []

    def install(self, bindings) -> None:
        for module_name, attr, name, attrs in bindings:
            module = self.modules[module_name]
            original = getattr(module, attr, None)
            if not callable(original):
                raise BindingError(f"{module_name}.{attr} is not a callable binding")
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.open(name, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token, attrs)
                if name in self.calibrate_after:
                    with self.span("calibration"):
                        self.calibrate()

        return wrapper

    def open(self, name, args=(), kwargs=None):
        parent = self._stack[-1][0] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append((sid, name, parent, args, kwargs or {}))
        return sid, time.perf_counter()

    def close(self, token, attrs=None):
        sid, start = token
        end = time.perf_counter()
        _, name, parent, args, kwargs = self._stack.pop()
        parent_call = self._stack[-1][3:] if self._stack else None
        info = attrs(args, kwargs, parent_call) if attrs else {}
        name = info.pop("name", name)
        self.spans[sid] = (name, self.pass_id, parent, start, end, info)

    @contextlib.contextmanager
    def span(self, name):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)


class Summary:
    """Per-name totals, self times, call durations and attribute sums over passes."""

    def __init__(self, spans, passes):
        keep = set(passes)
        child_time = defaultdict(float)
        for span in spans:
            if span[1] in keep and span[2] is not None:
                child_time[span[2]] += span[4] - span[3]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.attrs = defaultdict(float)
        self.by_arch = defaultdict(float)
        self.arch_calls = defaultdict(int)
        self.per_pass = defaultdict(float)
        for sid, span in enumerate(spans):
            name, pass_id, _, start, end, info = span
            if pass_id not in keep:
                continue
            duration = end - start
            self.total[name] += duration
            self.self_time[name] += duration - child_time[sid]
            self.durations[name].append(duration)
            self.per_pass[(name, pass_id)] += duration
            if "arch" in info:
                self.by_arch[(name, info["arch"])] += duration
                self.arch_calls[(name, info["arch"])] += 1
            for key, value in info.items():
                if key != "arch":
                    self.attrs[(name, key)] += value
                    self.per_pass[(name, pass_id, key)] += value

    def request_s(self, pass_id) -> float:
        """Summed wall time of one pass's requests, less the calibration run inside them."""
        return self.per_pass[("cli.main", pass_id)] - self.per_pass[("calibration", pass_id)]

    def calls(self, name) -> int:
        return len(self.durations[name])

    def percentile_ms(self, name, q) -> float:
        values = self.durations[name]
        if len(values) < 2:
            return 1e3 * values[0] if values else 0.0
        return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def kernel_count_problems(summary: Summary, layers: int) -> list:
    """Kernel calls that bypassed a wrapper: each batch call runs every layer's cells once."""
    problems = []
    for direction, batches in (("forward", ("network.forward_batch.tape", "network.forward_batch.notape")),
                               ("backward", ("network.backward_batch",))):
        archs = {arch for (name, arch) in summary.arch_calls if name in batches}
        for arch in archs:
            cells = layers * (2 if arch == "bilstm" else 1)
            want = cells * sum(summary.arch_calls[(name, arch)] for name in batches)
            got = sum(count for (name, a), count in summary.arch_calls.items()
                      if a == arch and name.startswith("cells.") and f"_{direction}." in name)
            if got != want:
                problems.append(f"{arch}: {got} {direction} kernel calls recorded, {want} expected")
    return problems


def binding_problems(summary: Summary, required, forbidden) -> list:
    """Names that should have been recorded and were not, or the reverse."""
    problems = [f"{name}: no call recorded" for name in required if summary.calls(name) == 0]
    problems += [
        f"{name}: {summary.calls(name)} calls recorded on a workload that must not call it"
        for name in forbidden
        if summary.calls(name) > 0
    ]
    return problems
