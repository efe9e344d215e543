"""Stacked recurrent forecasting model.

Architecture: ``layers`` recurrent layers (two by default), then a dense
head with a single output.  Every layer is a tuple of direction cells of
``hidden_units`` units: one cell for LSTM and GRU, a forward and a backward
LSTM cell for Bi-LSTM.  Direction 1 runs over reversed time, and the
directions' per-step outputs are concatenated in time order (one direction
passes up uncopied).  Every layer except the last feeds that sequence to
the next; the last contributes each direction's final hidden state, so the
dense head sees ``directions * hidden_units`` features.

Initial hidden/cell states are zero for every window; windows are
independent samples, never stateful continuations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .cells import (
    GRU_GATE_ORDER,
    LSTM_GATE_ORDER,
    CellParams,
    gru_backward,
    gru_forward,
    lstm_backward,
    lstm_forward,
)
from .errors import CheckpointError

CELL_KINDS = ("lstm", "gru", "bilstm")

CHECKPOINT_FORMAT = "cryptoforecast-checkpoint"
CHECKPOINT_VERSION = 1
_DIRECTION_KEYS = ("forward", "backward")  # a two-direction layer's cells in a checkpoint


@dataclass(frozen=True)
class ArchSpec:
    """Shape of the stack: cell kind, depth, width, and input features."""

    cell_kind: str
    layers: int = 2
    hidden_units: int = 100
    input_dim: int = 1
    output_dim: int = 1

    def __post_init__(self):
        kind = self.cell_kind.lower()
        object.__setattr__(self, "cell_kind", kind)
        if kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.cell_kind!r}; expected one of {CELL_KINDS}")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.output_dim != 1:
            raise ValueError("output_dim is fixed to 1 (one-step-ahead scalar forecast)")

    @property
    def directions(self) -> int:
        """Cells per layer: 2 (forward, then reversed time) for the bidirectional kind, else 1."""
        return 2 if self.cell_kind == "bilstm" else 1

    @property
    def dense_input_size(self) -> int:
        return self.directions * self.hidden_units

    def layer_input_sizes(self) -> list[int]:
        return [self.input_dim] + [self.dense_input_size] * (self.layers - 1)

    @cached_property
    def param_layout(self) -> tuple[tuple[str, tuple[int, ...], slice], ...]:
        """``(name, shape, span)`` of each parameter array, stored in ``vector[span]`` of its model,
        in :meth:`ModelParams.flat` order: per layer and direction ``w``, ``u``, ``b``; then the head."""
        rows = (3 if self.cell_kind == "gru" else 4) * self.hidden_units
        directions = ("",) if self.directions == 1 else (".fwd", ".bwd")
        shapes = [
            (f"layers[{li}]{d}.{name}", shape)
            for li, inp in enumerate(self.layer_input_sizes())
            for d in directions
            for name, shape in (("w", (rows, inp)), ("u", (rows, self.hidden_units)), ("b", (rows,)))
        ]
        shapes += [("dense_w", (self.dense_input_size,)), ("dense_b", (1,))]
        starts = [0, *itertools.accumulate(math.prod(shape) for _, shape in shapes)]
        return tuple((name, shape, slice(a, b)) for (name, shape), a, b in zip(shapes, starts, starts[1:]))


@dataclass(eq=False)
class ModelParams:
    """All trainable state for one model, stored in one float64 ``vector``.

    ``layers`` holds a tuple of :class:`CellParams` per layer, one per
    direction (:attr:`ArchSpec.directions`); ``dense_w`` and ``dense_b``
    form the scalar output head.  All are views of ``vector`` (layout:
    :attr:`ArchSpec.param_layout`).  The same container is reused for gradients.
    """

    arch: ArchSpec
    vector: np.ndarray = field(repr=False)
    seed: int | None = None
    layers: list = field(init=False, repr=False)
    dense_w: np.ndarray = field(init=False, repr=False)
    dense_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layout = self.arch.param_layout
        if self.vector.shape != (layout[-1][2].stop,) or self.vector.dtype != np.float64:
            raise ValueError(f"{self.arch} needs a float64 vector of {layout[-1][2].stop} values")
        arrays = self._arrays = [self.vector[span].reshape(shape) for _, shape, span in layout]
        cells = [CellParams(*arrays[i : i + 3]) for i in range(0, len(arrays) - 2, 3)]
        d = self.arch.directions
        self.layers = [tuple(cells[i : i + d]) for i in range(0, len(cells), d)]
        self.dense_w, self.dense_b = arrays[-2:]

    @classmethod
    def zeros(cls, arch: ArchSpec, seed: int | None = None) -> "ModelParams":
        return cls(arch, np.zeros(arch.param_layout[-1][2].stop), seed)

    def flat(self) -> list[np.ndarray]:
        """All parameter arrays, views of :attr:`vector`, in a fixed traversal order."""
        return list(self._arrays)

    def array_names(self) -> list[str]:
        """Names of the :meth:`flat` arrays, in the same order, e.g. ``layers[0].w`` or ``layers[1].bwd.u``."""
        return [name for name, *_ in self.arch.param_layout]

    def locate(self, index: int) -> tuple[str, tuple[int, ...]]:
        """Array name and element index of element ``index`` of :attr:`vector`."""
        name, shape, span = next(entry for entry in self.arch.param_layout if index < entry[2].stop)
        return name, tuple(int(i) for i in np.unravel_index(index - span.start, shape))

    def rebuild(self, arrays: list[np.ndarray]) -> "ModelParams":
        """New ModelParams with the same structure, packing ``arrays`` (in :meth:`flat` order)."""
        if [a.shape for a in arrays] != [shape for _, shape, _ in self.arch.param_layout]:
            raise ValueError("arrays do not match the model's parameter shapes")
        return ModelParams(self.arch, np.concatenate(arrays, axis=None), self.seed)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.arch, np.zeros_like(self.vector), self.seed)

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.vector.copy(), self.seed)


# Gradients share the exact array structure of the parameters they mirror.
ParamGrads = ModelParams


def _glorot(rng: np.random.Generator, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(rows, cols))


def _init_cell(rng: np.random.Generator, cell: CellParams) -> None:
    hidden, input_size = cell.hidden_size, cell.input_size
    gates = cell.u.shape[0] // hidden
    for g in range(gates):
        cell.w[g * hidden : (g + 1) * hidden] = _glorot(rng, hidden, input_size, input_size, hidden)
    for g in range(gates):
        cell.u[g * hidden : (g + 1) * hidden] = _glorot(rng, hidden, hidden, hidden, hidden)
    if gates == 4:
        cell.b[hidden : 2 * hidden] = 1.0  # forget gate opens fully at step one


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Deterministic Glorot-uniform initialization from a seeded generator.

    Biases start at zero except the LSTM forget gate, which starts at 1 so
    early training does not erase the cell state.  The same (arch, seed)
    always yields bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    model = ModelParams.zeros(arch, seed)
    for cell in itertools.chain.from_iterable(model.layers):
        _init_cell(rng, cell)
    k = arch.dense_input_size
    model.dense_w[:] = _glorot(rng, 1, k, k, 1)[0]
    return model


@dataclass(eq=False)
class ModelTape:
    """Cached activations from :func:`forward_batch` for the backward pass."""

    x: np.ndarray  # (T, B, D) time-major model input
    layer_tapes: list  # per layer: a tuple of cell tapes, one per direction
    final: np.ndarray  # (B, K) dense-head input


def _as_batch(windows, input_dim: int) -> np.ndarray:
    """Coerce windows to the time-major (T, B, D) layout the kernels use."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim == 1:
        x = x[np.newaxis, :, np.newaxis]
    elif x.ndim == 2:
        x = x[:, :, np.newaxis]
    if x.ndim != 3:
        raise ValueError(f"windows must be 1-D, 2-D, or 3-D, got shape {x.shape}")
    if x.shape[1] < 1:
        raise ValueError("window length must be >= 1")
    if x.shape[2] != input_dim:
        raise ValueError(f"expected {input_dim} input feature(s), got {x.shape[2]}")
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def _side_by_side(parts: list, axis: int) -> np.ndarray:
    """The directions' ``parts`` concatenated along ``axis``; a single part passes through uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def forward_batch(model: ModelParams, windows, store_tape: bool = True):
    """Predict one scalar per window.  Returns (predictions, tape or None).

    Each layer runs its direction cells over the layer input, direction 1
    over reversed time.  Only the next layer's input outlives a layer.
    """
    x = _as_batch(windows, model.arch.input_dim)
    run = gru_forward if model.arch.cell_kind == "gru" else lstm_forward
    seq, layer_tapes = x, []
    for li, layer in enumerate(model.layers):
        runs = []  # emptied before the kernels run, so the layer below's outputs are freed
        for d, cell in enumerate(layer):
            runs.append(run(cell, np.ascontiguousarray(seq[::-1]) if d else seq, store_tape))
        layer_tapes.append(tuple(cell_tape for _, cell_tape in runs))
        if li < len(model.layers) - 1:
            seq = _side_by_side([h_seq[::-1] if d else h_seq for d, (h_seq, _) in enumerate(runs)], axis=2)
    # the head reads each direction's own last step
    final = _side_by_side([h_seq[-1] for h_seq, _ in runs], axis=1)

    preds = final @ model.dense_w + model.dense_b[0]
    tape = ModelTape(x=x, layer_tapes=layer_tapes, final=final) if store_tape else None
    return preds, tape


def forward(model: ModelParams, window):
    """Predict from a single lookback window.  Returns (prediction, tape)."""
    preds, tape = forward_batch(model, window, store_tape=True)
    if preds.shape[0] != 1:
        raise ValueError("forward() takes exactly one window; use forward_batch for batches")
    return float(preds[0]), tape


def backward_batch(model: ModelParams, tape: ModelTape, d_predictions) -> ParamGrads:
    """Gradients of ``sum_j d_predictions[j] * prediction_j`` w.r.t. all parameters.

    Reverse-mode accumulation through the dense head and every layer's
    direction cells.  The tape must come from :func:`forward_batch` on this
    same model.
    """
    arch = model.arch
    d_preds = np.asarray(d_predictions, dtype=np.float64)
    if tape is None:
        raise ValueError("backward requires the tape produced by forward")
    if d_preds.shape != (tape.final.shape[0],):
        raise ValueError(f"d_predictions must have shape ({tape.final.shape[0]},), got {d_preds.shape}")
    if len(tape.layer_tapes) != len(model.layers) or tape.final.shape[1] != arch.dense_input_size:
        raise ValueError("tape does not match this model")

    hsize = arch.hidden_units
    back = gru_backward if arch.cell_kind == "gru" else lstm_backward

    d_dense_w = tape.final.T @ d_preds
    d_dense_b = np.array([d_preds.sum()])
    d_final = np.outer(d_preds, model.dense_w)

    arrays = [d_dense_w, d_dense_b]  # in flat() order, filled in from the top layer down
    d_seq = None  # gradient w.r.t. the current layer's output sequence; None at the top layer
    for layer, layer_tape in zip(reversed(model.layers), reversed(tape.layer_tapes)):
        layer_arrays, d_input = [], None
        for d, (cell, cell_tape) in enumerate(zip(layer, layer_tape)):
            cols = slice(d * hsize, (d + 1) * hsize)
            if d_seq is None:  # the head read only this direction's last step
                dh = np.zeros(cell_tape.h.shape)
                dh[-1] = d_final[:, cols]
            else:  # direction 1 ran on reversed time, so its gradient is flipped
                dh = np.ascontiguousarray((d_seq[::-1] if d else d_seq)[:, :, cols])
            grad, dx = back(cell, cell_tape, dh)
            layer_arrays += grad.arrays()
            dx = dx[::-1] if d else dx  # back in time order
            d_input = dx if d_input is None else d_input + dx
        arrays, d_seq = layer_arrays + arrays, d_input
    return model.rebuild(arrays)


def backward(model: ModelParams, tape: ModelTape, d_prediction: float) -> ParamGrads:
    """Single-window convenience wrapper over :func:`backward_batch`."""
    return backward_batch(model, tape, np.array([float(d_prediction)]))


@dataclass(frozen=True)
class GradCheckResult:
    """Worst analytic/numeric gradient disagreement and where it occurred."""

    rel_error: float
    array: str  # parameter array name, as in ModelParams.array_names()
    index: tuple[int, ...]  # element index within that array
    analytic: float
    numeric: float

    def location(self) -> str:
        return f"{self.array}[{', '.join(map(str, self.index))}]"


def grad_check_worst(model: ModelParams, window, target: float, epsilon: float = 1e-5) -> GradCheckResult:
    """Compare analytic and numeric gradients; report the worst element.

    Checks the gradient of the squared-error loss
    ``(forward(window) - target)**2`` parameter-by-parameter against
    central finite differences, with relative error
    ``|a - n| / max(|a|, |n|, 1e-8)``.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon must be within [1e-7, 1e-3], got {epsilon}")
    target = float(target)

    pred, tape = forward(model, window)
    analytic = backward(model, tape, 2.0 * (pred - target))

    work = model.copy()

    def loss() -> float:
        preds, _ = forward_batch(work, window, store_tape=False)
        return float((preds[0] - target) ** 2)

    worst = None
    flat = work.vector
    for k in range(flat.shape[0]):
        saved = flat[k]
        flat[k] = saved + epsilon
        loss_plus = loss()
        flat[k] = saved - epsilon
        loss_minus = loss()
        flat[k] = saved
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        a = analytic.vector[k]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if worst is None or rel > worst.rel_error:
            worst = GradCheckResult(float(rel), *work.locate(k), float(a), float(numeric))
    return worst


def grad_check(model: ModelParams, window, target: float, epsilon: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    The number :func:`grad_check_worst` reports as ``rel_error``.
    """
    return grad_check_worst(model, window, target, epsilon).rel_error


def _cell_to_dict(cell: CellParams, gate_order: tuple[str, ...]) -> dict:
    out = {}
    for idx, name in enumerate(gate_order):
        w, u, b = cell.gate_block(idx)
        out[f"w_{name}"] = w.ravel().tolist()
        out[f"u_{name}"] = u.ravel().tolist()
        out[f"b_{name}"] = b.ravel().tolist()
    return out


def _checked_array(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    """``value``, a flat row-major list of finite numbers, as a float64 array of ``shape``."""
    size = math.prod(shape)
    try:
        arr = np.asarray(value)
    except (ValueError, OverflowError):  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "fi" or arr.ndim != 1:
        raise CheckpointError(f"checkpoint {where}: expected a list of {size} numbers")
    if arr.size != size:
        raise CheckpointError(f"checkpoint {where}: expected {size} values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"checkpoint {where}: non-finite value")
    return arr.astype(np.float64, copy=False).reshape(shape)


def _cell_from_dict(data, gate_order: tuple[str, ...], cell: CellParams, where: str) -> None:
    """Fill ``cell`` from its checkpoint entry."""
    if type(data) is not dict:
        raise CheckpointError(f"checkpoint {where}: expected an object of gate arrays")
    for idx, name in enumerate(gate_order):
        w, u, b = cell.gate_block(idx)
        w[:] = _checked_array(data.get(f"w_{name}"), w.shape, f"{where}.w_{name}")
        u[:] = _checked_array(data.get(f"u_{name}"), u.shape, f"{where}.u_{name}")
        b[:] = _checked_array(data.get(f"b_{name}"), b.shape, f"{where}.b_{name}")


def model_to_dict(model: ModelParams) -> dict:
    """Self-describing checkpoint document; arrays flattened row-major.

    A two-direction layer nests its cells' entries under ``forward`` and ``backward``."""
    arch = model.arch
    gate_order = GRU_GATE_ORDER if arch.cell_kind == "gru" else LSTM_GATE_ORDER
    layers = []
    for layer in model.layers:
        cells = [_cell_to_dict(cell, gate_order) for cell in layer]
        layers.append(cells[0] if len(cells) == 1 else dict(zip(_DIRECTION_KEYS, cells)))
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": {
            "cell_kind": arch.cell_kind,
            "layers": arch.layers,
            "hidden_units": arch.hidden_units,
            "input_dim": arch.input_dim,
            "output_dim": arch.output_dim,
        },
        "seed": model.seed,
        "layers": layers,
        "dense": {"w": model.dense_w.ravel().tolist(), "b": float(model.dense_b[0])},
    }


def model_from_dict(data: dict) -> ModelParams:
    """Rebuild a model from its checkpoint document.

    Raises :class:`CheckpointError` unless the document describes the
    whole declared model: one entry per layer, every gate array with the
    element count its shape needs, a full dense head, all values finite.
    """
    if type(data) is not dict or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {CHECKPOINT_FORMAT} document")
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {data.get('version')!r}")
    try:
        arch = ArchSpec(**data["arch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint arch: {exc}") from None
    entries = data.get("layers")
    if type(entries) is not list or len(entries) != arch.layers:
        found = len(entries) if type(entries) is list else "no list of"
        raise CheckpointError(f"checkpoint declares {arch.layers} layers but holds {found} layer entries")
    gate_order = GRU_GATE_ORDER if arch.cell_kind == "gru" else LSTM_GATE_ORDER
    model = ModelParams.zeros(arch, data.get("seed"))
    for li, (layer, entry) in enumerate(zip(model.layers, entries)):
        where = f"layers[{li}]"
        if len(layer) == 1:
            _cell_from_dict(entry, gate_order, layer[0], where)
            continue
        if type(entry) is not dict or not set(_DIRECTION_KEYS) <= entry.keys():
            raise CheckpointError(f"checkpoint {where}: needs 'forward' and 'backward' cells")
        for cell, key in zip(layer, _DIRECTION_KEYS):
            _cell_from_dict(entry[key], gate_order, cell, f"{where}.{key}")
    dense = data.get("dense")
    if type(dense) is not dict:
        raise CheckpointError("checkpoint dense: expected an object with 'w' and 'b'")
    model.dense_w[:] = _checked_array(dense.get("w"), model.dense_w.shape, "dense.w")
    model.dense_b[:] = _checked_array([dense.get("b")], model.dense_b.shape, "dense.b")
    return model


def save_checkpoint(model: ModelParams, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), sort_keys=True) + "\n")


def load_checkpoint(path) -> ModelParams:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    return model_from_dict(data)
