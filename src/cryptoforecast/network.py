"""Stacked recurrent forecasting model.

Architecture: ``layers`` recurrent layers (two by default), each with
``hidden_units`` units, followed by a dense head with a single output.
Every layer except the last feeds its full hidden sequence to the next
one; the last layer contributes only its final hidden state.  The
bidirectional variant runs an independent backward-direction LSTM over
the reversed sequence in every layer and concatenates the per-step
outputs (so the dense head sees ``2 * hidden_units`` features, the
forward direction's last state next to the backward direction's).

Initial hidden/cell states are zero for every window; windows are
independent samples, never stateful continuations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    def bidirectional(self) -> bool:
        return self.cell_kind == "bilstm"

    @property
    def dense_input_size(self) -> int:
        return 2 * self.hidden_units if self.bidirectional else self.hidden_units

    def layer_input_sizes(self) -> list[int]:
        per_layer = 2 * self.hidden_units if self.bidirectional else self.hidden_units
        return [self.input_dim] + [per_layer] * (self.layers - 1)


@dataclass(eq=False)
class BiCellParams:
    """Parameter pair for one bidirectional layer."""

    fwd: CellParams
    bwd: CellParams


@dataclass(eq=False)
class ModelParams:
    """All trainable state for one model.

    ``layers`` holds a :class:`CellParams` per layer (or a
    :class:`BiCellParams` pair for the bidirectional kind); ``dense_w``
    and ``dense_b`` form the scalar output head.  The same container is
    reused, shape-for-shape, for gradients and optimizer moments.
    """

    arch: ArchSpec
    layers: list
    dense_w: np.ndarray
    dense_b: np.ndarray
    seed: int | None = field(default=None, compare=False)

    def flat(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed traversal order."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            cells = (layer.fwd, layer.bwd) if isinstance(layer, BiCellParams) else (layer,)
            for cell in cells:
                out.extend(cell.arrays())
        out.append(self.dense_w)
        out.append(self.dense_b)
        return out

    def array_names(self) -> list[str]:
        """Names of the :meth:`flat` arrays, in the same order, e.g. ``layers[1].bwd.u``."""
        out: list[str] = []
        for li, layer in enumerate(self.layers):
            prefixes = (
                (f"layers[{li}].fwd.", f"layers[{li}].bwd.")
                if isinstance(layer, BiCellParams)
                else (f"layers[{li}].",)
            )
            out.extend(prefix + name for prefix in prefixes for name in ("w", "u", "b"))
        return out + ["dense_w", "dense_b"]

    def rebuild(self, arrays: list[np.ndarray]) -> "ModelParams":
        """New ModelParams with the same structure but replaced arrays."""
        it = iter(arrays)

        def next_cell() -> CellParams:
            return CellParams(w=next(it), u=next(it), b=next(it))

        layers = []
        for layer in self.layers:
            if isinstance(layer, BiCellParams):
                layers.append(BiCellParams(fwd=next_cell(), bwd=next_cell()))
            else:
                layers.append(next_cell())
        dense_w = next(it)
        dense_b = next(it)
        return ModelParams(arch=self.arch, layers=layers, dense_w=dense_w, dense_b=dense_b, seed=self.seed)

    def zeros_like(self) -> "ModelParams":
        return self.rebuild([np.zeros_like(a) for a in self.flat()])

    def copy(self) -> "ModelParams":
        return self.rebuild([a.copy() for a in self.flat()])


# Gradients share the exact array structure of the parameters they mirror.
ParamGrads = ModelParams


def _glorot(rng: np.random.Generator, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(rows, cols))


def _init_cell(rng: np.random.Generator, input_size: int, hidden: int, kind: str) -> CellParams:
    gates = 4 if kind in ("lstm", "bilstm") else 3
    w = np.empty((gates * hidden, input_size))
    u = np.empty((gates * hidden, hidden))
    for g in range(gates):
        w[g * hidden : (g + 1) * hidden] = _glorot(rng, hidden, input_size, input_size, hidden)
    for g in range(gates):
        u[g * hidden : (g + 1) * hidden] = _glorot(rng, hidden, hidden, hidden, hidden)
    b = np.zeros(gates * hidden)
    if gates == 4:
        b[hidden : 2 * hidden] = 1.0  # forget gate opens fully at step one
    return CellParams(w=w, u=u, b=b)


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Deterministic Glorot-uniform initialization from a seeded generator.

    Biases start at zero except the LSTM forget gate, which starts at 1 so
    early training does not erase the cell state.  The same (arch, seed)
    always yields bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for input_size in arch.layer_input_sizes():
        if arch.bidirectional:
            fwd = _init_cell(rng, input_size, arch.hidden_units, arch.cell_kind)
            bwd = _init_cell(rng, input_size, arch.hidden_units, arch.cell_kind)
            layers.append(BiCellParams(fwd=fwd, bwd=bwd))
        else:
            layers.append(_init_cell(rng, input_size, arch.hidden_units, arch.cell_kind))
    k = arch.dense_input_size
    dense_w = _glorot(rng, 1, k, k, 1)[0]
    dense_b = np.zeros(1)
    return ModelParams(arch=arch, layers=layers, dense_w=dense_w, dense_b=dense_b, seed=seed)


@dataclass(eq=False)
class ModelTape:
    """Cached activations from :func:`forward_batch` for the backward pass."""

    x: np.ndarray  # (T, B, D) time-major model input
    layer_tapes: list  # per layer: cell tape, or (fwd tape, bwd tape) pair
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


def forward_batch(model: ModelParams, windows, store_tape: bool = True):
    """Predict one scalar per window.  Returns (predictions, tape or None)."""
    arch = model.arch
    x = _as_batch(windows, arch.input_dim)
    run = gru_forward if arch.cell_kind == "gru" else lstm_forward

    seq = x
    layer_tapes = []
    final = None
    for li, layer in enumerate(model.layers):
        last = li == len(model.layers) - 1
        if arch.bidirectional:
            h_f, tape_f = lstm_forward(layer.fwd, seq, store_tape)
            rev = np.ascontiguousarray(seq[::-1])
            h_b, tape_b = lstm_forward(layer.bwd, rev, store_tape)
            layer_tapes.append((tape_f, tape_b))
            if last:
                # each direction contributes its own final state
                final = np.concatenate([h_f[-1], h_b[-1]], axis=1)
            else:
                seq = np.concatenate([h_f, h_b[::-1]], axis=2)
        else:
            h_seq, tape = run(layer, seq, store_tape)
            layer_tapes.append(tape)
            if last:
                final = h_seq[-1]
            else:
                seq = h_seq

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

    Reverse-mode accumulation through the dense head, every layer, and
    (for the bidirectional kind) both directions.  The tape must come from
    :func:`forward_batch` on this same model.
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

    grad_layers: list = [None] * len(model.layers)
    d_seq = None  # gradient w.r.t. the current layer's output sequence
    for li in reversed(range(len(model.layers))):
        layer = model.layers[li]
        last = li == len(model.layers) - 1
        if arch.bidirectional:
            tape_f, tape_b = tape.layer_tapes[li]
            steps, batch, _ = tape_f.h.shape
            if last:
                dh_f = np.zeros((steps, batch, hsize))
                dh_b = np.zeros((steps, batch, hsize))
                dh_f[-1] = d_final[:, :hsize]
                dh_b[-1] = d_final[:, hsize:]
            else:
                dh_f = np.ascontiguousarray(d_seq[:, :, :hsize])
                # backward direction ran on reversed time, so flip its gradient
                dh_b = np.ascontiguousarray(d_seq[::-1, :, hsize:])
            g_f, dx_f = lstm_backward(layer.fwd, tape_f, dh_f)
            g_b, dx_b = lstm_backward(layer.bwd, tape_b, dh_b)
            grad_layers[li] = BiCellParams(fwd=g_f, bwd=g_b)
            d_seq = dx_f + dx_b[::-1]
        else:
            cell_tape = tape.layer_tapes[li]
            steps, batch, _ = cell_tape.h.shape
            if last:
                dh = np.zeros((steps, batch, hsize))
                dh[-1] = d_final
            else:
                dh = d_seq
            grad_layers[li], d_seq = back(layer, cell_tape, dh)

    return ModelParams(
        arch=arch, layers=grad_layers, dense_w=d_dense_w, dense_b=d_dense_b, seed=model.seed
    )


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
    for name, arr, garr in zip(work.array_names(), work.flat(), analytic.flat()):
        flat = arr.reshape(-1)
        gflat = garr.reshape(-1)
        for k in range(flat.shape[0]):
            saved = flat[k]
            flat[k] = saved + epsilon
            loss_plus = loss()
            flat[k] = saved - epsilon
            loss_minus = loss()
            flat[k] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            a = gflat[k]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if worst is None or rel > worst.rel_error:
                index = tuple(int(i) for i in np.unravel_index(k, arr.shape))
                worst = GradCheckResult(float(rel), name, index, float(a), float(numeric))
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


def _cell_from_dict(data, gate_order: tuple[str, ...], input_size: int, hidden: int, where: str) -> CellParams:
    if not isinstance(data, dict):
        raise CheckpointError(f"checkpoint {where}: expected an object of gate arrays")
    gates = len(gate_order)
    w = np.empty((gates * hidden, input_size))
    u = np.empty((gates * hidden, hidden))
    b = np.empty(gates * hidden)
    for idx, name in enumerate(gate_order):
        rows = slice(idx * hidden, (idx + 1) * hidden)
        w[rows] = _checked_array(data.get(f"w_{name}"), (hidden, input_size), f"{where}.w_{name}")
        u[rows] = _checked_array(data.get(f"u_{name}"), (hidden, hidden), f"{where}.u_{name}")
        b[rows] = _checked_array(data.get(f"b_{name}"), (hidden,), f"{where}.b_{name}")
    return CellParams(w=w, u=u, b=b)


def model_to_dict(model: ModelParams) -> dict:
    """Self-describing checkpoint document; arrays flattened row-major."""
    arch = model.arch
    gate_order = GRU_GATE_ORDER if arch.cell_kind == "gru" else LSTM_GATE_ORDER
    layers = []
    for layer in model.layers:
        if isinstance(layer, BiCellParams):
            layers.append(
                {
                    "forward": _cell_to_dict(layer.fwd, gate_order),
                    "backward": _cell_to_dict(layer.bwd, gate_order),
                }
            )
        else:
            layers.append(_cell_to_dict(layer, gate_order))
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
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {CHECKPOINT_FORMAT} document")
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {data.get('version')!r}")
    try:
        arch = ArchSpec(**data["arch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint arch: {exc}") from None
    entries = data.get("layers")
    if not isinstance(entries, list) or len(entries) != arch.layers:
        found = len(entries) if isinstance(entries, list) else "no list of"
        raise CheckpointError(f"checkpoint declares {arch.layers} layers but holds {found} layer entries")
    gate_order = GRU_GATE_ORDER if arch.cell_kind == "gru" else LSTM_GATE_ORDER
    layers = []
    for li, (input_size, entry) in enumerate(zip(arch.layer_input_sizes(), entries)):
        where = f"layers[{li}]"
        if not arch.bidirectional:
            layers.append(_cell_from_dict(entry, gate_order, input_size, arch.hidden_units, where))
            continue
        if not isinstance(entry, dict) or not {"forward", "backward"} <= entry.keys():
            raise CheckpointError(f"checkpoint {where}: needs 'forward' and 'backward' cells")
        fwd, bwd = (
            _cell_from_dict(entry[d], gate_order, input_size, arch.hidden_units, f"{where}.{d}")
            for d in ("forward", "backward")
        )
        layers.append(BiCellParams(fwd=fwd, bwd=bwd))
    dense = data.get("dense")
    if not isinstance(dense, dict):
        raise CheckpointError("checkpoint dense: expected an object with 'w' and 'b'")
    dense_w = _checked_array(dense.get("w"), (arch.dense_input_size,), "dense.w")
    dense_b = _checked_array([dense.get("b")], (1,), "dense.b")
    return ModelParams(arch=arch, layers=layers, dense_w=dense_w, dense_b=dense_b, seed=data.get("seed"))


def save_checkpoint(model: ModelParams, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), sort_keys=True) + "\n")


def load_checkpoint(path) -> ModelParams:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    return model_from_dict(data)
