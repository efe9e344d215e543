"""Stacked recurrent forecasting model.

Architecture: ``layers`` recurrent layers (two by default), then a dense
head with a single output.  Every layer is a tuple of direction cells of
``hidden_units`` units: one cell for LSTM and GRU, a forward and a backward
LSTM cell for Bi-LSTM.  Direction 1 runs over reversed time, and the
directions' per-step outputs sit side by side in time order.  Every layer
except the last feeds that sequence to the next; the last contributes each
direction's final hidden state (the last step it walked), so the dense head
sees ``directions * hidden_units`` features.

Initial hidden/cell states are zero for every window; windows are
independent samples, never stateful continuations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .cells import (
    GRU_GATE_ORDER,
    LSTM_GATE_ORDER,
    CellParams,
    GruWork,
    LstmWork,
    gru_backward,
    gru_forward,
    lstm_backward,
    lstm_forward,
)
from .errors import AT_LEAST_ONE, CheckpointError, cannot, check, quoted

CELL_KINDS = ("lstm", "gru", "bilstm")

CHECKPOINT_FORMAT = "cryptoforecast-checkpoint"
CHECKPOINT_VERSION = 1
_DIRECTION_KEYS = ("forward", "backward")  # a two-direction layer's cells in a checkpoint
ARCH_RULES = {  # the rule (errors.check) of each integer ArchSpec field
    "layers": AT_LEAST_ONE,
    "hidden_units": AT_LEAST_ONE,
    "input_dim": AT_LEAST_ONE,
    "output_dim": (int, lambda v: v == 1, "1 (a one-step-ahead scalar forecast)"),
}
EPSILON_RULE = (float, lambda v: 1e-7 <= v <= 1e-3, "within [1e-7, 1e-3]")  # grad_check_worst's epsilon
DEFAULT_EPSILON = 1e-5  # grad_check_worst's, grad_check's and the gradcheck command's


@dataclass(frozen=True)
class ArchSpec:
    """Shape of the stack: cell kind, depth, width, and input features."""

    cell_kind: str
    layers: int = 2
    hidden_units: int = 100
    input_dim: int = 1
    output_dim: int = 1

    def __post_init__(self):
        if type(self.cell_kind) is not str:
            raise TypeError(f"cell_kind must be a string, got {type(self.cell_kind).__name__}")
        for name, rule in ARCH_RULES.items():
            check(name, getattr(self, name), rule)
        kind = self.cell_kind.lower()
        object.__setattr__(self, "cell_kind", kind)
        if kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {quoted(self.cell_kind)}; expected one of {CELL_KINDS}")

    @property
    def directions(self) -> int:
        """Cells per layer: 2 (forward, then reversed time) for the bidirectional kind, else 1."""
        return 2 if self.cell_kind == "bilstm" else 1

    @property
    def gate_order(self) -> tuple[str, ...]:
        """Gate names in the order their row blocks are stacked in each cell's ``w``, ``u`` and ``b``."""
        return GRU_GATE_ORDER if self.cell_kind == "gru" else LSTM_GATE_ORDER

    @property
    def dense_input_size(self) -> int:
        return self.directions * self.hidden_units

    def layer_input_sizes(self) -> list[int]:
        return [self.input_dim] + [self.dense_input_size] * (self.layers - 1)

    @cached_property
    def param_layout(self) -> tuple[tuple[str, tuple[int, ...], slice], ...]:
        """``(name, shape, span)`` of each parameter array, stored in ``vector[span]`` of its model,
        in :meth:`ModelParams.flat` order: per layer and direction ``w``, ``u``, ``b``; then the head."""
        rows = len(self.gate_order) * self.hidden_units
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

    def locate(self, index: int) -> tuple[str, tuple[int, ...]]:
        """Array name and element index of element ``index`` of :attr:`vector`."""
        name, shape, span = next(entry for entry in self.arch.param_layout if index < entry[2].stop)
        return name, tuple(int(i) for i in np.unravel_index(index - span.start, shape))

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.vector.copy(), self.seed)


def _gate_arrays(arch: ArchSpec):
    """``(layer, direction key or None, key, span)`` of every per-gate array, e.g. ``(1, "forward", "u_f", span)``.

    A gate's rows of a cell's row-major ``w``, ``u`` or ``b`` are one span of
    the parameter vector; walked in vector order (per cell ``w`` gates, ``u``
    gates, ``b`` gates) the spans tile it up to the dense head.  Init,
    checkpoint save and checkpoint load all split cells into gates here.
    """
    keys, gates = (None,) if arch.directions == 1 else _DIRECTION_KEYS, arch.gate_order
    for i, (_, _, span) in enumerate(arch.param_layout[:-2]):
        cell, size = i // 3, (span.stop - span.start) // len(gates)
        for g, gate in enumerate(gates):
            start = span.start + g * size
            yield cell // len(keys), keys[cell % len(keys)], f"{'wub'[i % 3]}_{gate}", slice(start, start + size)


def _glorot(rng: np.random.Generator, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Deterministic Glorot-uniform initialization from a seeded generator.

    Biases start at zero except the LSTM forget gate, which starts at 1 so
    early training does not erase the cell state.  The same (arch, seed)
    always yields bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    model = ModelParams.zeros(arch, seed)
    hsize = arch.hidden_units
    for _, _, key, span in _gate_arrays(arch):
        cols = (span.stop - span.start) // hsize
        if key[0] != "b":
            model.vector[span] = _glorot(rng, hsize, cols, cols, hsize).ravel()
        elif key == "b_f":
            model.vector[span] = 1.0  # the LSTM forget gate opens fully at step one
    k = arch.dense_input_size
    model.dense_w[:] = _glorot(rng, 1, k, k, 1)[0]
    return model


def _as_batch(windows, input_dim: int) -> np.ndarray:
    """Coerce windows to the time-major (T, B, D) layout the kernels use."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim == 1:
        x = x[np.newaxis, :, np.newaxis]
    elif x.ndim == 2:
        x = x[:, :, np.newaxis]
    if x.ndim != 3:
        raise ValueError(f"windows must be 1-D, 2-D, or 3-D, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError(f"empty batch: no windows in shape {x.shape}")
    if x.shape[1] < 1:
        raise ValueError("window length must be >= 1")
    if x.shape[2] != input_dim:
        raise ValueError(f"expected {input_dim} input feature(s), got {x.shape[2]}")
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def _side_by_side(parts: list, axis: int) -> np.ndarray:
    """The directions' ``parts`` concatenated along ``axis``; a single part passes through uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _kernels(arch: ArchSpec):
    """``(forward, backward, workspace class)`` of the cell kind, looked up at each call so wrappers bound here run."""
    if arch.cell_kind == "gru":
        return gru_forward, gru_backward, GruWork
    return lstm_forward, lstm_backward, LstmWork


def _carver(buffers: dict):
    """An allocator for the cell workspaces that hands out the leading elements of ``buffers[name]``.

    A buffer is allocated on its first request and replaced when a larger
    shape asks for it, so workspaces built for a smaller batch after a
    larger one use the same memory.
    """

    def alloc(name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if name not in buffers or buffers[name].size < size:
            buffers[name] = np.empty(size)
        return buffers[name][:size].reshape(shape)

    return alloc


@dataclass(eq=False)
class ModelTape:
    """What :func:`forward_batch` records for the backward pass, the buffers it records into, and the gradients.

    ``layer_tapes`` holds per layer a tuple of cell tapes (cell workspaces,
    which also hold their backward buffers), one per direction; ``grads``
    is the gradient vector, laid out by :attr:`ArchSpec.param_layout`, that
    :func:`backward_batch` overwrites.  A tape from :func:`forward_batch`
    also owns the buffers its cell workspaces are carved from, sized by the
    largest batch it has seen, so a shorter batch uses their leading
    elements; the backward scratch is shared by all cells, which run one
    after another.  Passed back as ``workspace=``, the tape is overwritten.
    """

    x: np.ndarray  # (T, B, D) time-major model input
    layer_tapes: list
    final: np.ndarray  # (B, K) dense-head input
    grads: ModelParams | None = None
    # per cell its own buffers, the shared buffers, and the cell workspaces by (steps, batch); None when hand-built
    _buffers: tuple | None = field(default=None, init=False, repr=False)

    def _cells(self, steps: int, batch: int) -> list:
        """Per layer, a tuple of cell workspaces, one per direction, for (steps, batch) inputs.

        Releases the inputs the previous batch's tapes recorded, so none outlives its batch.
        """
        own, shared, cells = self._buffers
        for work in (work for layers in cells.values() for layer in layers for work in layer):
            work.x = None
        if (steps, batch) not in cells:
            arch = self.grads.arch
            kind = _kernels(arch)[2]
            cells[(steps, batch)] = [
                tuple(
                    kind(steps, batch, inp, arch.hidden_units, True, _carver(buffers), grad, li > 0, _carver(shared))
                    for buffers, grad in zip(own[li], self.grads.layers[li])
                )
                for li, inp in enumerate(arch.layer_input_sizes())
            ]
        return cells[(steps, batch)]


def forward_batch(model: ModelParams, windows, store_tape: bool = True, *, workspace: ModelTape | None = None):
    """Predict one scalar per window.  Returns (predictions, tape or None).

    Each layer runs its direction cells over the layer input, direction 1
    over reversed time: on reversed views of its input and output.  Without
    a tape the pass streams: a layer below the top writes every direction
    into one (T, B, directions*H) buffer, and the top layer keeps one step,
    the head's input.  A tape passed as ``workspace`` (one this function
    returned for the same architecture; ``store_tape`` true) is overwritten
    and returned; a tape kept without one is a fresh :class:`ModelTape`.
    """
    x = _as_batch(windows, model.arch.input_dim)
    run, _, kind = _kernels(model.arch)
    tape = workspace
    if tape is None and store_tape:
        tape = ModelTape(x, [], None, ModelParams(model.arch, np.empty(model.vector.size), model.seed))
        tape._buffers = [[{} for _ in layer] for layer in model.layers], {}, {}
    elif tape is not None and (not store_tape or tape._buffers is None or tape.grads.arch != model.arch):
        raise ValueError("workspace must be a tape that forward_batch returned for this architecture, with store_tape")
    seq = x
    if tape is None:
        arch, (steps, batch, _) = model.arch, x.shape
        hsize = arch.hidden_units
        for li, layer in enumerate(model.layers):
            out = np.empty((steps if li < arch.layers - 1 else 1, batch, arch.dense_input_size))
            for d, cell in enumerate(layer):  # each workspace is freed when its kernel returns
                walk = slice(None, None, -1 if d else 1)
                cols = out[:, :, d * hsize : (d + 1) * hsize][walk]
                run(cell, seq[walk], False, workspace=kind(steps, batch, seq.shape[2], hsize, False, out=cols))
            seq = out
        final = seq[0]  # every direction's last walked step
    else:
        cells = tape._cells(*x.shape[:2])
        for li, layer in enumerate(model.layers):
            runs = []  # emptied before the kernels run, so the layer below's outputs are freed
            for d, cell in enumerate(layer):
                runs.append(run(cell, seq[::-1] if d else seq, True, workspace=cells[li][d]))
            if li < len(model.layers) - 1:
                seq = _side_by_side([h_seq[::-1] if d else h_seq for d, (h_seq, _) in enumerate(runs)], axis=2)
        # the head reads each direction's own last step
        final = _side_by_side([h_seq[-1] for h_seq, _ in runs], axis=1)
        tape.x, tape.layer_tapes, tape.final = x, cells, final  # the kernels kept their tapes in the cell workspaces
    return final @ model.dense_w + model.dense_b[0], tape


def backward_batch(model: ModelParams, tape: ModelTape, d_predictions) -> ModelParams:
    """Gradients of ``sum_j d_predictions[j] * prediction_j`` w.r.t. all parameters.

    Reverse-mode accumulation through the dense head and every layer's
    direction cells, written straight into the tape's gradient vector
    (``tape.grads``), which is returned.  Every backward call on the tape,
    this one included, overwrites it.  The tape must come from
    :func:`forward_batch` on this same model.
    """
    arch = model.arch
    d_preds = np.asarray(d_predictions, dtype=np.float64)
    if tape is None or tape.grads is None:
        raise ValueError("backward requires the tape produced by forward")
    if d_preds.shape != (tape.final.shape[0],):
        raise ValueError(f"d_predictions must have shape ({tape.final.shape[0]},), got {d_preds.shape}")
    if tape.grads.arch != arch:
        raise ValueError("tape does not match this model")

    hsize = arch.hidden_units
    back = _kernels(arch)[1]
    grads = tape.grads

    np.matmul(tape.final.T, d_preds, out=grads.dense_w)
    grads.dense_b[0] = d_preds.sum()
    d_final = np.outer(d_preds, model.dense_w)

    d_seq = None  # gradient w.r.t. the current layer's output sequence; None at the top layer
    for li in range(len(model.layers) - 1, -1, -1):
        d_input = None
        for d, (cell, cell_tape) in enumerate(zip(model.layers[li], tape.layer_tapes[li])):
            cols = slice(d * hsize, (d + 1) * hsize)
            dh = cell_tape.dh_seq
            if d_seq is None:  # the head read only this direction's last step
                dh[:-1] = 0.0
                dh[-1] = d_final[:, cols]
            else:  # direction 1 ran on reversed time, so its gradient is flipped
                np.copyto(dh, (d_seq[::-1] if d else d_seq)[:, :, cols])
            _, dx = back(cell, cell_tape, dh)
            if li:
                dx = dx[::-1] if d else dx  # back in time order
                d_input = dx if d_input is None else np.add(d_input, dx, out=d_input)  # into direction 0's dx
        d_seq = d_input
    return grads


@dataclass(frozen=True)
class GradCheckResult:
    """Worst analytic/numeric gradient disagreement and where it occurred."""

    rel_error: float
    array: str  # parameter array name, as in ArchSpec.param_layout
    index: tuple[int, ...]  # element index within that array
    analytic: float
    numeric: float
    recheck: float  # that element's numeric derivative at recheck_epsilon(epsilon)

    def location(self) -> str:
        return f"{self.array}[{', '.join(map(str, self.index))}]"


def recheck_epsilon(epsilon: float) -> float:
    """The second step a failing check is retried at: 10x ``epsilon``, or a tenth where 10x leaves the rule."""
    return 10 * epsilon if EPSILON_RULE[1](10 * epsilon) else epsilon / 10


def grad_check_worst(model: ModelParams, window, target: float, epsilon: float = DEFAULT_EPSILON) -> GradCheckResult:
    """Compare analytic and numeric gradients; report the worst element.

    Checks the gradient of the squared-error loss ``(prediction - target)**2``
    of exactly one ``window`` parameter-by-parameter against
    central finite differences, with relative error
    ``|a - n| / max(|a|, |n|, 1e-8)``.  The worst element's difference is
    also taken at :func:`recheck_epsilon` (``recheck``): a gap that moves
    with the step is finite-difference noise, one that stays is a bug.
    """
    check("epsilon", epsilon, EPSILON_RULE)
    target = float(target)

    work = model.copy()
    preds, tape = forward_batch(work, window)
    if preds.shape[0] != 1:
        raise ValueError(f"grad_check_worst takes exactly one window, got {preds.shape[0]}")
    analytic = backward_batch(work, tape, 2.0 * (preds - target))

    flat = work.vector

    def central_difference(k: int, step: float) -> float:  # reruns the one tape; only backward wrote its gradients
        saved, losses = flat[k], []
        for value in (saved + step, saved - step):
            flat[k] = value
            preds, _ = forward_batch(work, window, workspace=tape)
            losses.append(float((preds[0] - target) ** 2))
        flat[k] = saved
        return (losses[0] - losses[1]) / (2.0 * step)

    numeric = [central_difference(k, epsilon) for k in range(flat.shape[0])]
    rel = [abs(a - n) / max(abs(a), abs(n), 1e-8) for a, n in zip(analytic.vector, numeric)]
    k = max(range(len(rel)), key=rel.__getitem__)  # the first worst
    recheck = central_difference(k, recheck_epsilon(epsilon))
    return GradCheckResult(float(rel[k]), *work.locate(k), float(analytic.vector[k]), float(numeric[k]), recheck)


def grad_check(model: ModelParams, window, target: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    The number :func:`grad_check_worst` reports as ``rel_error``.
    """
    return grad_check_worst(model, window, target, epsilon).rel_error


def _as_list(array: np.ndarray) -> list:
    return array.ravel().tolist()


def _checked_array(value, span: slice, where: str) -> np.ndarray:
    """``value``, a flat list of finite numbers as long as ``span``, as a float64 array."""
    size = span.stop - span.start
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
    return arr.astype(np.float64, copy=False)


def _document(model: ModelParams, leaf) -> dict:
    """The checkpoint document with ``leaf(array)`` in place of each parameter array, a view of the model's vector.

    A two-direction layer nests its cells' entries under ``forward`` and ``backward``."""
    arch = model.arch
    layers = [{} for _ in range(arch.layers)]
    for li, key, name, span in _gate_arrays(arch):
        (layers[li] if key is None else layers[li].setdefault(key, {}))[name] = leaf(model.vector[span])
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": asdict(arch),
        "seed": model.seed,
        "layers": layers,
        "dense": {"w": leaf(model.dense_w), "b": float(model.dense_b[0])},
    }


def model_to_dict(model: ModelParams) -> dict:
    """Self-describing checkpoint document; arrays flattened row-major.  :func:`save_checkpoint` writes it."""
    return _document(model, _as_list)


def model_from_dict(data: dict) -> ModelParams:
    """Rebuild a model from its checkpoint document.

    Raises :class:`CheckpointError` unless the document describes the
    whole declared model: one entry per layer, every gate array with the
    element count its shape needs, a full dense head, all values finite,
    and an integer or null seed.  Arrays are checked in vector order, so
    the first fault in that order is named, and the model's vector is
    allocated only after all have passed: a document that declares an
    architecture larger than it holds allocates nothing of that size.
    """
    if type(data) is not dict or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {CHECKPOINT_FORMAT} document")
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {quoted(repr(data.get('version')), str)}")
    try:
        arch = ArchSpec(**data["arch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint arch: {exc}") from None
    seed = data.get("seed")
    if seed is not None and type(seed) is not int:
        raise CheckpointError(f"checkpoint seed must be an integer or null, got {quoted(repr(seed), str)}")
    entries = data.get("layers")
    if type(entries) is not list or len(entries) != arch.layers:
        found = len(entries) if type(entries) is list else "no list of"
        raise CheckpointError(f"checkpoint declares {arch.layers} layers but holds {found} layer entries")
    arrays = []  # every array, checked, in vector order
    for li, key, name, span in _gate_arrays(arch):
        cell, at = entries[li], f"layers[{li}]"
        if key is not None:
            if type(cell) is not dict or not set(_DIRECTION_KEYS) <= cell.keys():
                raise CheckpointError(f"checkpoint {at}: needs 'forward' and 'backward' cells")
            cell, at = cell[key], f"{at}.{key}"
        if type(cell) is not dict:
            raise CheckpointError(f"checkpoint {at}: expected an object of gate arrays")
        arrays.append(_checked_array(cell.get(name), span, f"{at}.{name}"))
    dense = data.get("dense")
    if type(dense) is not dict:
        raise CheckpointError("checkpoint dense: expected an object with 'w' and 'b'")
    (_, _, w_span), (_, _, b_span) = arch.param_layout[-2:]
    arrays += [_checked_array(dense.get("w"), w_span, "dense.w"), _checked_array([dense.get("b")], b_span, "dense.b")]
    return ModelParams(arch, np.concatenate(arrays), seed)


def _write_json(node, write) -> None:
    """Write ``node`` as ``json.dumps(node, sort_keys=True)`` would, encoding each array on its own."""
    if isinstance(node, (dict, list)):
        keyed = isinstance(node, dict)
        write("{" if keyed else "[")
        for k, key in enumerate(sorted(node) if keyed else range(len(node))):
            write((", " if k else "") + (json.dumps(key) + ": " if keyed else ""))
            _write_json(node[key], write)
        write("}" if keyed else "]")
    else:
        write(json.dumps(_as_list(node) if isinstance(node, np.ndarray) else node))


def save_checkpoint(model: ModelParams, path) -> None:
    """Write ``json.dumps(model_to_dict(model), sort_keys=True)`` and a newline, one gate array at a time.

    No text or float list of the whole model is ever held; the file is complete and closed on return."""
    with open(path, "w") as f:
        _write_json(_document(model, lambda array: array), f.write)
        f.write("\n")


def load_checkpoint(path) -> ModelParams:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(cannot("read", "checkpoint", path, exc)) from None
    return model_from_dict(data)
