"""Scalar reference predictions rebuilt from a checkpoint document.

The model is rebuilt from the documented checkpoint layout (one entry per
layer, per-gate ``w_<g>``/``u_<g>``/``b_<g>`` arrays, a ``forward`` and
``backward`` entry per bidirectional layer) and run one window at a time
through the scalar reference steps ``cells.lstm_step`` / ``cells.gru_step``,
composed as the README's architecture section describes.  Nothing here goes
through the batched sequence kernels the benchmark times, so an optimised
kernel that drifts from the cell equations shows up as a mismatch.
"""

from __future__ import annotations

import numpy as np

from cryptoforecast.cells import CellParams, CellState, gru_step, lstm_step

_GATES = {"lstm": ("i", "f", "o", "c"), "bilstm": ("i", "f", "o", "c"), "gru": ("u", "r", "c")}


def _cell(entry: dict, kind: str, input_size: int, hidden: int) -> CellParams:
    gates = _GATES[kind]
    w = np.concatenate([np.reshape(entry[f"w_{g}"], (hidden, input_size)) for g in gates])
    u = np.concatenate([np.reshape(entry[f"u_{g}"], (hidden, hidden)) for g in gates])
    b = np.concatenate([np.asarray(entry[f"b_{g}"], dtype=np.float64) for g in gates])
    return CellParams(w=w, u=u, b=b)


def _run(cell: CellParams, kind: str, inputs: list) -> list:
    hidden = cell.u.shape[1]
    outputs = []
    if kind == "gru":
        h = np.zeros(hidden)
        for x_t in inputs:
            h = gru_step(cell, x_t, h)
            outputs.append(h)
    else:
        state = CellState(h=np.zeros(hidden), c=np.zeros(hidden))
        for x_t in inputs:
            state = lstm_step(cell, x_t, state)
            outputs.append(state.h)
    return outputs


def reference_predict(doc: dict, window) -> float:
    """Normalized one-step prediction for one window, from scalar steps only."""
    arch = doc["arch"]
    kind = arch["cell_kind"]
    hidden = arch["hidden_units"]
    seq = [np.array([float(v)]) for v in window]
    layers = doc["layers"]
    final = None
    for li, entry in enumerate(layers):
        last = li == len(layers) - 1
        input_size = seq[0].shape[0]
        if kind == "bilstm":
            h_f = _run(_cell(entry["forward"], kind, input_size, hidden), kind, seq)
            # the backward direction reads the reversed window; re-reverse its outputs
            h_b = _run(_cell(entry["backward"], kind, input_size, hidden), kind, seq[::-1])[::-1]
            if last:
                final = np.concatenate([h_f[-1], h_b[0]])
            else:
                seq = [np.concatenate([f, b]) for f, b in zip(h_f, h_b)]
        else:
            h_seq = _run(_cell(entry, kind, input_size, hidden), kind, seq)
            if last:
                final = h_seq[-1]
            else:
                seq = h_seq
    dense = doc["dense"]
    return float(np.dot(np.asarray(dense["w"], dtype=np.float64), final) + float(dense["b"]))
