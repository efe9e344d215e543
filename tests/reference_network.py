"""Frozen copy of the two-branch ``forward_batch`` / ``backward_batch``.

This is the model code from before every layer became a tuple of
direction cells, kept as an oracle: the unidirectional and bidirectional
kinds each have their own branch.  Only the way it reads a layer's cells
changed (``layer[0]`` for the forward or only cell, ``layer[1]`` for the
backward direction); the arithmetic is as it was.  Tests hold the
production model to these outputs bit for bit.  Do not edit.
"""

import numpy as np

from cryptoforecast.cells import gru_backward, gru_forward, lstm_backward, lstm_forward
from cryptoforecast.network import ModelTape, _as_batch


def forward_batch(model, windows, store_tape=True):
    arch = model.arch
    bidirectional = arch.cell_kind == "bilstm"
    x = _as_batch(windows, arch.input_dim)
    run = gru_forward if arch.cell_kind == "gru" else lstm_forward

    seq = x
    layer_tapes = []
    final = None
    for li, layer in enumerate(model.layers):
        last = li == len(model.layers) - 1
        if bidirectional:
            h_f, tape_f = lstm_forward(layer[0], seq, store_tape)
            rev = np.ascontiguousarray(seq[::-1])
            h_b, tape_b = lstm_forward(layer[1], rev, store_tape)
            layer_tapes.append((tape_f, tape_b))
            if last:
                final = np.concatenate([h_f[-1], h_b[-1]], axis=1)
            else:
                seq = np.concatenate([h_f, h_b[::-1]], axis=2)
        else:
            h_seq, tape = run(layer[0], seq, store_tape)
            layer_tapes.append(tape)
            if last:
                final = h_seq[-1]
            else:
                seq = h_seq

    preds = final @ model.dense_w + model.dense_b[0]
    tape = ModelTape(x=x, layer_tapes=layer_tapes, final=final) if store_tape else None
    return preds, tape


def backward_batch(model, tape, d_predictions):
    """Gradients as a list of arrays in ``ModelParams.flat`` order."""
    arch = model.arch
    bidirectional = arch.cell_kind == "bilstm"
    d_preds = np.asarray(d_predictions, dtype=np.float64)
    hsize = arch.hidden_units
    back = gru_backward if arch.cell_kind == "gru" else lstm_backward

    d_dense_w = tape.final.T @ d_preds
    d_dense_b = np.array([d_preds.sum()])
    d_final = np.outer(d_preds, model.dense_w)

    grad_layers = [None] * len(model.layers)
    d_seq = None
    for li in reversed(range(len(model.layers))):
        layer = model.layers[li]
        last = li == len(model.layers) - 1
        if bidirectional:
            tape_f, tape_b = tape.layer_tapes[li]
            steps, batch, _ = tape_f.h.shape
            if last:
                dh_f = np.zeros((steps, batch, hsize))
                dh_b = np.zeros((steps, batch, hsize))
                dh_f[-1] = d_final[:, :hsize]
                dh_b[-1] = d_final[:, hsize:]
            else:
                dh_f = np.ascontiguousarray(d_seq[:, :, :hsize])
                dh_b = np.ascontiguousarray(d_seq[::-1, :, hsize:])
            g_f, dx_f = lstm_backward(layer[0], tape_f, dh_f)
            g_b, dx_b = lstm_backward(layer[1], tape_b, dh_b)
            grad_layers[li] = g_f.arrays() + g_b.arrays()
            d_seq = dx_f + dx_b[::-1]
        else:
            cell_tape = tape.layer_tapes[li]
            steps, batch, _ = cell_tape.h.shape
            if last:
                dh = np.zeros((steps, batch, hsize))
                dh[-1] = d_final
            else:
                dh = d_seq
            grad, d_seq = back(layer[0], cell_tape, dh)
            grad_layers[li] = grad.arrays()

    return [a for arrays in grad_layers for a in arrays] + [d_dense_w, d_dense_b]
