"""Peak memory of tape-free forward passes at scoring shapes.

``metrics.predict_batch`` runs the forward kernels without a tape on
chunks of 256 windows.  The input projection ``x @ W.T + b`` is streamed
through a block buffer inside the time loop, so no call may allocate as
much as the whole ``(T, B, G*H)`` projection at once.  The model streams
too: each layer below the top writes all its directions into one
``(T, B, directions*H)`` buffer, direction 1 walks that input from the last
step without a reversed copy, and the top layer keeps one step.  So while
a layer runs, the only sequence-sized array is the layer below's buffer:
one such buffer plus the cells' per-step buffers bound the peak.
"""

import tracemalloc

import numpy as np
import pytest

from cryptoforecast import cells
from cryptoforecast.cells import CellParams
from cryptoforecast.metrics import predict_batch
from cryptoforecast.network import ArchSpec, init_params

GATES = {"lstm": 4, "gru": 3}


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_tape_free_forward_peak_below_one_projection(rng, kind):
    steps, batch, inp, hidden = 60, 256, 100, 100
    rows = GATES[kind] * hidden
    params = CellParams(
        w=rng.normal(scale=0.1, size=(rows, inp)),
        u=rng.normal(scale=0.1, size=(rows, hidden)),
        b=rng.normal(scale=0.1, size=rows),
    )
    x = rng.normal(size=(steps, batch, inp))
    projection_bytes = 8 * steps * batch * rows  # 49.2 MB for LSTM, 36.9 MB for GRU
    forward = getattr(cells, f"{kind}_forward")

    tracemalloc.start()
    try:
        h_seq, tape = forward(params, x, store_tape=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert tape is None and h_seq.shape == (steps, batch, hidden)
    assert peak < projection_bytes, f"peak {peak / 1e6:.1f} MB >= projection {projection_bytes / 1e6:.1f} MB"


def scoring_peak(kind, rng):
    """tracemalloc peak of scoring the 366 test windows of a fixture at paper shapes, and one layer buffer's bytes."""
    model = init_params(ArchSpec(kind, layers=2, hidden_units=100), seed=3)
    windows = rng.uniform(size=(366, 60))  # a 256-window chunk, then 110

    tracemalloc.start()
    try:
        preds = predict_batch(model, windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert preds.shape == (366,)
    return peak, 8 * 60 * 256 * model.arch.dense_input_size


def assert_one_layer_buffer(peak, layer_bytes):
    # a second sequence-sized array (a reversed input copy, a direction's own output, a top-layer
    # sequence) would add a full or half layer buffer; the cells' per-step buffers are ~3.3 MB
    limit = 1.5 * layer_bytes
    assert peak < limit, f"peak {peak / 1e6:.1f} MB >= {limit / 1e6:.1f} MB"


def test_bilstm_scoring_peak_holds_no_direction_outputs_across_layers(rng):
    # 24.6 MB layer buffer, limit 36.9 MB; was 77.6 MB with concatenated and reversed sequences
    assert_one_layer_buffer(*scoring_peak("bilstm", rng))


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_scoring_peak_holds_one_layer_buffer(kind, rng):
    # 12.3 MB layer buffer, limit 18.4 MB; was 28.5 MB (LSTM) and 27.6 MB (GRU) with a top-layer sequence
    assert_one_layer_buffer(*scoring_peak(kind, rng))
