"""Peak memory of tape-free forward passes at scoring shapes.

``metrics.predict_batch`` runs the forward kernels without a tape on
chunks of 256 windows.  The input projection ``x @ W.T + b`` is streamed
through a block buffer inside the time loop, so no call may allocate as
much as the whole ``(T, B, G*H)`` projection at once.  Between layers,
the model keeps only the next layer's input alive, not each direction's
output as well.
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


def test_bilstm_scoring_peak_holds_no_direction_outputs_across_layers(rng):
    # paper shapes over the 366 test windows of a fixture: a 256-window chunk, then 110
    model = init_params(ArchSpec("bilstm", layers=2, hidden_units=100), seed=3)
    windows = rng.uniform(size=(366, 60))
    limit = 89.8e6  # the peak while a layer's kernels also held the layer below's direction outputs

    tracemalloc.start()
    try:
        preds = predict_batch(model, windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert preds.shape == (366,)
    assert peak < limit, f"peak {peak / 1e6:.1f} MB >= {limit / 1e6:.1f} MB"
