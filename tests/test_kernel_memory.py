"""Peak memory of the tape-free forward kernels at a scoring chunk.

``metrics.predict_batch`` runs the forward kernels without a tape on
chunks of 256 windows.  The input projection ``x @ W.T + b`` is streamed
through a block buffer inside the time loop, so no call may allocate as
much as the whole ``(T, B, G*H)`` projection at once.
"""

import tracemalloc

import numpy as np
import pytest

from cryptoforecast import cells
from cryptoforecast.cells import CellParams

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
