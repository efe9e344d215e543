"""One layer shape: the model against the frozen two-branch model code, bit for bit.

Every layer of a model is a tuple of direction cells (one, or forward
then backward), and ``forward_batch`` / ``backward_batch`` run them with
one loop.  They must give exactly the predictions, tape arrays and
gradients of the two-branch code frozen in ``reference_network``, for
every cell kind, at one to three layers, for single steps, single
windows and small batches, with and without a tape, and at paper shapes.
The tape-free pass streams (each layer writes its directions into one
buffer, direction 1 walks the unreversed input, the top layer keeps one
step), and must still give the reference's predictions bit for bit at the
scoring chunks of ``metrics.predict_batch`` and where a projection block
spans several steps.
"""

import numpy as np
import pytest

from cryptoforecast import cells
from cryptoforecast.metrics import _EVAL_CHUNK, predict_batch
from cryptoforecast.network import ArchSpec, backward_batch, forward_batch, init_params

import reference_network as ref
from same_bits import assert_same_bits

TAPE_FIELDS = {"lstm": ("x", "s", "g", "c", "tc", "h"), "gru": ("x", "s", "n", "rh", "h")}


def check_against_reference(model, windows, d_preds, store_tape):
    kind = model.arch.cell_kind
    preds, tape = forward_batch(model, windows, store_tape=store_tape)
    ref_preds, ref_tape = ref.forward_batch(model, windows, store_tape=store_tape)
    assert_same_bits(preds, ref_preds)
    if not store_tape:
        assert tape is None
        return
    assert_same_bits(tape.x, ref_tape.x)
    assert_same_bits(tape.final, ref_tape.final)
    assert len(tape.layer_tapes) == len(ref_tape.layer_tapes) == model.arch.layers
    for layer_tape, ref_layer_tape in zip(tape.layer_tapes, ref_tape.layer_tapes):
        ref_cells = ref_layer_tape if kind == "bilstm" else (ref_layer_tape,)
        assert type(layer_tape) is tuple and len(layer_tape) == model.arch.directions
        for cell_tape, ref_cell_tape in zip(layer_tape, ref_cells):
            for name in TAPE_FIELDS["gru" if kind == "gru" else "lstm"]:
                assert_same_bits(getattr(cell_tape, name), getattr(ref_cell_tape, name))
    grads = backward_batch(model, tape, d_preds)
    assert_same_bits(grads.vector, np.concatenate(ref.backward_batch(model, ref_tape, d_preds), axis=None))


@pytest.mark.parametrize("store_tape", [True, False])
@pytest.mark.parametrize("steps,batch", [(1, 1), (7, 1), (7, 5)])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
def test_matches_reference(kind, layers, steps, batch, store_tape, rng):
    model = init_params(ArchSpec(kind, layers=layers, hidden_units=4), seed=layers * 10 + steps)
    windows = rng.uniform(size=(batch, steps))
    check_against_reference(model, windows, rng.normal(size=batch), store_tape)


def test_bilstm_matches_reference_at_paper_shapes(rng):
    model = init_params(ArchSpec("bilstm", layers=2, hidden_units=100), seed=5)
    windows = rng.uniform(size=(32, 60))
    check_against_reference(model, windows, rng.normal(size=32), store_tape=True)


@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
def test_layers_are_tuples_of_direction_cells(kind):
    model = init_params(ArchSpec(kind, layers=3, hidden_units=2), seed=1)
    directions = 2 if kind == "bilstm" else 1
    assert model.arch.directions == directions
    assert all(type(layer) is tuple and len(layer) == directions for layer in model.layers)
    assert model.arch.dense_input_size == directions * 2
    assert model.arch.layer_input_sizes() == [1, directions * 2, directions * 2]


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_one_direction_layer_passes_its_output_up_uncopied(kind, rng):
    model = init_params(ArchSpec(kind, layers=2, hidden_units=3), seed=2)
    _, tape = forward_batch(model, rng.uniform(size=(4, 6)))
    assert tape.layer_tapes[1][0].x is tape.layer_tapes[0][0].h


@pytest.mark.parametrize("hidden,lookback", [(100, 60), (8, 20)], ids=["paper", "quick"])
@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
def test_scoring_matches_reference_at_paper_shapes(kind, hidden, lookback, rng):
    # the 366 test windows of a fixture, scored in two 128-window chunks and a tail of 110, give the
    # reference's predictions over one 256-window chunk and the same tail, bit for bit
    model = init_params(ArchSpec(kind, layers=2, hidden_units=hidden), seed=4)
    windows = rng.uniform(size=(366, lookback))
    assert _EVAL_CHUNK == 128
    expected = np.concatenate([ref.forward_batch(model, windows[s : s + 256], store_tape=False)[0] for s in (0, 256)])
    assert_same_bits(predict_batch(model, windows), expected)


@pytest.mark.parametrize("layers", [2, 3])
@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
def test_tape_free_matches_reference_with_multi_step_projection_blocks(kind, layers, rng):
    """At quick.cfg shapes and 30 windows a projection block holds 8-11 of the 20 steps, so direction 1
    copies each block, reversed, before projecting it; the last block is shorter."""
    model = init_params(ArchSpec(kind, layers=layers, hidden_units=8), seed=layers)
    assert 1 < cells._projection_block_len(20, 30, (3 if kind == "gru" else 4) * 8) < 20
    windows = rng.uniform(size=(30, 20))
    preds, tape = forward_batch(model, windows, store_tape=False)
    assert tape is None
    assert_same_bits(preds, ref.forward_batch(model, windows, store_tape=False)[0])
