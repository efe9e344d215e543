"""Peak memory of tape-free forward passes at scoring shapes, of training and of checkpoint writes.

``metrics.predict_batch`` runs the forward kernels without a tape on
chunks of 128 windows.  The input projection ``x @ W.T + b`` is streamed
through a block buffer inside the time loop, so no call may allocate as
much as the whole ``(T, B, G*H)`` projection at once.  The model streams
too: each layer below the top writes all its directions into one
``(T, B, directions*H)`` buffer, direction 1 walks that input from the last
step without a reversed copy, and the top layer keeps one step.  So while
a layer runs, the only sequence-sized array is the layer below's buffer:
one such buffer plus the cells' per-step buffers bound the peak.

Training holds one tape, whose cells run one after another: they share
their output-gradient buffer and their backward scratch, and the input
gradients of a layer's directions are summed into direction 0's own.
A checkpoint is written one gate array at a time, so saving holds the
encoding of one array, never the text of the whole model.  Reading a
parsed checkpoint holds its checked arrays and their concatenation, two
model vectors, so parsing the file stays what sets a load's peak.

A run holds one model at a time: ``train`` holds no reference to the
initial parameters it copies, and ``run_experiment`` keeps of a finished
run only its evaluation.
"""

import dataclasses
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from cryptoforecast import cells, experiment, training
from cryptoforecast.cells import CellParams
from cryptoforecast.metrics import predict_batch
from cryptoforecast.network import ArchSpec, forward_batch, init_params, model_from_dict, save_checkpoint
from cryptoforecast.preprocess import SequenceBatch
from cryptoforecast.training import TrainConfig, train

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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
    windows = rng.uniform(size=(366, 60))  # two 128-window chunks, then 110

    tracemalloc.start()
    try:
        preds = predict_batch(model, windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert preds.shape == (366,)
    return peak, 8 * 60 * 128 * model.arch.dense_input_size


def assert_one_layer_buffer(peak, layer_bytes):
    # a second sequence-sized array (a reversed input copy, a direction's own output, a top-layer
    # sequence) would add a full or half layer buffer; the cells' per-step buffers are 2.0-3.1 MB
    limit = 1.5 * layer_bytes
    assert peak < limit, f"peak {peak / 1e6:.1f} MB >= {limit / 1e6:.1f} MB"


def test_bilstm_scoring_peak_holds_no_direction_outputs_across_layers(rng):
    # 12.3 MB layer buffer, limit 18.4 MB, peak 15.4 MB (parsing its checkpoint takes 17.5 MB); was 29.7 MB
    # in 256-window chunks and 77.6 MB with concatenated and reversed sequences
    assert_one_layer_buffer(*scoring_peak("bilstm", rng))


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_scoring_peak_holds_one_layer_buffer(kind, rng):
    # 6.1 MB layer buffer, limit 9.2 MB, peaks 8.8 MB (LSTM) and 8.1 MB (GRU); in 256-window chunks
    # 16.8 and 15.6 MB, and 28.5 and 27.6 MB with a top-layer sequence
    assert_one_layer_buffer(*scoring_peak(kind, rng))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_peak_holds_one_gate_array_encoding(tmp_path):
    model = init_params(ArchSpec("bilstm", layers=2, hidden_units=100), seed=3)
    largest = model.layers[1][0].w[:100]  # a (100, 200) input-weight gate, the largest array
    text_bytes = len(json.dumps(largest.ravel().tolist()))  # 0.43 MB
    # encoding one array holds its float list, one string per value and the joined text: about 6.5x
    # its text (2.8 MB); the whole document's list and text copies peaked at 24.2 MB
    limit = 10 * text_bytes
    peak = traced_peak(lambda: save_checkpoint(model, tmp_path / "checkpoint.json"))
    assert peak < limit, f"peak {peak / 1e6:.1f} MB >= {limit / 1e6:.1f} MB"


def test_reading_a_parsed_checkpoint_peaks_below_parsing_its_file(tmp_path):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(init_params(ArchSpec("bilstm", layers=2, hidden_units=100), seed=3), path)
    text = path.read_text()
    # the file's text (6.9 MB) and the document of float lists parsed from it (10.5 MB): 17.45 MB
    parse = traced_peak(lambda: json.loads(path.read_text()))
    # the document held while reading keeps every checked array (2.6 MB) until their concatenation
    # (2.6 MB): 15.69 MB; the reader that filled a zeroed vector array by array peaked at 13.29 MB
    read = traced_peak(lambda: model_from_dict(json.loads(text)))
    assert read < parse, f"reading peaked at {read / 1e6:.2f} MB, parsing at {parse / 1e6:.2f} MB"


def assert_training_peak(rng, n):
    arch = ArchSpec("bilstm", layers=2, hidden_units=100)
    model = init_params(arch, seed=3)
    windows = SequenceBatch(rng.uniform(size=(n, 60)), rng.uniform(size=n), np.arange(60, 60 + n))
    # what a tape must hold: per cell its tape arrays and input gradient, one output gradient
    # and one gate-gradient scratch shared by all cells, and the gradient vector; each buffer
    # counted once, as direction 1's input is a view of the layer input direction 0 records
    _, tape = forward_batch(model, windows.inputs[:32])
    cell = tape.layer_tapes[0][0]
    held = [cell.dh_seq, cell.flat, tape.grads.vector]
    for w in (w for layer in tape.layer_tapes for w in layer):
        for a in (getattr(w, f) for f in ("x", "s", "g", "c", "tc", "h", "dx")):
            if a is not None and not any(np.shares_memory(a, b) for b in held):
                held.append(a)
    tape_bytes = sum(a.nbytes for a in held)
    del tape, cell, held
    state_bytes = 3 * model.vector.nbytes  # the trained copy and Adam's two moments
    layer_bytes = 8 * 60 * 32 * arch.dense_input_size  # one (T, B, 2H) layer sequence, 3.1 MB
    # what a batch holds besides: the C-contiguous copy of direction 1's reversed layer input that
    # its weight-gradient product reads (one layer buffer, the peak falls inside that backward
    # call), and the cells' step scratch (projection blocks, gate and carry buffers, hoisted
    # factors) and per-step views, 3.1 MB here, allowed one layer buffer and a half
    limit = tape_bytes + state_bytes + 2.5 * layer_bytes
    peak = traced_peak(lambda: train(model, windows, TrainConfig(batch_size=32, epochs=1)))
    assert peak < limit, f"peak {peak / 1e6:.1f} MB >= {limit / 1e6:.1f} MB"


def test_training_peak_holds_one_output_gradient_buffer(rng):
    # four batches of 32 and 14 validation windows: 62.5 + 7.7 MB, limit 77.9 MB, peak 76.4 MB;
    # a private output gradient per cell (three more 1.5 MB buffers) and a fresh sum of the
    # directions' input gradients per layer peaked at 85.0 MB, one more layer buffer would reach 79.4 MB
    assert_training_peak(rng, 142)


def test_training_peak_with_a_short_last_batch(rng):
    # four batches of 32, a last batch of 16 and 16 validation windows: 76.3 MB against the same
    # 77.9 MB limit; tape-owned layer buffers that outlive a short batch's own peaked at 79.8 MB
    assert_training_peak(rng, 160)


def fixture_config(tmp_path, symbols, rows, **fields) -> experiment.ExperimentConfig:
    """A config over the first ``rows`` rows of each named fixture."""
    assets = []
    for symbol in symbols:
        path = tmp_path / f"{symbol}.csv"
        lines = (FIXTURES / f"{symbol.lower()}_usd.csv").read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: rows + 1]))
        assets.append(experiment.AssetSpec(symbol, path))
    return experiment.ExperimentConfig(assets=tuple(assets), out_dir=tmp_path / "out", **fields)


def test_training_holds_no_reference_to_the_initial_parameters(tmp_path, monkeypatch):
    config = fixture_config(tmp_path, ["BTC"], 100, architectures=("lstm",), lookback=10, hidden_units=4, epochs=1)
    initial, dead = [], []

    def init_params_kept(*args, **kwargs):
        model = init_params(*args, **kwargs)
        initial.append(weakref.ref(model))
        return model

    def adam_step_checked(*args):
        dead.append(initial[0]() is None)
        return adam_step(*args)

    adam_step = training.adam_step
    monkeypatch.setattr(experiment, "init_params", init_params_kept)
    monkeypatch.setattr(training, "adam_step", adam_step_checked)
    experiment.run_single(config, config.assets[0], "lstm")
    # a name for the initial model in run_single, or the arguments of a decorator's wrapper
    # around train, kept a second parameter vector alive through the whole of training
    assert dead and all(dead)


def test_a_run_starts_with_no_finished_run_alive(tmp_path, monkeypatch):
    config = fixture_config(
        tmp_path, ["BTC", "ETH"], 150, architectures=("bilstm", "lstm"), lookback=20, hidden_units=64, epochs=1
    )
    lstm_bytes = init_params(config.arch_for("lstm"), seed=0).vector.nbytes  # 0.40 MB; the Bi-LSTM's is 1.06 MB
    # imports and allocator caches that a first run fills would count as run memory
    experiment.run_experiment(dataclasses.replace(config, assets=config.assets[:1], hidden_units=2))
    starts = []

    def run_single_traced(*args):
        starts.append(tracemalloc.get_traced_memory()[0])
        return run_single(*args)

    run_single = experiment.run_single
    monkeypatch.setattr(experiment, "run_single", run_single_traced)
    tracemalloc.start()
    try:
        experiment.run_experiment(config)
    finally:
        tracemalloc.stop()
    # each later run started 0.03-0.06 MB above the first, its predecessors' evaluations; the
    # list of finished RunResults and the loop's name for the last one held 1.10-2.58 MB of models
    growth = [start - starts[0] for start in starts]
    assert len(starts) == 4 and max(growth) < lstm_bytes / 4, f"runs started {growth} bytes above the first"
