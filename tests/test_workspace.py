"""Training workspaces: buffers reused across batches, bit for bit.

``training.train`` passes each batch's :class:`network.ModelTape` back to
``forward_batch`` as the next batch's ``workspace``: one tape per run,
whose cell workspaces (tapes, backward buffers, kernel scratch and
per-step views) and gradient vector are carved for the full batch and
reused, in leading slices, by the short last batch.  Adam updates the
run's own copy of the model in place.  None of this may change a bit:
``train`` must reproduce the frozen per-batch loop in
``reference_training`` (fresh tapes, packed gradients, pure Adam), and a
tape passed back to ``forward_batch`` must reproduce the default calls,
batch after batch and across batch-size changes.
"""

import numpy as np
import pytest

from cryptoforecast import cells, training
from cryptoforecast.network import ArchSpec, ModelParams, ModelTape, backward_batch, forward_batch, init_params
from cryptoforecast.preprocess import SequenceBatch
from cryptoforecast.training import OptimizerState, TrainConfig, adam_step, train

import reference_adam
import reference_training


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    # array_equal treats -0.0 and 0.0 as equal; the raw bits must match too
    assert np.array_equal(np.ascontiguousarray(actual).view(np.uint64), np.ascontiguousarray(expected).view(np.uint64))


def random_windows(rng, n, steps):
    inputs = rng.uniform(size=(n, steps))
    targets = rng.uniform(size=n)
    return SequenceBatch(inputs=inputs, targets=targets, origin_indices=np.arange(n) + steps)


def train_and_record_state(model, windows, config, monkeypatch):
    """``train``'s result plus the optimizer state its last Adam step updated."""
    states = []
    real_step = training.adam_step

    def record(*args, **kwargs):
        result = real_step(*args, **kwargs)
        states.append(args[2])
        return result

    monkeypatch.setattr(training, "adam_step", record)
    trained, report = train(model, windows, config)
    return trained, report, states[-1]


def check_against_frozen_loop(model, windows, config, monkeypatch):
    p, m, v, steps, train_losses, val_losses = reference_training.train(model, windows, config)
    trained, report, state = train_and_record_state(model, windows, config, monkeypatch)
    assert_same_bits(trained.vector, p)
    assert_same_bits(state.m, m)
    assert_same_bits(state.v, v)
    assert state.step == steps
    assert report.train_losses == train_losses
    assert report.val_losses == val_losses


# 23 windows keep 21 for gradients (a short last batch of 1 at batch 4); 21 keep 19 (a short batch of 3)
@pytest.mark.parametrize("n_windows, short", [(23, 1), (21, 3)])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
def test_train_matches_frozen_per_batch_loop(kind, layers, n_windows, short, rng, monkeypatch):
    config = TrainConfig(batch_size=4, epochs=2, shuffle_seed=layers)
    n_train = n_windows - int(n_windows * config.validation_fraction)
    assert n_train % config.batch_size == short
    model = init_params(ArchSpec(kind, layers=layers, hidden_units=3), seed=10 * layers + short)
    check_against_frozen_loop(model, random_windows(rng, n_windows, steps=5), config, monkeypatch)


def test_train_matches_frozen_loop_at_paper_shapes(rng, monkeypatch):
    # three batches of 32, 32 and 26 windows of 60 steps, no validation tail
    config = TrainConfig(batch_size=32, epochs=1, shuffle_seed=3, validation_fraction=0.0)
    model = init_params(ArchSpec("bilstm", layers=2, hidden_units=100), seed=5)
    check_against_frozen_loop(model, random_windows(rng, 90, steps=60), config, monkeypatch)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_train_matches_frozen_loop_when_one_batch_holds_every_window(kind, rng, monkeypatch):
    config = TrainConfig(batch_size=32, epochs=3, shuffle_seed=1)
    model = init_params(ArchSpec(kind, layers=2, hidden_units=4), seed=2)
    check_against_frozen_loop(model, random_windows(rng, 12, steps=6), config, monkeypatch)


@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
def test_train_leaves_the_callers_model_alone(kind, rng):
    model = init_params(ArchSpec(kind, layers=2, hidden_units=3), seed=4)
    saved = model.vector.copy()
    trained, _ = train(model, random_windows(rng, 21, steps=5), TrainConfig(batch_size=4, epochs=2))
    assert_same_bits(model.vector, saved)
    assert not np.array_equal(trained.vector, saved)
    assert not np.shares_memory(trained.vector, model.vector)
    for a, b in zip(trained.flat(), model.flat()):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
def test_adam_step_in_place_equals_pure(kind, rng):
    """``adam_step`` returns nothing and leaves the frozen pure step's bits in the ``params`` and ``state`` passed."""
    model = init_params(ArchSpec(kind, layers=2, hidden_units=8), seed=1)
    config = TrainConfig(learning_rate=0.01)
    ref_p = model.flat()
    ref_m, ref_v = [np.zeros_like(a) for a in ref_p], [np.zeros_like(a) for a in ref_p]
    own_model, own_state = model.copy(), OptimizerState.zeros(model)
    vectors = own_model.vector, own_state.m, own_state.v
    for step in range(4):
        g = rng.normal(size=model.vector.size) * 10.0 ** rng.integers(-6, 3, size=model.vector.size)
        g[rng.random(g.size) < 0.05] = 0.0
        grads = ModelParams(model.arch, g.copy(), model.seed)
        ref_p, ref_m, ref_v = reference_adam.adam_step(ref_p, grads.flat(), ref_m, ref_v, step, config)
        assert adam_step(own_model, grads, own_state, config) is None
        assert all(a is b for a, b in zip(vectors, (own_model.vector, own_state.m, own_state.v)))
        for actual, expected in zip(vectors, (ref_p, ref_m, ref_v)):
            assert_same_bits(actual, np.concatenate([a.ravel() for a in expected]))
        assert own_state.step == step + 1
        assert_same_bits(grads.vector, g)  # the gradient is read, never written


@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
def test_workspace_batches_match_default_calls_across_batch_sizes(kind, rng):
    model = init_params(ArchSpec(kind, layers=3, hidden_units=4), seed=6)
    tape, tapes = None, []  # tapes: each batch's layer_tapes
    for batch in (5, 2, 1, 5):  # full, short, shorter, full again
        windows = rng.uniform(size=(batch, 7))
        d_preds = rng.normal(size=batch)
        previous = tape
        preds, tape = forward_batch(model, windows, workspace=tape)
        assert previous is None or tape is previous
        if tapes:  # the previous batch (another size) no longer holds its inputs
            assert all(cell_tape.x is None for layer_tape in tapes[-1] for cell_tape in layer_tape)
        grads = backward_batch(model, tape, d_preds)
        want_preds, want_tape = forward_batch(model, windows)
        assert_same_bits(preds, want_preds)
        for layer_tape, want_layer in zip(tape.layer_tapes, want_tape.layer_tapes):
            for cell_tape, want_cell in zip(layer_tape, want_layer):
                assert_same_bits(cell_tape.h, want_cell.h)
                assert_same_bits(cell_tape.s, want_cell.s)
        assert grads is tape.grads
        assert_same_bits(grads.vector, backward_batch(model, want_tape, d_preds).vector)
        tapes.append(tape.layer_tapes)
    # each batch's tape reuses the first batch's memory: no tape outlives its batch
    first = tapes[0][0][0]
    for layer_tapes in tapes[1:]:
        assert np.shares_memory(layer_tapes[0][0].s, first.s)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_kernel_workspace_rejects_other_shapes_and_reuses_its_backward(kind, rng):
    cell_work = {"lstm": cells.LstmWork, "gru": cells.GruWork}[kind]
    forward, backward = getattr(cells, f"{kind}_forward"), getattr(cells, f"{kind}_backward")
    model = init_params(ArchSpec(kind, layers=1, hidden_units=3), seed=0)
    params = model.layers[0][0]
    work = cell_work(4, 2, 1, 3)
    with pytest.raises(ValueError, match="workspace"):
        forward(params, rng.uniform(size=(4, 3, 1)), workspace=work)
    with pytest.raises(ValueError, match="workspace"):
        forward(params, rng.uniform(size=(4, 2, 1)), store_tape=False, workspace=work)
    for _ in range(2):  # the second pass overwrites the first in the same buffers
        x, dh = rng.uniform(size=(4, 2, 1)), rng.normal(size=(4, 2, 3))
        _, tape = forward(params, x, workspace=work)
        assert tape is work and tape.x is x
        grad, dx = backward(params, tape, dh)
        assert grad is work.grad and dx is work.dx
        _, fresh = forward(params, x)
        assert fresh is not work and not np.shares_memory(fresh.grad.w, work.grad.w)
        want_grad, want_dx = backward(params, fresh, dh)
        for got, want in zip(grad.arrays(), want_grad.arrays()):
            assert_same_bits(got, want)
        assert_same_bits(dx, want_dx)


@pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
@pytest.mark.parametrize("sizes", [(4, 4), (4, 3), (2, 5)])  # the second batch as large, smaller, larger
def test_tape_passed_back_is_overwritten_and_equals_default_calls(kind, sizes, rng):
    model = init_params(ArchSpec(kind, layers=2, hidden_units=3), seed=8)
    _, tape = forward_batch(model, rng.uniform(size=(sizes[0], 6)))
    backward_batch(model, tape, rng.normal(size=sizes[0]))
    windows, d_preds = rng.uniform(size=(sizes[1], 6)), rng.normal(size=sizes[1])
    preds, again = forward_batch(model, windows, workspace=tape)
    assert again is tape
    grads = backward_batch(model, tape, d_preds)
    assert grads is tape.grads
    want_preds, want_tape = forward_batch(model, windows)
    assert want_tape is not tape and not np.shares_memory(want_tape.grads.vector, tape.grads.vector)
    assert_same_bits(preds, want_preds)
    assert_same_bits(tape.final, want_tape.final)
    assert_same_bits(grads.vector, backward_batch(model, want_tape, d_preds).vector)


def test_workspace_must_be_a_forward_batch_tape_of_the_same_architecture(rng):
    model = init_params(ArchSpec("lstm", layers=2, hidden_units=3), seed=1)
    windows, d_preds = rng.uniform(size=(2, 5)), rng.normal(size=2)
    _, tape = forward_batch(model, windows)
    hand_built = ModelTape(x=tape.x, layer_tapes=tape.layer_tapes, final=tape.final, grads=tape.grads)
    others = [init_params(ArchSpec(kind, layers=2, hidden_units=h), seed=1) for kind, h in (("gru", 3), ("lstm", 4))]
    rejected = [(model, hand_built, True), (others[0], tape, True), (others[1], tape, True), (model, tape, False)]
    for owner, workspace, store_tape in rejected:
        with pytest.raises(ValueError, match="workspace must be a tape"):
            forward_batch(owner, windows, store_tape, workspace=workspace)
    # the rejected calls left the tape as it was
    _, want_tape = forward_batch(model, windows)
    assert_same_bits(backward_batch(model, tape, d_preds).vector, backward_batch(model, want_tape, d_preds).vector)
    _, again = forward_batch(model, windows, workspace=tape)
    assert again is tape


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_second_backward_on_a_kernel_tape_overwrites_the_first(kind, rng):
    forward, backward = getattr(cells, f"{kind}_forward"), getattr(cells, f"{kind}_backward")
    params = init_params(ArchSpec(kind, layers=1, hidden_units=3), seed=2).layers[0][0]
    x = rng.uniform(size=(5, 2, 1))
    _, tape = forward(params, x)
    first_dh, second_dh = rng.normal(size=(5, 2, 3)), rng.normal(size=(5, 2, 3))
    grad, dx = backward(params, tape, first_dh)
    kept = grad.w.copy()
    grad2, dx2 = backward(params, tape, second_dh)
    assert grad2 is grad and dx2 is dx and not np.array_equal(grad.w, kept)
    _, fresh = forward(params, x)
    want_grad, want_dx = backward(params, fresh, second_dh)
    for got, want in zip(grad.arrays(), want_grad.arrays()):
        assert_same_bits(got, want)
    assert_same_bits(dx, want_dx)
