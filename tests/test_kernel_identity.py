"""Workspace sequence kernels against the frozen reference kernels, bit for bit.

``cells.lstm_forward`` / ``gru_forward`` write activations straight into
the tape and the backward kernels hoist tape-only factors out of the time
loop in blocks; both must still produce exactly the bits of the plain
kernels in ``reference_kernels``.  Shapes cover single steps, single
rows, single units, input width different from hidden width, window
lengths at and around a hoisting-block boundary and an input-projection
block boundary, paper shapes, and the scoring chunks of
``metrics.predict_batch``.
"""

import numpy as np
import pytest

from cryptoforecast import cells
from cryptoforecast.cells import CellParams

import reference_kernels as ref
from same_bits import assert_same_bits

GATES = {"lstm": 4, "gru": 3}
TAPE_FIELDS = {"lstm": ("x", "s", "g", "c", "tc", "h"), "gru": ("x", "s", "n", "rh", "h")}


def kernels(module, kind):
    return getattr(module, f"{kind}_forward"), getattr(module, f"{kind}_backward")


def block_len(kind, batch, hidden, steps=64):
    """Steps per backward hoisting block of a ``steps``-step workspace: the steps of its first block."""
    _, views = work_class(kind)(steps, batch, 1, hidden).back_blocks[0]
    return len(views)


def projection_block_len(kind, batch, hidden):
    return cells._projection_block_len(10**9, batch, GATES[kind] * hidden)


def make_params(rng, kind, inp, hidden):
    rows = GATES[kind] * hidden
    return CellParams(
        w=rng.normal(scale=0.6, size=(rows, inp)),
        u=rng.normal(scale=0.6, size=(rows, hidden)),
        b=rng.normal(scale=0.3, size=rows),
    )


def dh_patterns(rng, steps, batch, hidden):
    dense = rng.normal(size=(steps, batch, hidden))
    last_only = np.zeros((steps, batch, hidden))  # as network.backward_batch feeds the top layer
    last_only[-1] = rng.normal(size=(batch, hidden))
    return {"dense": dense, "last_only": last_only}


def assert_tape_matches(kind, tape, tape_ref):
    """Every tape array bit for bit; the workspace keeps the sigmoid gates ``s`` gate-major, (T, G-1, B, H)."""
    for name in TAPE_FIELDS[kind]:
        want = getattr(tape_ref, name)
        assert_same_bits(getattr(tape, name), cells._gate_major(want, GATES[kind] - 1) if name == "s" else want)


def check_forward(rng, kind, steps, batch, inp, hidden):
    """Both ``store_tape`` values against the reference; returns what backward needs."""
    params = make_params(rng, kind, inp, hidden)
    x = rng.normal(size=(steps, batch, inp))
    forward, _ = kernels(cells, kind)
    ref_forward, _ = kernels(ref, kind)

    h_ref, tape_ref = ref_forward(params, x)
    h_seq, tape = forward(params, x)
    h_notape, no_tape = forward(params, x, store_tape=False)
    assert no_tape is None
    assert_same_bits(h_seq, h_ref)
    assert_same_bits(h_notape, h_ref)
    assert_tape_matches(kind, tape, tape_ref)
    return params, tape, tape_ref


def check_kind(rng, kind, steps, batch, inp, hidden):
    params, tape, tape_ref = check_forward(rng, kind, steps, batch, inp, hidden)
    _, backward = kernels(cells, kind)
    _, ref_backward = kernels(ref, kind)

    for dh_seq in dh_patterns(rng, steps, batch, hidden).values():
        grads, dx = backward(params, tape, dh_seq)
        grads_ref, dx_ref = ref_backward(params, tape_ref, dh_seq)
        for got, want in zip(grads.arrays(), grads_ref.arrays()):
            assert_same_bits(got, want)
        assert_same_bits(dx, dx_ref)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize(
    "steps,batch,inp,hidden",
    [
        (1, 1, 1, 1),  # one step, one row, one unit
        (1, 8, 1, 8),
        (7, 1, 3, 1),  # B=1, H=1, D != H
        (11, 3, 5, 2),
        (20, 8, 1, 8),  # quick.cfg first layer
        (20, 8, 8, 8),  # quick.cfg second layer
        (20, 8, 16, 8),  # quick.cfg Bi-LSTM second layer
        (7, 8, 2, 64),  # several blocks of 2 steps, remainder at the start
    ],
)
def test_matches_reference(rng, kind, steps, batch, inp, hidden):
    check_kind(rng, kind, steps, batch, inp, hidden)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_matches_reference_around_block_boundary(rng, kind):
    block = block_len(kind, 8, 8)
    assert 1 < block < 64
    for steps in (block - 1, block, block + 1, 2 * block, 2 * block + 1):
        check_kind(rng, kind, steps, 8, 1, 8)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_matches_reference_at_paper_shapes(rng, kind):
    assert block_len(kind, 32, 100) == 1
    check_kind(rng, kind, 60, 32, 1, 100)  # first layer
    check_kind(rng, kind, 60, 32, 100, 100)  # second layer


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_matches_reference_around_projection_block_boundary(rng, kind):
    block = projection_block_len(kind, 8, 32)
    assert 1 < block < 60
    for steps in (block - 1, block, block + 1, 2 * block + 1):
        check_kind(rng, kind, steps, 8, 3, 32)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_single_sequence_matches_reference_past_a_block(rng, kind):
    """With one sequence a one-step block would be a one-row product; the window stays whole."""
    block = cells._block_len(10**9, GATES[kind] * 100)
    assert 1 < block < 60
    for steps in (block + 1, 2 * block + 1):
        check_kind(rng, kind, steps, 1, 100, 100)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("inp", [1, 100, 200])  # layer 1, layer 2, Bi-LSTM layer 2
def test_forward_matches_reference_at_scoring_shapes(rng, kind, inp):
    """metrics.predict_batch chunks of 128 windows and a 110-window tail chunk, and the 256-window chunks
    it ran before: the product at each batch must round as the reference's does."""
    assert projection_block_len(kind, 110, 100) == 1
    for batch in (256, 128, 110):
        check_forward(rng, kind, 60, batch, inp, 100)


def snapshot(*arrays):
    return [a.copy() for a in arrays]


def assert_unchanged(arrays, saved):
    for a, s in zip(arrays, saved):
        assert_same_bits(a, s)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("store_tape", [True, False])
def test_consecutive_forwards_are_independent(rng, kind, store_tape):
    """A second call must not write into the first call's outputs or tape."""
    forward, _ = kernels(cells, kind)
    params = make_params(rng, kind, 2, 4)
    x1 = rng.normal(size=(6, 3, 2))
    x2 = rng.normal(size=(6, 3, 2))
    h1, tape1 = forward(params, x1, store_tape)
    first = [h1] + ([getattr(tape1, n) for n in TAPE_FIELDS[kind]] if store_tape else [])
    saved = snapshot(*first)
    saved_x2 = x2.copy()
    h2, tape2 = forward(params, x2, store_tape)
    assert_unchanged(first, saved)
    assert_same_bits(x2, saved_x2)
    assert not np.shares_memory(h1, h2)
    if store_tape:
        for name in TAPE_FIELDS[kind][1:]:
            assert not np.shares_memory(getattr(tape1, name), getattr(tape2, name))


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_consecutive_backwards_are_independent(rng, kind):
    """Backward leaves its tape and dh_seq alone and never reuses a previous call's outputs."""
    forward, backward = kernels(cells, kind)
    params = make_params(rng, kind, 2, 4)
    _, tape1 = forward(params, rng.normal(size=(6, 3, 2)))
    _, tape2 = forward(params, rng.normal(size=(6, 3, 2)))
    dh1, dh2 = rng.normal(size=(2, 6, 3, 4))
    tape_arrays = [getattr(tape1, n) for n in TAPE_FIELDS[kind]]
    saved_tape = snapshot(*tape_arrays, dh1)

    grads1, dx1 = backward(params, tape1, dh1)
    assert_unchanged(tape_arrays + [dh1], saved_tape)
    first = list(grads1.arrays()) + [dx1]
    saved = snapshot(*first)
    grads2, dx2 = backward(params, tape2, dh2)
    assert_unchanged(first, saved)
    for a, b in zip(first, list(grads2.arrays()) + [dx2]):
        assert not np.shares_memory(a, b)


def work_class(kind):
    return cells.LstmWork if kind == "lstm" else cells.GruWork


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("store_tape", [True, False])
def test_forward_steps_work_on_contiguous_gate_planes(kind, store_tape):
    """The sigmoid gates are kept gate-major, so every array a forward step reads or writes is C-contiguous."""
    steps, batch, hidden = 5, 3, 4
    work = work_class(kind)(steps, batch, 2, hidden, store_tape)
    assert work.s.shape == (steps if store_tape else 1, GATES[kind] - 1, batch, hidden)
    step_views = [view for *_, views in work.blocks for step in views for view in step]
    assert step_views and all(view.flags.c_contiguous for view in step_views)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize(
    "steps,batch,inp,hidden",
    [
        (1, 1, 1, 1),
        (7, 1, 1, 4),  # B=1: one block of the whole window, a reversed view that reshapes without a copy
        (7, 1, 3, 2),  # B=1, D > 1
        (7, 8, 2, 64),  # blocks of 3-4 steps, each copied contiguous from the view, remainder at the end of the walk
        (20, 8, 8, 8),  # quick.cfg second layer: one block of every step
        (60, 32, 100, 100),  # paper shapes: one step per block, no copy
    ],
)
def test_reversed_walk_matches_reference_on_reversed_input(rng, kind, steps, batch, inp, hidden):
    """Direction 1 is the kernel run on reversed views: the reference kernel on a reversed copy, bit for bit."""
    params = make_params(rng, kind, inp, hidden)
    x = rng.normal(size=(steps, batch, inp))
    saved_x = x.copy()
    forward, backward = kernels(cells, kind)
    ref_forward, ref_backward = kernels(ref, kind)
    h_ref, tape_ref = ref_forward(params, np.ascontiguousarray(x[::-1]))

    # the hidden sequence in time order, written through a reversed view into one half of a wider layer buffer
    layer = np.full((steps, batch, 2 * hidden), np.nan)
    work = work_class(kind)(steps, batch, inp, hidden, False, out=layer[:, :, hidden:][::-1])
    h_seq, tape = forward(params, x[::-1], False, workspace=work)
    assert tape is None and np.shares_memory(h_seq, layer)
    assert_same_bits(layer[:, :, hidden:], h_ref[::-1])
    assert np.isnan(layer[:, :, :hidden]).all()

    # one row keeps only the last walked step
    last = np.empty((1, batch, hidden))
    forward(params, x[::-1], False, workspace=work_class(kind)(steps, batch, inp, hidden, False, out=last))
    assert_same_bits(last[0], h_ref[-1])

    # a tape in walk order over the view itself: the reference's tape arrays, gradients and dx
    _, tape = forward(params, x[::-1])
    assert np.shares_memory(tape.x, x)
    assert_tape_matches(kind, tape, tape_ref)
    for dh_seq in dh_patterns(rng, steps, batch, hidden).values():
        grads, dx = backward(params, tape, dh_seq)
        grads_ref, dx_ref = ref_backward(params, tape_ref, dh_seq)
        for got, want in zip(grads.arrays(), grads_ref.arrays()):
            assert_same_bits(got, want)
        assert_same_bits(dx, dx_ref)
    assert_same_bits(x, saved_x)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_a_tape_is_not_written_elsewhere(kind):
    with pytest.raises(ValueError, match="tape-free"):
        work_class(kind)(3, 2, 1, 4, True, out=np.empty((3, 2, 4)))
