"""One parameter vector per model, and the blocked Adam update over it.

Every ``ModelParams`` array is a view of ``model.vector``; ``adam_step``
updates the vectors in place, a block at a time, and must give exactly the bits of
the per-array update frozen in ``reference_adam``, at quick and paper
shapes, over several steps, and at vector lengths around the block size.
"""

import numpy as np
import pytest

from cryptoforecast import cells
from cryptoforecast.network import (
    ArchSpec,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
    model_from_dict,
    model_to_dict,
)
from cryptoforecast.training import OptimizerState, TrainConfig, adam_step

import reference_adam
from same_bits import assert_same_bits

KINDS = ("lstm", "gru", "bilstm")
SHAPES = {"quick": dict(hidden_units=8), "paper": dict(hidden_units=100)}
ADAM_BLOCK = cells._HOIST_BYTES // 8  # floats per block of the vector update


def random_grads(rng, model):
    """Gradients of mixed scale, with exact zeros, as a vector-backed ModelParams."""
    g = rng.normal(size=model.vector.size) * 10.0 ** rng.integers(-6, 3, size=model.vector.size)
    g[rng.random(model.vector.size) < 0.05] = 0.0
    return ModelParams(model.arch, g, model.seed)


def check_against_oracle(model, steps, rng, config=TrainConfig()):
    ref_p = model.flat()
    ref_m = [np.zeros_like(a) for a in ref_p]
    ref_v = [np.zeros_like(a) for a in ref_p]
    model, state = model.copy(), OptimizerState.zeros(model)  # stepped in place; ref_p keeps the original arrays
    for step in range(steps):
        grads = random_grads(rng, model)
        ref_p, ref_m, ref_v = reference_adam.adam_step(ref_p, grads.flat(), ref_m, ref_v, step, config)
        adam_step(model, grads, state, config)
        assert state.step == step + 1
        for actual, expected in zip(model.flat(), ref_p):
            assert_same_bits(actual, expected)
        assert_same_bits(state.m, np.concatenate([a.ravel() for a in ref_m]))
        assert_same_bits(state.v, np.concatenate([a.ravel() for a in ref_v]))


def arch_of_size(n):
    """A small architecture whose parameter vector has exactly ``n`` floats.

    The vector length grows linearly with ``input_dim``, so for each
    (kind, layers, hidden) it is solved for the input width.
    """
    for kind in KINDS:
        for layers in (1, 2):
            for hidden in range(1, 9):
                size = [ArchSpec(kind, layers, hidden, d).param_layout[-1][2].stop for d in (1, 2)]
                slope = size[1] - size[0]
                if n >= size[0] and (n - size[0]) % slope == 0:
                    return ArchSpec(kind, layers, hidden, 1 + (n - size[0]) // slope)
    raise AssertionError(f"no small architecture has {n} parameters")


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", KINDS)
def test_adam_matches_per_array_oracle(kind, shape):
    model = init_params(ArchSpec(kind, **SHAPES[shape]), seed=11)
    check_against_oracle(model, steps=3, rng=np.random.default_rng(5))


@pytest.mark.parametrize("n", [ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1, 2 * ADAM_BLOCK + 1])
def test_adam_matches_oracle_around_block_boundary(n):
    arch = arch_of_size(n)
    model = init_params(arch, seed=3)
    assert model.vector.size == n
    config = TrainConfig(learning_rate=0.01)
    check_against_oracle(model, steps=3, rng=np.random.default_rng(n), config=config)


@pytest.mark.parametrize("kind", KINDS)
def test_every_array_is_a_view_of_the_vector(kind, rng):
    model = init_params(ArchSpec(kind, hidden_units=3), seed=2)
    windows = rng.uniform(size=(4, 6))
    _, tape = forward_batch(model, windows)
    grads = backward_batch(model, tape, rng.normal(size=4))
    loaded = model_from_dict(model_to_dict(model))
    stepped = model.copy()
    adam_step(stepped, grads, OptimizerState.zeros(model), TrainConfig())
    derived = (model.copy(), ModelParams.zeros(model.arch, model.seed), stepped)
    for params in (model, grads, loaded) + derived:
        # writing the vector shows through every array, at its layout offsets
        params.vector[:] = np.arange(params.vector.size)
        for (name, shape, span), array in zip(params.arch.param_layout, params.flat()):
            assert np.shares_memory(array, params.vector), name
            assert array.shape == shape
            assert np.array_equal(array.ravel(), np.arange(span.start, span.stop)), name
    cells_ = [c for layer in model.layers for c in layer]
    arrays = [a for cell in cells_ for a in cell.arrays()] + [model.dense_w, model.dense_b]
    assert len(arrays) == len(model.flat())
    assert all(a is b for a, b in zip(arrays, model.flat()))
    with pytest.raises(ValueError):
        ModelParams(model.arch, np.zeros(model.vector.size + 1))


def test_copies_and_updates_share_no_memory(rng):
    model = init_params(ArchSpec("bilstm", hidden_units=4), seed=8)
    grads = random_grads(rng, model)
    state = OptimizerState(m=rng.normal(size=model.vector.size), v=rng.random(model.vector.size), step=4)
    inputs = (model.vector, grads.vector, state.m, state.v)
    before = [a.copy() for a in inputs]
    stepped, new_state = model.copy(), OptimizerState(m=state.m.copy(), v=state.v.copy(), step=state.step)
    adam_step(stepped, grads, new_state, TrainConfig())
    for out in (stepped.vector, new_state.m, new_state.v, model.copy().vector):
        assert not any(np.shares_memory(out, a) for a in inputs)
    for a, b in zip(inputs, before):
        assert_same_bits(a, b)  # stepping the copies leaves the originals and the gradient alone
    assert model.copy().seed == stepped.seed == 8


def test_locate_names_the_array_and_element():
    model = init_params(ArchSpec("bilstm", hidden_units=2), seed=0)
    layout = model.arch.param_layout
    for name, shape, span in layout:
        assert model.locate(span.start) == (name, (0,) * len(shape))
        assert model.locate(span.stop - 1) == (name, tuple(s - 1 for s in shape))
    name, (_, cols), span = layout[4]  # layers[0].bwd.u
    assert model.locate(span.start + cols + 1) == (name, (1, 1))
