"""Cell updates against closed forms and the standalone scalar oracle."""

import math

import numpy as np
import pytest

from cryptoforecast import cells
from cryptoforecast.cells import (
    GRU_GATE_ORDER,
    LSTM_GATE_ORDER,
    CellParams,
    CellState,
    gru_forward,
    gru_step,
    lstm_forward,
    lstm_step,
)

from scalar_oracles import gru_step_scalar, lstm_step_scalar


def scalar_lstm_params(weight: float) -> CellParams:
    return CellParams(w=np.full((4, 1), weight), u=np.full((4, 1), weight), b=np.zeros(4))


def scalar_gru_params(weight: float) -> CellParams:
    return CellParams(w=np.full((3, 1), weight), u=np.full((3, 1), weight), b=np.zeros(3))


def uniform_weights(gate_names, value: float) -> dict:
    out = {}
    for name in gate_names:
        out[f"w_{name}"] = value
        out[f"u_{name}"] = value
        out[f"b_{name}"] = 0.0
    return out


class TestLstmStepClosedForms:
    def test_zero_weights_zero_state(self):
        params = scalar_lstm_params(0.0)
        state = lstm_step(params, np.array([123.0]), CellState(h=np.zeros(1), c=np.zeros(1)))
        assert state.c[0] == 0.0
        assert state.h[0] == 0.0

    def test_zero_weights_carried_cell(self):
        # gates all sit at sigmoid(0)=0.5, so c halves and h = 0.5*tanh(c)
        params = scalar_lstm_params(0.0)
        state = lstm_step(params, np.array([7.0]), CellState(h=np.zeros(1), c=np.array([2.0])))
        assert abs(state.c[0] - 1.0) <= 1e-12
        assert abs(state.h[0] - 0.5 * math.tanh(1.0)) <= 1e-12

    def test_scalar_weights_match_oracle(self):
        params = scalar_lstm_params(0.1)
        state = lstm_step(params, np.array([1.0]), CellState(h=np.zeros(1), c=np.zeros(1)))
        h_ref, c_ref = lstm_step_scalar(uniform_weights(LSTM_GATE_ORDER, 0.1), x=1.0, h=0.0, c=0.0)
        assert abs(state.h[0] - h_ref) <= 1e-12
        assert abs(state.c[0] - c_ref) <= 1e-12

    def test_scalar_weights_nonzero_state_match_oracle(self):
        params = scalar_lstm_params(-0.3)
        state = lstm_step(params, np.array([0.8]), CellState(h=np.array([0.2]), c=np.array([-0.5])))
        h_ref, c_ref = lstm_step_scalar(uniform_weights(LSTM_GATE_ORDER, -0.3), x=0.8, h=0.2, c=-0.5)
        assert abs(state.h[0] - h_ref) <= 1e-12
        assert abs(state.c[0] - c_ref) <= 1e-12

    def test_shape_mismatch_rejected(self):
        params = scalar_lstm_params(0.1)
        with pytest.raises(ValueError):
            lstm_step(params, np.array([1.0, 2.0]), CellState(h=np.zeros(1), c=np.zeros(1)))
        with pytest.raises(ValueError):
            lstm_step(params, np.array([1.0]), CellState(h=np.zeros(2), c=np.zeros(2)))

    @pytest.mark.parametrize("params, state, message", [
        (CellParams(w=np.zeros((3, 1)), u=np.zeros((4, 1)), b=np.zeros(4)), CellState(np.zeros(1), np.zeros(1)),
         "fused gate rows inconsistent with hidden size"),
        (scalar_lstm_params(0.1), CellState(np.zeros(1)), "LSTM state requires a cell vector"),
        (scalar_lstm_params(0.1), CellState(np.zeros(1), np.zeros(2)), "hidden and cell vectors must have equal shape"),
    ], ids=["gate_rows", "no_cell", "cell_shape"])
    def test_inconsistent_params_or_state_rejected(self, params, state, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            lstm_step(params, np.array([1.0]), state)


class TestGruStepClosedForms:
    def test_zero_everything_is_fixed_point(self):
        params = scalar_gru_params(0.0)
        assert gru_step(params, np.array([55.0]), np.zeros(1))[0] == 0.0

    def test_zero_weights_halve_hidden(self):
        # u=0.5 and a zero candidate leave h at half its previous value
        params = scalar_gru_params(0.0)
        h = gru_step(params, np.array([9.0]), np.array([0.8]))
        assert abs(h[0] - 0.4) <= 1e-12

    def test_scalar_weights_match_oracle(self):
        params = scalar_gru_params(0.1)
        h = gru_step(params, np.array([1.0]), np.array([0.5]))
        ref = gru_step_scalar(uniform_weights(GRU_GATE_ORDER, 0.1), x=1.0, h=0.5)
        assert abs(h[0] - ref) <= 1e-12

    def test_reset_gate_applies_before_recurrent_product(self):
        # candidate must see r*h, not h: make the reset gate tiny and check
        # the candidate is almost x-only
        w = np.zeros((3, 1))
        u = np.zeros((3, 1))
        b = np.array([0.0, -40.0, 0.0])  # r ~ 0
        params = CellParams(w=w, u=np.array([[0.0], [0.0], [5.0]]), b=b)
        h = gru_step(params, np.array([0.0]), np.array([0.9]))
        # u=0.5, candidate=tanh(5 * r * 0.9) ~ tanh(0) -> h ~ 0.45
        assert abs(h[0] - 0.45) < 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gru_step(scalar_gru_params(0.1), np.array([1.0]), np.zeros(3))


class TestSequenceKernelsAgreeWithSteps:
    """The batched kernels must reproduce the per-step reference exactly."""

    def test_lstm_sequence_matches_repeated_steps(self, rng):
        hidden, dim, steps = 5, 3, 11
        params = CellParams(
            w=rng.normal(scale=0.4, size=(4 * hidden, dim)),
            u=rng.normal(scale=0.4, size=(4 * hidden, hidden)),
            b=rng.normal(scale=0.2, size=4 * hidden),
        )
        x = rng.normal(size=(steps, 1, dim))
        h_seq, _ = lstm_forward(params, x)
        state = CellState(h=np.zeros(hidden), c=np.zeros(hidden))
        for t in range(steps):
            state = lstm_step(params, x[t, 0], state)
            np.testing.assert_allclose(h_seq[t, 0], state.h, rtol=0, atol=1e-12)

    def test_gru_sequence_matches_repeated_steps(self, rng):
        hidden, dim, steps = 4, 2, 9
        params = CellParams(
            w=rng.normal(scale=0.4, size=(3 * hidden, dim)),
            u=rng.normal(scale=0.4, size=(3 * hidden, hidden)),
            b=rng.normal(scale=0.2, size=3 * hidden),
        )
        x = rng.normal(size=(steps, 1, dim))
        h_seq, _ = gru_forward(params, x)
        h = np.zeros(hidden)
        for t in range(steps):
            h = gru_step(params, x[t, 0], h)
            np.testing.assert_allclose(h_seq[t, 0], h, rtol=0, atol=1e-12)

    def test_batched_rows_independent(self, rng):
        hidden = 4
        params = CellParams(
            w=rng.normal(scale=0.4, size=(4 * hidden, 1)),
            u=rng.normal(scale=0.4, size=(4 * hidden, hidden)),
            b=np.zeros(4 * hidden),
        )
        x = rng.normal(size=(7, 3, 1))
        together, _ = lstm_forward(params, x)
        for b in range(3):
            alone, _ = lstm_forward(params, np.ascontiguousarray(x[:, b : b + 1, :]))
            np.testing.assert_array_equal(together[:, b, :], alone[:, 0, :])


class TestBoundednessProperties:
    def test_lstm_hidden_strictly_inside_unit_box(self, rng):
        for trial in range(20):
            hidden = int(rng.integers(1, 8))
            params = CellParams(
                w=rng.normal(scale=1.5, size=(4 * hidden, 1)),
                u=rng.normal(scale=1.5, size=(4 * hidden, hidden)),
                b=rng.normal(scale=0.5, size=4 * hidden),
            )
            state = CellState(h=np.zeros(hidden), c=np.zeros(hidden))
            for t in range(30):
                prev_c = state.c
                state = lstm_step(params, rng.normal(size=1), state)
                assert np.all(np.abs(state.h) < 1.0)
                # forget/input gates in (0,1) and |tanh|<=1 bound cell growth
                assert np.all(np.abs(state.c) <= np.abs(prev_c) + 1.0 + 1e-15)

    def test_gru_contraction_envelope(self, rng):
        for trial in range(20):
            hidden = int(rng.integers(1, 8))
            params = CellParams(
                w=rng.normal(scale=1.5, size=(3 * hidden, 1)),
                u=rng.normal(scale=1.5, size=(3 * hidden, hidden)),
                b=rng.normal(scale=0.5, size=3 * hidden),
            )
            h = rng.uniform(-1.0, 1.0, size=hidden)
            for t in range(30):
                h = gru_step(params, rng.normal(size=1), h)
                assert np.all(np.abs(h) <= 1.0)


@pytest.mark.parametrize("kind, gates", [("lstm", 4), ("gru", 3)])
def test_kernels_never_write_into_params(kind, gates, rng):
    # the forward kernels negate the sigmoid gates in their own buffers, never in the caller's weights
    forward, backward = getattr(cells, f"{kind}_forward"), getattr(cells, f"{kind}_backward")
    work = {"lstm": cells.LstmWork, "gru": cells.GruWork}[kind]
    hidden, dim, steps, batch = 3, 2, 6, 4
    params = CellParams(
        w=rng.normal(size=(gates * hidden, dim)),
        u=rng.normal(size=(gates * hidden, hidden)),
        b=rng.normal(size=gates * hidden),
    )
    params.b[0] = -0.0  # a negated copy written back would flip its sign bit
    before = [array.tobytes() for array in params.arrays()]
    x = rng.normal(size=(steps, batch, dim))
    _, tape = forward(params, x)
    forward(params, x, store_tape=False)
    forward(params, x[::-1], False, workspace=work(steps, batch, dim, hidden, False))
    forward(params, x[::-1])
    backward(params, tape, rng.normal(size=(steps, batch, hidden)))
    assert [array.tobytes() for array in params.arrays()] == before


@pytest.mark.parametrize("kind, gates", [("lstm", 4), ("gru", 3)])
def test_kernel_steps_skip_the_dispatched_numpy_calls(kind, gates, rng, monkeypatch):
    # np.dot and np.copyto pass numpy's Python-level __array_function__ dispatcher on every call,
    # so the time loops take ndarray.dot and slice assignment: no step adds a call to either
    forward, backward = getattr(cells, f"{kind}_forward"), getattr(cells, f"{kind}_backward")
    hidden, dim, batch = 8, 1, 8
    params = CellParams(
        w=rng.normal(size=(gates * hidden, dim)),
        u=rng.normal(size=(gates * hidden, hidden)),
        b=rng.normal(size=gates * hidden),
    )
    counts = {}
    for name in ("dot", "copyto"):
        def counting(*args, _call=getattr(np, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)

    def calls(steps):
        x = rng.normal(size=(steps, batch, dim))
        counts.update(dot=0, copyto=0)
        _, tape = forward(params, x)
        forward(params, x, store_tape=False)
        backward(params, tape, rng.normal(size=(steps, batch, hidden)))
        return dict(counts)

    assert calls(2) == calls(20)
