"""Loss, Adam updates, and the training loop's contracts."""

import re

import numpy as np
import pytest

from cryptoforecast import training
from cryptoforecast.errors import DivergenceError, InsufficientDataError, PoisonedUpdateError
from cryptoforecast.network import ArchSpec, ModelParams, init_params
from cryptoforecast.preprocess import SequenceBatch, fit_scaler, make_windows, transform
from cryptoforecast.training import OptimizerState, TrainConfig, adam_step, mse_loss, train


def sine_windows(n_points=300, lookback=10, period=40.0):
    t = np.arange(n_points)
    values = 100.0 + 10.0 * np.sin(2.0 * np.pi * t / period)
    scaler = fit_scaler(values)
    return make_windows(transform(scaler, values), lookback)


class TestMseLoss:
    def test_identity(self):
        assert mse_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert abs(mse_loss([0.5, 2.0, 5.0], [1.0, 2.0, 4.0]) - 0.416667) <= 1e-6

    def test_single_unit_residual(self):
        assert mse_loss([0.0], [1.0]) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse_loss([], [])


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 32
        assert cfg.epochs == 100
        assert cfg.learning_rate == 0.001
        assert (cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon) == (0.9, 0.999, 1e-8)
        with pytest.raises(TypeError):  # fixed for every run, not fields a caller sets
            TrainConfig(adam_beta1=0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=0.5)

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            # inf and nan reached training, which blamed the gradient: PoisonedUpdateError at batch 2
            ("learning_rate", float("inf"), ValueError, "learning_rate must be finite and > 0, got inf"),
            ("learning_rate", float("nan"), ValueError, "learning_rate must be finite and > 0, got nan"),
            ("learning_rate", True, TypeError, "learning_rate must be a number, got bool"),
            ("batch_size", 2.5, TypeError, "batch_size must be an integer, got float"),  # a bare TypeError in train
            ("epochs", True, TypeError, "epochs must be an integer, got bool"),  # was accepted as one epoch
            ("epochs", 0, ValueError, "epochs must be >= 1, got 0"),
            ("validation_fraction", float("nan"), ValueError, "validation_fraction must be in [0, 0.5), got nan"),
            ("validation_fraction", "0.1", TypeError, "validation_fraction must be a number, got str"),
            ("shuffle_seed", -3, ValueError, "shuffle_seed must be >= 0, got -3"),  # numpy's own message in train
        ],
    )
    def test_rejects_what_a_library_caller_can_pass(self, field, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            TrainConfig(**{field: value})

    def test_accepts_ints_and_numpy_floats_as_numbers(self):
        config = TrainConfig(learning_rate=np.float64(0.01), validation_fraction=0)
        assert (config.learning_rate, config.validation_fraction) == (0.01, 0)


def stepped(model, grads, state, config):
    """Copies of ``model`` and ``state`` after ``adam_step`` updated them in place."""
    model, state = model.copy(), OptimizerState(m=state.m.copy(), v=state.v.copy(), step=state.step)
    assert adam_step(model, grads, state, config) is None
    return model, state


class TestAdamStep:
    @pytest.fixture
    def setup(self):
        model = init_params(ArchSpec("lstm", hidden_units=3), seed=0)
        return model, OptimizerState.zeros(model), TrainConfig()

    def test_zero_gradient_is_fixed_point(self, setup):
        model, state, cfg = setup
        new_model, new_state = stepped(model, ModelParams.zeros(model.arch), state, cfg)
        for a, b in zip(model.flat(), new_model.flat()):
            assert np.array_equal(a, b)
        assert new_state.step == 1
        assert np.all(new_state.m == 0.0)

    def test_first_step_is_learning_rate_sized(self, setup):
        # bias correction makes the first update lr*g/(|g|+eps) ~ lr at any scale
        model, state, cfg = setup
        for scale in (1e-6, 1.0, 1e6):
            grads = ModelParams(model.arch, np.full(model.vector.size, scale))
            new_model, _ = stepped(model, grads, state, cfg)
            expect = cfg.learning_rate * scale / (scale + cfg.adam_epsilon)
            for a, b in zip(model.flat(), new_model.flat()):
                np.testing.assert_allclose(a - b, expect, rtol=1e-12)
            np.testing.assert_allclose(expect, cfg.learning_rate, rtol=1.1e-2)

    def test_bias_corrected_recurrence_hand_check(self, setup):
        model, state, cfg = setup
        g = 0.25
        grads = ModelParams(model.arch, np.full(model.vector.size, g))
        new_model, st1 = stepped(model, grads, state, cfg)
        # by hand: m=0.1*0.25/(1-0.9)=0.25 ; v=0.001*0.0625/(1-0.999)=0.0625
        expect = cfg.learning_rate * 0.25 / (np.sqrt(0.0625) + cfg.adam_epsilon)
        delta = model.flat()[0] - new_model.flat()[0]
        np.testing.assert_allclose(delta, expect, rtol=1e-12)
        assert st1.step == 1

    def test_deterministic(self, setup):
        model, state, cfg = setup
        grads = ModelParams(model.arch, np.full(model.vector.size, 0.1))
        a1, s1 = stepped(model, grads, state, cfg)
        a2, s2 = stepped(model, grads, state, cfg)
        for x, y in zip(a1.flat(), a2.flat()):
            assert np.array_equal(x, y)
        assert np.array_equal(s1.v, s2.v)

    def test_non_finite_gradient_poisons(self, setup):
        model, state, cfg = setup
        grads = ModelParams.zeros(model.arch)
        grads.flat()[0].flat[0] = np.nan
        before = model.vector.copy()
        with pytest.raises(PoisonedUpdateError):
            adam_step(model, grads, state, cfg)
        # raised before any update: the parameters and the state are as they were
        assert np.array_equal(model.vector, before) and state.step == 0
        assert not state.m.any() and not state.v.any()

    def test_poisoned_update_names_first_non_finite_array(self, setup):
        model, state, cfg = setup
        grads = ModelParams.zeros(model.arch)
        names = [name for name, *_ in model.arch.param_layout]
        grads.flat()[names.index("dense_b")][0] = np.nan
        grads.flat()[names.index("layers[1].u")][2, 1] = -np.inf
        with pytest.raises(PoisonedUpdateError) as exc_info:
            adam_step(model, grads, state, cfg)
        assert exc_info.value.array == "layers[1].u"
        assert (exc_info.value.epoch, exc_info.value.batch) == (None, None)
        assert "layers[1].u" in str(exc_info.value)

    def test_shape_mismatch_rejected(self, setup):
        model, state, cfg = setup
        other = init_params(ArchSpec("lstm", hidden_units=4), seed=0)
        with pytest.raises(ValueError):
            adam_step(model, ModelParams.zeros(other.arch), state, cfg)


class TestTrainLoop:
    def test_loss_drops_on_sine(self):
        windows = sine_windows()
        model = init_params(ArchSpec("lstm", hidden_units=8), seed=42)
        cfg = TrainConfig(epochs=40, batch_size=32, shuffle_seed=7)
        _, report = train(model, windows, cfg)
        assert report.train_losses[-1] * 10.0 <= report.train_losses[0]
        assert len(report.train_losses) == cfg.epochs
        assert all(l >= 0.0 and np.isfinite(l) for l in report.train_losses)
        assert all(v is None or (v >= 0.0 and np.isfinite(v)) for v in report.val_losses)

    def test_deterministic_trajectories(self):
        windows = sine_windows(n_points=120)
        cfg = TrainConfig(epochs=3, shuffle_seed=5)
        runs = []
        for _ in range(2):
            model = init_params(ArchSpec("gru", hidden_units=6), seed=9)
            trained, report = train(model, windows, cfg)
            runs.append((trained, report))
        assert runs[0][1].train_losses == runs[1][1].train_losses
        assert runs[0][1].val_losses == runs[1][1].val_losses
        for a, b in zip(runs[0][0].flat(), runs[1][0].flat()):
            assert np.array_equal(a, b)

    def test_every_window_visited_once_per_epoch(self, monkeypatch):
        windows = sine_windows(n_points=150, lookback=5)
        n_val = int(len(windows) * 0.1)
        n_train = len(windows) - n_val
        cfg = TrainConfig(epochs=3, batch_size=16, shuffle_seed=1)

        seen: list[np.ndarray] = []
        real = training.forward_batch

        def spy(model, xb, store_tape=True, **kwargs):
            if store_tape:  # training batches carry tapes; validation does not
                seen.append(np.asarray(xb))
            return real(model, xb, store_tape=store_tape, **kwargs)

        monkeypatch.setattr(training, "forward_batch", spy)
        model = init_params(ArchSpec("lstm", hidden_units=4), seed=2)
        train(model, windows, cfg)

        rows_per_epoch = n_train
        all_rows = np.concatenate(seen, axis=0)
        assert all_rows.shape[0] == cfg.epochs * rows_per_epoch
        # within each epoch every training window appears exactly once
        train_rows = windows.inputs[:n_train]
        for e in range(cfg.epochs):
            epoch_rows = all_rows[e * rows_per_epoch : (e + 1) * rows_per_epoch]
            key = np.lexsort(epoch_rows.T)
            ref_key = np.lexsort(train_rows.T)
            assert np.array_equal(epoch_rows[key], train_rows[ref_key])

    def test_validation_tail_never_touches_gradients(self):
        windows = sine_windows(n_points=150, lookback=5)
        n_val = int(len(windows) * 0.1)
        assert n_val >= 1
        cfg = TrainConfig(epochs=2, shuffle_seed=3)

        model = init_params(ArchSpec("lstm", hidden_units=4), seed=4)
        trained_a, _ = train(model, windows, cfg)

        tampered_targets = windows.targets.copy()
        tampered_targets[-n_val:] += 123.456
        tampered = SequenceBatch(
            inputs=windows.inputs, targets=tampered_targets, origin_indices=windows.origin_indices
        )
        trained_b, _ = train(model, tampered, cfg)

        for a, b in zip(trained_a.flat(), trained_b.flat()):
            assert np.array_equal(a, b)

    def test_empty_after_carve_out_rejected(self):
        windows = sine_windows(n_points=12, lookback=10)  # 2 windows
        empty = SequenceBatch(
            inputs=windows.inputs[:0], targets=windows.targets[:0], origin_indices=[]
        )
        with pytest.raises(InsufficientDataError):
            train(init_params(ArchSpec("lstm", hidden_units=2), seed=0), empty, TrainConfig(epochs=1))

    def test_divergence_carries_epoch(self):
        # an infinite validation target blows up the epoch-end loss without
        # ever reaching a gradient
        windows = sine_windows(n_points=60, lookback=5)
        targets = windows.targets.copy()
        targets[-1] = np.inf
        poisoned = SequenceBatch(
            inputs=windows.inputs, targets=targets, origin_indices=windows.origin_indices
        )
        model = init_params(ArchSpec("lstm", hidden_units=4), seed=1)
        with pytest.raises(DivergenceError) as exc_info:
            train(model, poisoned, TrainConfig(epochs=3, shuffle_seed=0))
        assert exc_info.value.epoch == 1
        assert exc_info.value.loss == "validation"
        assert str(exc_info.value) == "non-finite validation loss at epoch 1"

    def test_divergence_names_the_training_loss(self, monkeypatch):
        # predictions of about 1e200 square to an infinite loss while every
        # gradient stays finite, so only the epoch-end check catches them
        real_forward = training.forward_batch

        def huge_predictions(model, windows, store_tape=True, **kwargs):
            preds, tape = real_forward(model, windows, store_tape, **kwargs)
            return preds * 1e200 + 1e200, tape

        monkeypatch.setattr(training, "forward_batch", huge_predictions)
        model = init_params(ArchSpec("gru", hidden_units=3), seed=1)
        with pytest.raises(DivergenceError) as exc_info:
            train(model, sine_windows(n_points=60, lookback=5), TrainConfig(epochs=2, shuffle_seed=0))
        assert (exc_info.value.epoch, exc_info.value.loss) == (1, "train")
        assert str(exc_info.value) == "non-finite training loss at epoch 1"

    def test_failure_carries_epoch_batch_and_completed_epochs(self, monkeypatch):
        windows = sine_windows(n_points=60, lookback=5)
        cfg = TrainConfig(epochs=4, batch_size=16, shuffle_seed=0)
        batches_per_epoch = -(-(len(windows) - int(len(windows) * 0.1)) // 16)
        real_step = training.adam_step

        def poison_third_batch_of_epoch_two(model, grads, state, config, **kwargs):
            if state.step == batches_per_epoch + 2:
                grads.vector[0] = np.nan
            return real_step(model, grads, state, config, **kwargs)

        monkeypatch.setattr(training, "adam_step", poison_third_batch_of_epoch_two)
        with pytest.raises(PoisonedUpdateError) as exc_info:
            train(init_params(ArchSpec("gru", hidden_units=3), seed=1), windows, cfg)
        exc = exc_info.value
        assert (exc.epoch, exc.batch, exc.array) == (2, 3, "layers[0].w")
        assert "epoch 2, batch 3" in str(exc)
        assert [e["epoch"] for e in exc.report.epochs_log()] == [1]

    def test_poisoned_gradient_aborts(self):
        # a non-finite training target reaches the optimizer as a bad gradient
        windows = sine_windows(n_points=60, lookback=5)
        targets = windows.targets.copy()
        targets[0] = np.nan
        poisoned = SequenceBatch(
            inputs=windows.inputs, targets=targets, origin_indices=windows.origin_indices
        )
        model = init_params(ArchSpec("lstm", hidden_units=4), seed=1)
        with pytest.raises(PoisonedUpdateError):
            train(model, poisoned, TrainConfig(epochs=1, shuffle_seed=0))
