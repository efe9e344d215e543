"""Stacked model: initialization, forward pass, backward pass, checkpoints."""

import json

import numpy as np
import pytest

from cryptoforecast import CheckpointError, ForecastError, network
from cryptoforecast.network import (
    ArchSpec,
    backward,
    forward,
    forward_batch,
    grad_check,
    grad_check_worst,
    init_params,
    load_checkpoint,
    model_from_dict,
    model_to_dict,
    save_checkpoint,
)

from scalar_oracles import predict_loop


class TestArchSpec:
    def test_defaults(self):
        arch = ArchSpec("lstm")
        assert arch.layers == 2
        assert arch.hidden_units == 100
        assert arch.input_dim == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchSpec("attention")
        with pytest.raises(ValueError):
            ArchSpec("lstm", layers=0)
        with pytest.raises(ValueError):
            ArchSpec("lstm", output_dim=2)

    def test_dense_width_doubles_for_bidirectional(self):
        assert ArchSpec("lstm", hidden_units=7).dense_input_size == 7
        assert ArchSpec("bilstm", hidden_units=7).dense_input_size == 14


class TestInitParams:
    def test_deterministic(self):
        arch = ArchSpec("gru", hidden_units=6)
        a = init_params(arch, seed=99)
        b = init_params(arch, seed=99)
        for x, y in zip(a.flat(), b.flat()):
            assert np.array_equal(x, y)

    def test_forget_gate_bias_is_one(self):
        model = init_params(ArchSpec("lstm", hidden_units=4, layers=1), seed=0)
        (cell,) = model.layers[0]
        _, _, b_f = cell.gate_block(1)  # stacked order: i, f, o, c
        assert b_f.tolist() == [1.0, 1.0, 1.0, 1.0]
        _, _, b_i = cell.gate_block(0)
        assert b_i.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_weights_within_glorot_bound(self):
        hidden = 16
        model = init_params(ArchSpec("lstm", hidden_units=hidden, layers=2), seed=3)
        for li, (cell,) in enumerate(model.layers):
            fan_in = 1 if li == 0 else hidden
            w_bound = np.sqrt(6.0 / (fan_in + hidden))
            u_bound = np.sqrt(6.0 / (hidden + hidden))
            assert np.abs(cell.w).max() <= w_bound
            assert np.abs(cell.u).max() <= u_bound
        dense_bound = np.sqrt(6.0 / (hidden + 1))
        assert np.abs(model.dense_w).max() <= dense_bound
        assert model.dense_b[0] == 0.0

    def test_different_seeds_differ(self):
        arch = ArchSpec("lstm", hidden_units=4)
        a = init_params(arch, seed=1)
        b = init_params(arch, seed=2)
        assert not np.array_equal(a.layers[0][0].w, b.layers[0][0].w)


class TestForward:
    def test_zero_model_predicts_dense_bias(self, rng):
        for kind in ("lstm", "gru", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=3), seed=0).zeros_like()
            pred, _ = forward(model, rng.uniform(size=9))
            assert pred == 0.0
            model.dense_b[0] = 0.625
            pred, _ = forward(model, rng.uniform(size=9))
            assert pred == 0.625

    def test_matches_loop_oracle_all_kinds(self, rng):
        window = rng.uniform(0.0, 1.0, size=5)
        for kind in ("lstm", "gru", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=4), seed=11)
            pred, _ = forward(model, window)
            oracle = predict_loop(model_to_dict(model), window.tolist())
            assert abs(pred - oracle) <= 1e-12

    def test_empty_window_rejected(self):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=0)
        with pytest.raises(ValueError):
            forward(model, np.empty(0))

    def test_deterministic_bit_for_bit(self, rng):
        model = init_params(ArchSpec("bilstm", hidden_units=5), seed=4)
        window = rng.uniform(size=12)
        p1, _ = forward(model, window)
        p2, _ = forward(model, window)
        assert p1 == p2

    def test_tape_free_path_matches(self, rng):
        model = init_params(ArchSpec("gru", hidden_units=5), seed=4)
        windows = rng.uniform(size=(6, 10))
        with_tape, _ = forward_batch(model, windows, store_tape=True)
        without, none_tape = forward_batch(model, windows, store_tape=False)
        assert none_tape is None
        assert np.array_equal(with_tape, without)


class TestBidirectionalStructure:
    def test_palindrome_with_mirrored_directions(self, rng):
        # on a palindromic window with identical direction parameters, both
        # directions see the same effective sequence
        model = init_params(ArchSpec("bilstm", layers=1, hidden_units=4), seed=8)
        model.layers[0] = (model.layers[0][0], model.layers[0][0])
        window = np.array([0.1, 0.7, 0.3, 0.7, 0.1])
        _, tape = forward(model, window)
        h = model.arch.hidden_units
        np.testing.assert_array_equal(tape.final[:, :h], tape.final[:, h:])

    def test_zeroed_backward_head_degenerates_to_lstm(self, rng):
        hidden = 6
        bi = init_params(ArchSpec("bilstm", layers=1, hidden_units=hidden), seed=21)
        bi.dense_w[hidden:] = 0.0

        uni = init_params(ArchSpec("lstm", layers=1, hidden_units=hidden), seed=0)
        uni.layers[0] = (bi.layers[0][0],)
        uni.dense_w = bi.dense_w[:hidden]
        uni.dense_b = bi.dense_b

        window = rng.uniform(size=15)
        pred_bi, _ = forward(bi, window)
        pred_uni, _ = forward(uni, window)
        assert abs(pred_bi - pred_uni) <= 1e-12


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_grads(self, rng):
        model = init_params(ArchSpec("lstm", hidden_units=4), seed=5)
        _, tape = forward(model, rng.uniform(size=7))
        grads = backward(model, tape, 0.0)
        assert all(np.all(g == 0.0) for g in grads.flat())

    def test_dense_bias_gradient_is_upstream(self, rng):
        for kind in ("lstm", "gru", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=4), seed=5)
            _, tape = forward(model, rng.uniform(size=7))
            grads = backward(model, tape, 1.75)
            assert grads.dense_b[0] == 1.75

    def test_matches_finite_differences(self, rng):
        # independent of grad_check: plain loop over parameters
        eps = 1e-5
        for kind in ("lstm", "gru", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=4), seed=6)
            window = rng.uniform(size=5)
            target = 0.4
            pred, tape = forward(model, window)
            grads = backward(model, tape, 2.0 * (pred - target))

            work = model.copy()
            for arr, garr in zip(work.flat(), grads.flat()):
                flat = arr.reshape(-1)
                gflat = garr.reshape(-1)
                for k in range(0, flat.shape[0], 7):  # sample every 7th parameter
                    saved = flat[k]
                    flat[k] = saved + eps
                    up, _ = forward_batch(work, window, store_tape=False)
                    flat[k] = saved - eps
                    dn, _ = forward_batch(work, window, store_tape=False)
                    flat[k] = saved
                    numeric = ((up[0] - target) ** 2 - (dn[0] - target) ** 2) / (2 * eps)
                    rel = abs(gflat[k] - numeric) / max(abs(gflat[k]), abs(numeric), 1e-8)
                    assert rel < 1e-4, (kind, rel)

    def test_tape_model_mismatch_rejected(self, rng):
        lstm = init_params(ArchSpec("lstm", hidden_units=4), seed=1)
        other = init_params(ArchSpec("lstm", hidden_units=5), seed=1)
        _, tape = forward(lstm, rng.uniform(size=6))
        with pytest.raises(ValueError):
            backward(other, tape, 1.0)

    def test_deterministic_bit_for_bit(self, rng):
        model = init_params(ArchSpec("gru", hidden_units=5), seed=9)
        window = rng.uniform(size=8)
        _, tape = forward(model, window)
        g1 = backward(model, tape, 0.37)
        g2 = backward(model, tape, 0.37)
        for a, b in zip(g1.flat(), g2.flat()):
            assert np.array_equal(a, b)


class TestGradCheck:
    def test_healthy_model_passes(self, rng):
        model = init_params(ArchSpec("lstm", hidden_units=4), seed=12)
        err = grad_check(model, rng.uniform(size=6), target=0.2)
        assert err <= 1e-4

    def test_constant_prediction_hits_floor(self, rng):
        # dense head zeroed: prediction ignores every recurrent parameter,
        # so both gradient estimates vanish and the comparison floor applies
        model = init_params(ArchSpec("lstm", hidden_units=3), seed=13)
        model.dense_w[:] = 0.0
        err = grad_check(model, rng.uniform(size=5), target=0.9)
        assert err < 1e-6

    def test_corrupted_gradient_detected(self, rng, monkeypatch):
        model = init_params(ArchSpec("gru", hidden_units=4), seed=14)
        real_backward = network.backward

        def doubled(model_, tape_, d_pred):
            grads = real_backward(model_, tape_, d_pred)
            grads.dense_b[0] *= 2.0
            return grads

        monkeypatch.setattr(network, "backward", doubled)
        err = grad_check(model, rng.uniform(size=6), target=0.1)
        assert err > 0.3

    def test_worst_names_array_index_and_values(self, rng, monkeypatch):
        model = init_params(ArchSpec("bilstm", hidden_units=2), seed=14)
        real_backward = network.backward

        def corrupted(model_, tape_, d_pred):
            grads = real_backward(model_, tape_, d_pred)
            grads.layers[1][1].u[3, 1] += 0.5
            return grads

        monkeypatch.setattr(network, "backward", corrupted)
        window = rng.uniform(size=4)
        worst = grad_check_worst(model, window, target=0.3)
        assert worst.location() == "layers[1].bwd.u[3, 1]"
        assert worst.rel_error == grad_check(model, window, target=0.3)
        assert abs(worst.analytic - worst.numeric - 0.5) < 1e-6

    def test_array_names_follow_flat_order(self):
        for kind in ("lstm", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=2), seed=3)
            names = model.array_names()
            assert len(names) == len(model.flat())
            assert names[-2:] == ["dense_w", "dense_b"]
        assert names[:4] == ["layers[0].fwd.w", "layers[0].fwd.u", "layers[0].fwd.b", "layers[0].bwd.w"]

    def test_epsilon_bounds(self, rng):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=15)
        with pytest.raises(ValueError):
            grad_check(model, rng.uniform(size=4), 0.0, epsilon=1e-2)
        with pytest.raises(ValueError):
            grad_check(model, rng.uniform(size=4), 0.0, epsilon=1e-8)


class TestCheckpoint:
    def test_round_trip_all_kinds(self, tmp_path, rng):
        window = rng.uniform(size=7)
        for kind in ("lstm", "gru", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=4), seed=33)
            path = tmp_path / f"{kind}.json"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            assert loaded.arch == model.arch
            assert loaded.seed == 33
            for a, b in zip(model.flat(), loaded.flat()):
                assert np.array_equal(a, b)
            p1, _ = forward(model, window)
            p2, _ = forward(loaded, window)
            assert p1 == p2

    def test_document_is_plain_json(self, tmp_path):
        model = init_params(ArchSpec("lstm", hidden_units=2, layers=1), seed=1)
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "cryptoforecast-checkpoint"
        assert doc["arch"]["cell_kind"] == "lstm"
        layer = doc["layers"][0]
        assert set(layer) == {f"{p}_{g}" for p in ("w", "u", "b") for g in ("i", "f", "o", "c")}
        assert len(layer["u_i"]) == 4  # hidden^2, row-major

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "something-else"})

    def test_save_is_deterministic(self, tmp_path):
        model = init_params(ArchSpec("gru", hidden_units=3), seed=2)
        save_checkpoint(model, tmp_path / "a.json")
        save_checkpoint(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCheckpointValidation:
    """Malformed checkpoint documents raise CheckpointError, never a partial model."""

    @staticmethod
    def doc(kind="lstm", layers=2, hidden=3):
        return model_to_dict(init_params(ArchSpec(kind, layers=layers, hidden_units=hidden), seed=4))

    def test_is_a_forecast_error(self):
        assert issubclass(CheckpointError, ForecastError)

    def test_round_trip_still_loads(self):
        for kind in ("lstm", "gru", "bilstm"):
            doc = self.doc(kind)
            assert model_to_dict(model_from_dict(doc)) == doc

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
    def test_missing_layer_rejected(self, kind):
        doc = self.doc(kind)
        doc["layers"] = doc["layers"][:1]
        with pytest.raises(CheckpointError, match="2 layers"):
            model_from_dict(doc)

    def test_extra_layer_rejected(self):
        doc = self.doc()
        doc["layers"].append(doc["layers"][-1])
        with pytest.raises(CheckpointError, match="2 layers"):
            model_from_dict(doc)

    def test_short_array_rejected(self):
        doc = self.doc()
        doc["layers"][1]["u_f"] = doc["layers"][1]["u_f"][:-1]
        with pytest.raises(CheckpointError, match=r"layers\[1\]\.u_f"):
            model_from_dict(doc)

    def test_nested_array_rejected(self):
        doc = self.doc()
        doc["layers"][0]["b_i"] = [doc["layers"][0]["b_i"]]
        with pytest.raises(CheckpointError, match="b_i"):
            model_from_dict(doc)

    def test_non_numeric_array_rejected(self):
        doc = self.doc("gru")
        doc["layers"][0]["w_r"] = ["x"] * len(doc["layers"][0]["w_r"])
        with pytest.raises(CheckpointError, match="w_r"):
            model_from_dict(doc)

    def test_missing_array_rejected(self):
        doc = self.doc("bilstm")
        del doc["layers"][0]["backward"]["w_c"]
        with pytest.raises(CheckpointError, match="backward"):
            model_from_dict(doc)

    def test_missing_direction_rejected(self):
        doc = self.doc("bilstm")
        del doc["layers"][1]["backward"]
        with pytest.raises(CheckpointError, match="backward"):
            model_from_dict(doc)

    def test_non_finite_weight_rejected(self):
        doc = self.doc()
        doc["layers"][0]["w_o"][0] = float("nan")
        with pytest.raises(CheckpointError, match="non-finite"):
            model_from_dict(doc)

    def test_short_dense_head_rejected(self):
        doc = self.doc()
        doc["dense"]["w"] = doc["dense"]["w"][:-1]
        with pytest.raises(CheckpointError, match="dense"):
            model_from_dict(doc)

    @pytest.mark.parametrize("bias", [float("inf"), "0.5", [0.5], None])
    def test_bad_dense_bias_rejected(self, bias):
        doc = self.doc()
        doc["dense"]["b"] = bias
        with pytest.raises(CheckpointError, match="dense"):
            model_from_dict(doc)

    @pytest.mark.parametrize("arch", [{"cell_kind": "rnn"}, {"cell_kind": "lstm", "depth": 2}, "lstm"])
    def test_bad_arch_rejected(self, arch):
        doc = self.doc()
        doc["arch"] = arch
        with pytest.raises(CheckpointError, match="arch"):
            model_from_dict(doc)

    def test_unreadable_files_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.json")
        (tmp_path / "list.json").write_text("[]")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "list.json")
