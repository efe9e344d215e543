"""Stacked model: initialization, forward pass, backward pass, checkpoints."""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cryptoforecast import CheckpointError, ForecastError, network
from cryptoforecast.network import (
    ArchSpec,
    ModelParams,
    ModelTape,
    backward_batch,
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

    @pytest.mark.parametrize("field, value, message", [
        ("layers", 0, "layers must be >= 1, got 0"),  # the value was not shown
        ("input_dim", -2, "input_dim must be >= 1, got -2"),
        ("output_dim", 2, "output_dim must be 1 (a one-step-ahead scalar forecast), got 2"),
    ])
    def test_range_errors_show_the_value(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ArchSpec(**{"cell_kind": "lstm", field: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchSpec("attention")
        with pytest.raises(ValueError):
            ArchSpec("lstm", layers=0)
        with pytest.raises(ValueError):
            ArchSpec("lstm", output_dim=2)

    @pytest.mark.parametrize("field, value, message", [
        ("layers", True, "layers must be an integer, got bool"),  # was a one-layer arch
        ("hidden_units", 4.0, "hidden_units must be an integer, got float"),  # failed later, in numpy
        ("cell_kind", None, "cell_kind must be a string, got NoneType"),  # was an AttributeError
        ("layers", np.int64(2), "layers must be an integer, got int64"),  # json cannot write it to a checkpoint
    ])
    def test_field_types_rejected(self, field, value, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            ArchSpec(**{"cell_kind": "lstm", field: value})

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
        assert cell.b[4:8].tolist() == [1.0, 1.0, 1.0, 1.0]  # stacked order: i, f, o, c
        assert cell.b[0:4].tolist() == [0.0, 0.0, 0.0, 0.0]

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
            model = ModelParams.zeros(ArchSpec(kind, hidden_units=3), seed=0)
            preds, _ = forward_batch(model, rng.uniform(size=9))
            assert preds.tolist() == [0.0]
            model.dense_b[0] = 0.625
            preds, _ = forward_batch(model, rng.uniform(size=9))
            assert preds.tolist() == [0.625]

    def test_matches_loop_oracle_all_kinds(self, rng):
        window = rng.uniform(0.0, 1.0, size=5)
        for kind in ("lstm", "gru", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=4), seed=11)
            (pred,), _ = forward_batch(model, window)
            oracle = predict_loop(model_to_dict(model), window.tolist())
            assert abs(pred - oracle) <= 1e-12

    def test_empty_window_rejected(self):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=0)
        with pytest.raises(ValueError):
            forward_batch(model, np.empty(0))

    @pytest.mark.parametrize("store_tape", [True, False])
    def test_empty_batch_rejected(self, store_tape):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=0)
        with pytest.raises(ValueError, match="empty batch"):
            forward_batch(model, np.empty((0, 5)), store_tape=store_tape)

    def test_deterministic_bit_for_bit(self, rng):
        model = init_params(ArchSpec("bilstm", hidden_units=5), seed=4)
        window = rng.uniform(size=12)
        (p1,), _ = forward_batch(model, window)
        (p2,), _ = forward_batch(model, window)
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
        _, tape = forward_batch(model, window)
        h = model.arch.hidden_units
        np.testing.assert_array_equal(tape.final[:, :h], tape.final[:, h:])

    @pytest.mark.parametrize("windows", [4, 1])
    def test_backward_direction_tape_reads_its_layer_input_uncopied(self, windows, rng):
        model = init_params(ArchSpec("bilstm", layers=2, hidden_units=3), seed=2)
        _, tape = forward_batch(model, rng.uniform(size=(windows, 6)))
        assert tape.layer_tapes[0][0].x is tape.x
        for fwd, bwd in tape.layer_tapes:
            assert np.shares_memory(bwd.x, fwd.x)
            np.testing.assert_array_equal(bwd.x, fwd.x[::-1])

    def test_zeroed_backward_head_degenerates_to_lstm(self, rng):
        hidden = 6
        bi = init_params(ArchSpec("bilstm", layers=1, hidden_units=hidden), seed=21)
        bi.dense_w[hidden:] = 0.0

        uni = init_params(ArchSpec("lstm", layers=1, hidden_units=hidden), seed=0)
        uni.layers[0] = (bi.layers[0][0],)
        uni.dense_w = bi.dense_w[:hidden]
        uni.dense_b = bi.dense_b

        window = rng.uniform(size=15)
        (pred_bi,), _ = forward_batch(bi, window)
        (pred_uni,), _ = forward_batch(uni, window)
        assert abs(pred_bi - pred_uni) <= 1e-12


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_grads(self, rng):
        model = init_params(ArchSpec("lstm", hidden_units=4), seed=5)
        _, tape = forward_batch(model, rng.uniform(size=7))
        grads = backward_batch(model, tape, [0.0])
        assert all(np.all(g == 0.0) for g in grads.flat())

    def test_dense_bias_gradient_is_upstream(self, rng):
        for kind in ("lstm", "gru", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=4), seed=5)
            _, tape = forward_batch(model, rng.uniform(size=7))
            grads = backward_batch(model, tape, [1.75])
            assert grads.dense_b[0] == 1.75

    def test_matches_finite_differences(self, rng):
        # independent of grad_check: plain loop over parameters
        eps = 1e-5
        for kind in ("lstm", "gru", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=4), seed=6)
            window = rng.uniform(size=5)
            target = 0.4
            (pred,), tape = forward_batch(model, window)
            grads = backward_batch(model, tape, [2.0 * (pred - target)])

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
        _, tape = forward_batch(lstm, rng.uniform(size=6))
        with pytest.raises(ValueError):
            backward_batch(other, tape, [1.0])
        with pytest.raises(ValueError, match="tape produced by forward"):  # no gradient vector to write
            backward_batch(lstm, ModelTape(x=tape.x, layer_tapes=tape.layer_tapes, final=tape.final), [1.0])

    def test_deterministic_bit_for_bit(self, rng):
        model = init_params(ArchSpec("gru", hidden_units=5), seed=9)
        window = rng.uniform(size=8)
        _, tape = forward_batch(model, window)
        g1 = backward_batch(model, tape, [0.37]).vector.copy()  # the second call writes into the same vector
        g2 = backward_batch(model, tape, [0.37])
        assert np.array_equal(g1, g2.vector)


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
        real_backward = network.backward_batch

        def doubled(model_, tape_, d_pred):
            grads = real_backward(model_, tape_, d_pred)
            grads.dense_b[0] *= 2.0
            return grads

        monkeypatch.setattr(network, "backward_batch", doubled)
        err = grad_check(model, rng.uniform(size=6), target=0.1)
        assert err > 0.3

    def test_worst_names_array_index_and_values(self, rng, monkeypatch):
        model = init_params(ArchSpec("bilstm", hidden_units=2), seed=14)
        real_backward = network.backward_batch

        def corrupted(model_, tape_, d_pred):
            grads = real_backward(model_, tape_, d_pred)
            grads.layers[1][1].u[3, 1] += 0.5
            return grads

        monkeypatch.setattr(network, "backward_batch", corrupted)
        window = rng.uniform(size=4)
        worst = grad_check_worst(model, window, target=0.3)
        assert worst.location() == "layers[1].bwd.u[3, 1]"
        assert worst.rel_error == grad_check(model, window, target=0.3)
        assert abs(worst.analytic - worst.numeric - 0.5) < 1e-6

    def test_array_names_follow_flat_order(self):
        for kind in ("lstm", "bilstm"):
            model = init_params(ArchSpec(kind, hidden_units=2), seed=3)
            names = [name for name, *_ in model.arch.param_layout]
            assert len(names) == len(model.flat())
            assert names[-2:] == ["dense_w", "dense_b"]
        assert names[:4] == ["layers[0].fwd.w", "layers[0].fwd.u", "layers[0].fwd.b", "layers[0].bwd.w"]

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
    def test_a_rerun_tape_predicts_one_window_like_the_tape_free_pass(self, kind, rng):
        # grad_check_worst's finite differences rerun one tape; they must see the scoring pass's bits
        model = init_params(ArchSpec(kind, hidden_units=3), seed=9)
        _, tape = forward_batch(model, rng.uniform(size=5))
        for _ in range(3):
            model.vector += rng.normal(scale=1e-3, size=model.vector.size)
            window = rng.uniform(size=5)
            again, _ = forward_batch(model, window, workspace=tape)
            tape_free, _ = forward_batch(model, window, store_tape=False)
            assert again.tobytes() == tape_free.tobytes()

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
    def test_builds_its_cell_workspaces_once(self, kind, rng, monkeypatch):
        built = []
        for name in ("LstmWork", "GruWork"):
            real = getattr(network, name)
            monkeypatch.setattr(network, name, lambda *args, real=real, **kwargs: built.append(1) or real(*args, **kwargs))
        model = init_params(ArchSpec(kind, hidden_units=2), seed=16)
        assert grad_check_worst(model, rng.uniform(size=4), target=0.3).rel_error < 1e-4
        # one tape of 2 layers x directions cells; a fresh tape-free pass per loss built 2 per parameter
        assert len(built) == 2 * model.arch.directions

    def test_rejects_more_than_one_window(self, rng):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=15)
        with pytest.raises(ValueError, match="exactly one window"):
            grad_check_worst(model, rng.uniform(size=(2, 4)), 0.0)

    def test_epsilon_bounds(self, rng):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=15)
        with pytest.raises(ValueError):
            grad_check(model, rng.uniform(size=4), 0.0, epsilon=1e-2)
        with pytest.raises(ValueError):
            grad_check(model, rng.uniform(size=4), 0.0, epsilon=1e-8)

    def test_one_default_epsilon(self):
        from cryptoforecast.cli import build_parser

        assert network.DEFAULT_EPSILON == 1e-5
        assert build_parser().parse_args(["gradcheck"]).epsilon is network.DEFAULT_EPSILON
        for check in (grad_check_worst, grad_check):
            assert inspect.signature(check).parameters["epsilon"].default is network.DEFAULT_EPSILON


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
            p1, _ = forward_batch(model, window)
            p2, _ = forward_batch(loaded, window)
            assert p1.tolist() == p2.tolist()

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

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
    @pytest.mark.parametrize("layers, hidden", [(1, 1), (2, 100), (3, 8)])
    @pytest.mark.parametrize("seed", [11, None])
    def test_streamed_file_equals_the_document_dump(self, tmp_path, kind, layers, hidden, seed):
        """save_checkpoint writes gate by gate, yet the bytes are those of one dump of model_to_dict."""
        model = init_params(ArchSpec(kind, layers=layers, hidden_units=hidden), seed=5)
        model.seed = seed
        model.vector[:6] = [-0.0, 5e-324, 1e300, 1.0, -2.5e-7, 0.1]  # the float spellings json chooses
        path = tmp_path / "checkpoint.json"
        save_checkpoint(model, path)
        assert path.read_bytes() == (json.dumps(model_to_dict(model), sort_keys=True) + "\n").encode()
        loaded = load_checkpoint(path)
        assert loaded.seed == seed and loaded.vector.tobytes() == model.vector.tobytes()

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_gate_arrays_tile_the_vector_up_to_the_head(self, kind, layers):
        arch = ArchSpec(kind, layers=layers, hidden_units=3)
        spans = [span for *_, span in network._gate_arrays(arch)]
        assert spans[0].start == 0 and spans[-1].stop == arch.param_layout[-2][2].start
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
        assert all(span.stop > span.start for span in spans)
        assert len(spans) == 3 * len(arch.gate_order) * layers * arch.directions

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
    def test_golden_v1_file_loads_and_resaves_byte_for_byte(self, tmp_path, kind):
        """A version 1 file written before the one gate table: the same init draws, the same document."""
        golden = Path(__file__).parent / "data" / f"checkpoint_v1_{kind}.json"
        loaded = load_checkpoint(golden)
        assert loaded.vector.tobytes() == init_params(ArchSpec(kind, layers=2, hidden_units=2), seed=7).vector.tobytes()
        save_checkpoint(loaded, tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == golden.read_bytes()

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

    @pytest.mark.parametrize("key, value", [("hidden_units", 10**7), ("input_dim", 10**12)])
    def test_oversized_arch_rejected_before_allocating(self, key, value):
        # the declared model would not fit any machine, so this passes only if nothing of its size is allocated
        doc = self.doc("bilstm")
        doc["arch"][key] = value
        with pytest.raises(CheckpointError, match="layers"):
            model_from_dict(doc)

    @pytest.mark.parametrize("seed", [[4], {"s": 4}, True, 4.0, "4"])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        doc = self.doc()
        doc["seed"] = seed  # was loaded into ModelParams.seed as is and written back on the next save
        with pytest.raises(CheckpointError, match="seed must be an integer or null"):
            model_from_dict(doc)

    @pytest.mark.parametrize("seed", [None, 0, -3, 2**70])
    def test_integer_or_null_seed_loads(self, seed):
        doc = self.doc()
        doc["seed"] = seed
        assert model_from_dict(doc).seed == seed

    def test_unreadable_files_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.json")
        (tmp_path / "list.json").write_text("[]")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "list.json")
