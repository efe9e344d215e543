"""Metric oracles, metric properties, and full-report evaluation."""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoforecast import UndefinedMetricError
from cryptoforecast.metrics import evaluate, mae, mape, rmse
from cryptoforecast.network import ArchSpec, ModelParams, init_params, model_to_dict
from cryptoforecast.preprocess import ScalerParams, SequenceBatch
from cryptoforecast.training import mse_loss

from scalar_oracles import mae_by_hand, mape_by_hand, mse_by_hand, predict_loop, rmse_by_hand

A_REF = [1.0, 2.0, 4.0]
P_REF = [0.5, 2.0, 5.0]

finite_lists = st.lists(
    st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=40
)


class TestHandOracles:
    def test_mae(self):
        assert mae(A_REF, P_REF) == 0.5
        assert mae(A_REF, P_REF) == mae_by_hand(A_REF, P_REF)

    def test_rmse(self):
        assert abs(rmse(A_REF, P_REF) - 0.645497) <= 1e-6
        assert rmse(A_REF, P_REF) == rmse_by_hand(A_REF, P_REF)

    def test_mape(self):
        assert mape(A_REF, P_REF) == 25.0
        assert mape(A_REF, P_REF) == mape_by_hand(A_REF, P_REF)

    def test_identity_cases(self):
        same = [3.0, 4.0, 5.0]
        assert mae(same, same) == 0.0
        assert rmse(same, same) == 0.0
        assert mape(same, same) == 0.0

    def test_single_residuals(self):
        assert mae([0.0], [-1.0]) == 1.0
        assert rmse([4.0, 4.0], [5.0, 3.0]) == 1.0  # constant |residual|
        assert mape([100.0], [99.0]) == 1.0

    def test_zero_actual_undefined(self):
        with pytest.raises(UndefinedMetricError):
            mape([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])

    @pytest.mark.parametrize("metric", [mae, mape, rmse])  # rmse returned nan and inf here
    @pytest.mark.parametrize("actual, predicted", [([1.0, math.nan], [1.0, 2.0]), ([1.0, 2.0], [math.inf, 2.0])])
    def test_non_finite_input_rejected(self, metric, actual, predicted):
        with pytest.raises(ValueError, match="^metric inputs must be finite$"):
            metric(actual, predicted)


class TestMetricProperties:
    @settings(max_examples=100)
    @given(a=finite_lists, seed=st.integers(0, 2**16))
    def test_rmse_squared_is_mse(self, a, seed):
        rng = np.random.default_rng(seed)
        p = (np.asarray(a) + rng.normal(scale=2.0, size=len(a))).tolist()
        r = rmse(a, p)
        m = mse_loss(p, a)
        assert abs(r * r - m) <= 1e-12 * max(m, 1.0)

    @settings(max_examples=100)
    @given(a=finite_lists, seed=st.integers(0, 2**16))
    def test_mae_bounded_by_rmse(self, a, seed):
        rng = np.random.default_rng(seed)
        p = (np.asarray(a) + rng.normal(scale=2.0, size=len(a))).tolist()
        assert mae(a, p) <= rmse(a, p) + 1e-12

    def test_joint_permutation_invariance(self, rng):
        a = rng.uniform(1.0, 50.0, size=30)
        p = rng.uniform(1.0, 50.0, size=30)
        perm = rng.permutation(30)
        for fn in (mae, rmse, mape, lambda x, y: mse_loss(y, x)):
            assert math.isclose(fn(a, p), fn(a[perm], p[perm]), rel_tol=1e-12)

    def test_scaling_covariance(self, rng):
        a = rng.uniform(1.0, 50.0, size=25)
        p = rng.uniform(1.0, 50.0, size=25)
        k = 7.25
        assert math.isclose(mape(k * a, k * p), mape(a, p), rel_tol=1e-12)
        assert math.isclose(mae(k * a, k * p), k * mae(a, p), rel_tol=1e-12)
        assert math.isclose(rmse(k * a, k * p), k * rmse(a, p), rel_tol=1e-12)
        assert math.isclose(mse_loss(k * p, k * a), k * k * mse_loss(p, a), rel_tol=1e-12)


def window_batch(values: np.ndarray, lookback: int) -> SequenceBatch:
    n = len(values) - lookback
    inputs = np.stack([values[k : k + lookback] for k in range(n)])
    return SequenceBatch(
        inputs=inputs, targets=values[lookback:], origin_indices=np.arange(lookback, len(values))
    )


def eval_dates(n, start=date(2023, 1, 1)):
    return [start + timedelta(days=k) for k in range(n)]


class TestEvaluate:
    def test_perfect_prediction_all_zero(self):
        # constant targets and a zero model whose dense bias equals them
        model = ModelParams.zeros(ArchSpec("lstm", hidden_units=3), seed=0)
        model.dense_b[0] = 0.5
        values = np.concatenate([np.linspace(0.1, 0.9, 6), np.full(4, 0.5)])
        windows = window_batch(values, lookback=6)
        report = evaluate(model, windows, ScalerParams(2.0, 10.0), eval_dates(len(windows)))
        for scale in (report.normalized, report.price):
            assert scale.mse == 0.0
            assert scale.mae == 0.0
            assert scale.rmse == 0.0
            assert scale.mape == 0.0

    @pytest.mark.parametrize(
        "bias,scaler,message",
        [
            (1e300, ScalerParams(2.0, 10.0), "normalized mse is not finite"),  # finite predictions, squares overflow
            (np.inf, ScalerParams(2.0, 10.0), "normalized predictions are not finite"),
            (1e150, ScalerParams(0.0, 1e160), "price predictions are not finite"),  # overflows only at price scale
        ],
    )
    def test_diverged_model_is_not_scored(self, bias, scaler, message):
        model = ModelParams.zeros(ArchSpec("lstm", hidden_units=3), seed=0)
        model.dense_b[0] = bias
        windows = window_batch(np.linspace(0.1, 0.9, 10), lookback=6)
        with pytest.raises(UndefinedMetricError, match=f"^{message}$"):
            evaluate(model, windows, scaler, eval_dates(len(windows)))

    def test_identity_scaler_collapses_scales(self, rng):
        model = init_params(ArchSpec("gru", hidden_units=4), seed=3)
        values = rng.uniform(0.2, 0.9, size=20)
        windows = window_batch(values, lookback=5)
        report = evaluate(model, windows, ScalerParams(0.0, 1.0), eval_dates(len(windows)))
        assert report.normalized == report.price

    def test_report_matches_independent_recomputation(self, rng):
        # hidden-4 toy model on 5 test windows, re-scored from scratch via
        # the loop oracle and the hand metric formulas
        model = init_params(ArchSpec("lstm", hidden_units=4), seed=17)
        scaler = ScalerParams(40.0, 90.0)
        values = rng.uniform(0.1, 0.9, size=11)
        windows = window_batch(values, lookback=6)
        assert len(windows) == 5
        dates = eval_dates(5)
        report = evaluate(model, windows, scaler, dates)

        doc = model_to_dict(model)
        preds = [predict_loop(doc, w.tolist()) for w in windows.inputs]
        actuals = windows.targets.tolist()
        assert abs(report.normalized.mse - mse_by_hand(actuals, preds)) <= 1e-12
        assert abs(report.normalized.mae - mae_by_hand(actuals, preds)) <= 1e-12
        assert abs(report.normalized.rmse - rmse_by_hand(actuals, preds)) <= 1e-12
        assert abs(report.normalized.mape - mape_by_hand(actuals, preds)) <= 1e-9

        p_price = [p * 50.0 + 40.0 for p in preds]
        a_price = [a * 50.0 + 40.0 for a in actuals]
        assert abs(report.price.rmse - rmse_by_hand(a_price, p_price)) <= 1e-9
        assert len(report.pairs) == 5
        for (d, a, p), a_ref, p_ref in zip(report.pairs, a_price, p_price):
            assert abs(a - a_ref) <= 1e-9
            assert abs(p - p_ref) <= 1e-9
        assert [d for d, _, _ in report.pairs] == dates

    def test_report_internal_consistency(self, rng):
        model = init_params(ArchSpec("bilstm", hidden_units=4), seed=8)
        values = rng.uniform(0.1, 0.9, size=30)
        windows = window_batch(values, lookback=8)
        report = evaluate(model, windows, ScalerParams(10.0, 20.0), eval_dates(len(windows)))
        for scale in (report.normalized, report.price):
            assert abs(scale.rmse**2 - scale.mse) <= 1e-12 * max(scale.mse, 1.0)
            assert scale.mae <= scale.rmse + 1e-15
            assert scale.mse >= 0.0
        assert len(report.pairs) == report.to_dict()["n"] == len(windows)

    def test_empty_windows_rejected(self):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=0)
        empty = SequenceBatch(
            inputs=np.empty((0, 4)), targets=np.empty(0), origin_indices=np.empty(0, dtype=int)
        )
        with pytest.raises(ValueError):
            evaluate(model, empty, ScalerParams(0.0, 1.0), [])

    def test_date_alignment_enforced(self, rng):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=0)
        values = rng.uniform(0.1, 0.9, size=10)
        windows = window_batch(values, lookback=4)
        with pytest.raises(ValueError):
            evaluate(model, windows, ScalerParams(0.0, 1.0), eval_dates(2))

    def test_pairs_csv_layout(self, rng):
        model = init_params(ArchSpec("lstm", hidden_units=2), seed=1)
        values = rng.uniform(0.1, 0.9, size=8)
        windows = window_batch(values, lookback=3)
        report = evaluate(model, windows, ScalerParams(1.0, 2.0), eval_dates(len(windows)))
        lines = report.pairs_csv().strip().split("\n")
        assert lines[0] == "date,actual,predicted"
        assert len(lines) == len(report.pairs) + 1
        day, actual, predicted = lines[1].split(",")
        assert day == "2023-01-01"
        # repr round-trips exactly
        assert float(actual) == report.pairs[0][1]
        assert float(predicted) == report.pairs[0][2]
