from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gatewatch import evaluate as ev, forecast as fc
from gatewatch.errors import AllTargetsZero, EmptyInput, LengthMismatch, MissingValuesPresent
from gatewatch.forecast import ForecasterConfig
from gatewatch.series import TimeSeries, split


def make(values, interval=3600.0):
    return TimeSeries.from_values(values, interval_seconds=interval)


class TestMse:
    def test_hand_example(self):
        assert ev.mse([1.0, 2.0, 3.0], [1.0, 2.0, 6.0]) == pytest.approx(3.0)

    def test_perfect_is_zero(self):
        assert ev.mse([4.0, 5.0], [4.0, 5.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ev.mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            ev.mse([], [])

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1,
                    max_size=30))
    def test_nonnegative_and_shift_invariant(self, values):
        arr = np.array(values)
        assert ev.mse(arr, arr) == 0.0
        assert ev.mse(arr, arr + 1.0) == pytest.approx(1.0)


class TestMape:
    def test_hand_example(self):
        pct, skipped = ev.mape([10.0, 20.0], [12.0, 18.0])
        assert pct == pytest.approx(15.0)
        assert skipped == 0

    def test_zero_targets_skipped(self):
        pct, skipped = ev.mape([0.0, 10.0], [5.0, 11.0])
        assert pct == pytest.approx(10.0)
        assert skipped == 1

    def test_all_zero_targets(self):
        with pytest.raises(AllTargetsZero):
            ev.mape([0.0, 0.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ev.mape([1.0], [1.0, 2.0])


def seasonal_series(n=480, period=24, noise=0.1, seed=0):
    t = np.arange(n)
    rng = np.random.default_rng(seed)
    return make(10.0 + np.sin(2 * np.pi * t / period)
                + rng.normal(0, noise, n))


class TestCompareModels:
    def test_persistence_always_present(self):
        report = ev.compare_models([], seasonal_series(), 0.8)
        assert [r.name for r in report.rows] == ["persistence"]
        assert report.ranking == ["persistence"]

    def test_seasonal_data_ranks_holt_winters_first(self):
        configs = [ForecasterConfig(variant="holt_winters", hw_period=24,
                                    hw_alpha=0.5, hw_beta=0.1, hw_gamma=0.3),
                   ForecasterConfig(variant="moving_average", ma_window=3)]
        report = ev.compare_models(configs, seasonal_series(), 0.8)
        assert report.ranking[0] == "holt_winters(m=24)"
        assert len(report.rows) == 3

    def test_failed_model_recorded_not_fatal(self):
        configs = [ForecasterConfig(variant="holt_winters", hw_period=200)]
        report = ev.compare_models(configs, seasonal_series(n=100), 0.8)
        row = report.row("holt_winters(m=200)")
        assert row.error is not None and row.test_mse is None
        assert row.name not in report.ranking
        assert "persistence" in report.ranking

    def test_a_missing_training_point_is_refused_before_any_fit(self):
        values = seasonal_series(n=100).values.copy()
        values[10] = np.nan
        configs = [ForecasterConfig(variant="moving_average", ma_window=3)]
        with mock.patch.object(ev, "fit", wraps=ev.fit) as fit, \
                pytest.raises(MissingValuesPresent):
            ev.compare_models(configs, make(values), 0.8)
        fit.assert_not_called()

    def test_a_missing_test_point_is_refused_before_any_fit(self):
        # every score would be NaN and the ranking the input order
        values = seasonal_series(n=100).values.copy()
        values[95] = np.nan
        configs = [ForecasterConfig(variant="moving_average", ma_window=3)]
        with mock.patch.object(ev, "fit", wraps=ev.fit) as fit, \
                pytest.raises(MissingValuesPresent, match="^test series"):
            ev.compare_models(configs, make(values), 0.8)
        fit.assert_not_called()

    def test_ranking_sorted_by_mse(self):
        configs = [ForecasterConfig(variant="moving_average", ma_window=3),
                   ForecasterConfig(variant="linear_trend")]
        report = ev.compare_models(configs, seasonal_series(), 0.75)
        mses = [report.row(name).test_mse for name in report.ranking]
        assert mses == sorted(mses)

    def test_text_table_and_json(self):
        report = ev.compare_models(
            [ForecasterConfig(variant="moving_average", ma_window=3)],
            seasonal_series(), 0.8)
        text = report.to_text_table()
        assert "moving_average(w=3)" in text
        assert "ranking:" in text
        obj = report.to_json_obj()
        assert {r["name"] for r in obj["rows"]} == \
            {"moving_average(w=3)", "persistence"}

    def test_pattern_classes(self):
        report = ev.compare_models(
            [ForecasterConfig(variant="holt_winters", hw_period=24,
                              hw_alpha=0.5, hw_beta=0.1, hw_gamma=0.3)],
            seasonal_series(), 0.8)
        assert report.row("holt_winters(m=24)").pattern_class == \
            "Seasonality and or Trend"
        assert report.row("persistence").pattern_class == "Stationary"

    def test_compare_runs_no_in_sample_pass(self, monkeypatch):
        # compare reads neither fitted nor residual_std, so each LSTM row runs its
        # one-step predictor once, over the test windows.
        calls = []
        one_step = fc._lstm_one_step

        def counted(params, scaler, values, T):
            calls.append((len(values), T))
            return one_step(params, scaler, values, T)

        monkeypatch.setattr(fc, "_lstm_one_step", counted)
        t = np.arange(120)
        series = TimeSeries.from_values(10.0 + 3.0 * np.sin(2 * np.pi * t / 24),
                                        interval_seconds=3600.0)
        configs = [ForecasterConfig(variant="lstm", lstm_num_timesteps=12, rng_seed=seed)
                   for seed in (1, 2)] + [ForecasterConfig(variant="holt_winters")]
        report = ev.compare_models(configs, series, 0.8)
        assert [row.error for row in report.rows] == [None] * 4
        test = split(series, 0.8)[1]
        assert calls == [(12 + len(test), 12)] * 2
