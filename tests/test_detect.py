import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gatewatch import detect
from gatewatch.errors import AllMissing, UnsupportedConfidence
from gatewatch.forecast import ForecasterConfig, fit
from gatewatch.series import TimeSeries


def make(values, interval=3600.0):
    return TimeSeries.from_values(values, interval_seconds=interval)


class TestZTable:
    def test_tabulated_values(self):
        assert detect.z_score(0.80) == 1.282
        assert detect.z_score(0.85) == 1.440
        assert detect.z_score(0.90) == 1.645
        assert detect.z_score(0.95) == 1.960
        assert detect.z_score(0.99) == 2.576
        assert detect.z_score(0.995) == 2.807
        assert detect.z_score(0.999) == 3.291

    def test_no_interpolation(self):
        with pytest.raises(UnsupportedConfidence):
            detect.z_score(0.97)


class TestConfidenceInterval:
    def test_hand_example(self):
        band = detect.confidence_interval([10.0, 12.0, 14.0], 0.95)
        assert band.X == 12.0
        assert band.s == pytest.approx(2.0)
        assert band.n == 3
        half = 1.960 * 2.0 / math.sqrt(3)
        assert band.lower == pytest.approx(12.0 - half)
        assert band.upper == pytest.approx(12.0 + half)

    def test_single_point_degenerates(self):
        band = detect.confidence_interval([5.0], 0.95)
        assert band.lower == band.upper == 5.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            detect.confidence_interval([], 0.95)
        with pytest.raises(ValueError):
            detect.confidence_interval([1.0, float("nan")], 0.95)

    @given(st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=2,
                    max_size=40),
           st.sampled_from(sorted(detect.Z_TABLE)))
    def test_band_contains_mean_and_width_scales(self, values, confidence):
        band = detect.confidence_interval(values, confidence)
        assert band.lower <= band.X <= band.upper
        assert band.half_width >= 0.0


def _surge_setup(spike_windows=(3,), magnitude=50.0, window=6, n_train=96,
                 n_score=48, seed=0):
    rng = np.random.default_rng(seed)
    train = rng.normal(10.0, 1.0, n_train)
    score = rng.normal(10.0, 1.0, n_score)
    for w in spike_windows:
        score[w * window:(w + 1) * window] += magnitude
    model = fit(ForecasterConfig(variant="moving_average", ma_window=1),
                make(train))
    return model, make(score), window


class TestSurges:
    def test_mean_shift_flags_only_spiked_windows(self):
        model, scored, window = _surge_setup(spike_windows=(2, 5))
        alerts = detect.detect_surges(scored, model, 0.999, window=window)
        starts = {a.timestamp for a in alerts}
        assert starts == {scored.timestamp_at(2 * window),
                          scored.timestamp_at(5 * window)}
        assert all(a.kind == "Surge" for a in alerts)

    def test_large_spike_is_critical(self):
        model, scored, window = _surge_setup(magnitude=100.0)
        alerts = detect.detect_surges(scored, model, 0.95, window=window)
        assert any(a.severity == "Critical" for a in alerts)

    def test_negative_shift_also_flagged(self):
        model, scored, window = _surge_setup(magnitude=-50.0)
        alerts = detect.detect_surges(scored, model, 0.999, window=window)
        assert len(alerts) == 1
        assert alerts[0].observed < alerts[0].band.lower

    def test_clean_series_mostly_quiet(self):
        model, scored, window = _surge_setup(spike_windows=(), seed=5)
        alerts = detect.detect_surges(scored, model, 0.999, window=window)
        assert len(alerts) <= 1

    def test_residual_mode_flags_pointwise(self):
        t = np.arange(480)
        base = np.sin(2 * np.pi * t / 24)
        noisy = base + np.random.default_rng(1).normal(0, 0.05, 480)
        model = fit(ForecasterConfig(variant="holt_winters", hw_period=24),
                    make(noisy[:240]))
        score = noisy[240:].copy()
        score[100] += 5.0
        alerts = detect.detect_surges(make(score), model, 0.999, mode="residual")
        assert any(a.timestamp == make(score).timestamp_at(100) for a in alerts)

    def test_unknown_mode_rejected(self):
        model, scored, window = _surge_setup()
        with pytest.raises(ValueError):
            detect.detect_surges(scored, model, 0.95, mode="bands")


class TestDropout:
    def test_one_alert_per_maximal_run(self):
        series = make([1, None, None, None, 2, None, None, None, None, 3])
        alerts = detect.detect_dropout(series, gap_threshold=3)
        assert len(alerts) == 2
        assert alerts[0].timestamp == series.timestamp_at(1)
        assert alerts[0].observed == 3.0
        assert alerts[1].observed == 4.0

    def test_short_gaps_ignored(self):
        series = make([1, None, 2, None, None, 3])
        assert detect.detect_dropout(series, gap_threshold=3) == []

    def test_zero_is_silence_flag(self):
        series = make([5, 0, 0, 0, 5])
        assert detect.detect_dropout(series, 3) == []
        alerts = detect.detect_dropout(series, 3, zero_is_silence=True)
        assert len(alerts) == 1 and alerts[0].observed == 3.0

    def test_trailing_run_counts(self):
        series = make([1, 2, None, None, None])
        alerts = detect.detect_dropout(series, gap_threshold=3)
        assert len(alerts) == 1 and alerts[0].timestamp == series.timestamp_at(2)


class TestIdentityFlood:
    def test_flood_of_new_ids_flagged(self):
        counts = [1, 0, 2, 1, 1, 0, 1, 2, 0, 1,   # train half
                  1, 0, 2, 40, 45, 38, 1, 0, 1, 2]
        series = make([float(c) for c in counts])
        alerts = detect.detect_identity_flood(series, 0.999)
        flagged = {a.timestamp for a in alerts}
        assert series.timestamp_at(13) in flagged
        assert series.timestamp_at(14) in flagged
        assert series.timestamp_at(15) in flagged
        assert all(a.kind == "IdentityFlood" for a in alerts)
        assert series.timestamp_at(16) not in flagged

    def test_quiet_counts_do_not_alert(self):
        series = make([1.0, 2.0, 1.0, 2.0] * 6)
        assert detect.detect_identity_flood(series, 0.999) == []


class TestMeanShiftCore:
    def test_scores_after_first_against_the_baseline(self):
        series = make([1.0, 2.0, 1.0, 2.0, 1.5, 1.5, 9.0, 9.0])
        alerts = detect.mean_shift_alerts(series, 4, [1.0, 2.0, 1.0, 2.0],
                                          1.960, 2, "Surge", "s")
        assert [a.timestamp for a in alerts] == [series.timestamp_at(6)]
        assert alerts[0].observed == 9.0 and alerts[0].expected == 1.5

    def test_rejects_empty_baseline_and_window_below_one(self):
        series = make([1.0, 2.0, 3.0])
        with pytest.raises(AllMissing):
            detect.mean_shift_alerts(series, 0, [], 1.960, 1, "Surge")
        with pytest.raises(ValueError):
            detect.mean_shift_alerts(series, 0, [1.0], 1.960, 0, "Surge")


def test_merge_is_time_ordered_and_stable():
    model, scored, window = _surge_setup(spike_windows=(0,))
    surges = detect.detect_surges(scored, model, 0.999, window=window)
    drops = detect.detect_dropout(make([None, None, None, 1]), 3)
    merged = detect.merge_alerts(drops, surges)
    assert [a.kind for a in merged] == ["Surge", "Dropout"] or \
        [a.timestamp for a in merged] == sorted(a.timestamp for a in merged)
    assert merged == detect.merge_alerts(surges, drops)


def test_alert_json_shape():
    model, scored, window = _surge_setup()
    alert = detect.detect_surges(scored, model, 0.95, window=window)[0]
    obj = json.loads(alert.to_json())
    assert list(obj) == ["ts", "kind", "observed", "expected",
                         "lower", "upper", "severity", "source"]
    assert obj["kind"] == "Surge"
    assert obj["lower"] < obj["observed"] or obj["observed"] < obj["lower"]
