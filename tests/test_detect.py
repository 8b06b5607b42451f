import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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


# --- one-series reference loops ----------------------------------------------
# The window-at-a-time mean-shift loop and the point-at-a-time dropout scan
# that the row-wise cores replaced, kept as references.


def _ref_severity(excess, threshold):
    return "Critical" if excess > 2.0 * threshold else "Warning"


def ref_mean_shift_alerts(series, first, baseline, z, window, kind, source=""):
    baseline = np.asarray(baseline, dtype=float)
    s = float(baseline.std(ddof=1)) if len(baseline) > 1 else 0.0
    band = detect.ConfidenceBand(X=float(baseline.mean()), s=s, n=window, z=z)
    threshold = band.half_width
    scored = np.where(series.missing, np.nan, series.values)[first:]
    alerts = []
    for w in range(len(scored) // window):
        chunk = scored[w * window:(w + 1) * window]
        chunk = chunk[~np.isnan(chunk)]
        if len(chunk) == 0:
            continue
        mean = float(chunk.mean())
        excess = abs(mean - band.X) - threshold
        if excess > 0:
            alerts.append(detect.AnomalyAlert(
                timestamp=series.timestamp_at(first + w * window),
                kind=kind, observed=mean, expected=band.X, band=band,
                severity=_ref_severity(excess, threshold), source=source))
    return alerts


def ref_detect_dropout(series, gap_threshold, zero_is_silence=False, source=""):
    silent = series.missing.copy()
    if zero_is_silence:
        silent |= (~series.missing) & (series.values == 0)
    alerts = []
    n = len(series)
    i = 0
    while i < n:
        if not silent[i]:
            i += 1
            continue
        j = i
        while j < n and silent[j]:
            j += 1
        run = j - i
        if run >= gap_threshold:
            alerts.append(detect.AnomalyAlert(
                timestamp=series.timestamp_at(i),
                kind="Dropout", observed=float(run), expected=float(gap_threshold),
                band=None,
                severity=_ref_severity(float(run - gap_threshold),
                                       float(gap_threshold)),
                source=source))
        i = j
    return alerts


# Non-integer points, exact zeros (silence when zero_is_silence) and missing
# points, so windows are whole, partly missing or wholly missing.
POINTS = st.one_of(st.none(), st.just(0.0),
                   st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                   st.sampled_from([0.1, 0.2, 0.3, 1 / 3]))
# A constant baseline has s = 0, so nearly every window is flagged and its mean
# shows in the alert.
BASELINES = st.one_of(
    st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
             min_size=1, max_size=30),
    st.lists(st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 7.0]), min_size=1, max_size=30),
    st.builds(lambda x, n: [x] * n, st.sampled_from([0.1, 7.0]),
              st.integers(min_value=1, max_value=30)))


# Windows of 9 points or more are summed by numpy's unrolled pairwise loop, so
# there a mean taken with missing points zeroed would round differently.
WINDOWS = st.one_of(st.integers(min_value=1, max_value=4),
                    st.integers(min_value=9, max_value=24))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_row_cores_match_the_one_series_loops(data):
    n = data.draw(st.integers(min_value=1, max_value=80))
    series = make(data.draw(st.lists(POINTS, min_size=n, max_size=n)))
    baseline = data.draw(BASELINES)
    window = data.draw(WINDOWS)
    first = data.draw(st.integers(min_value=0, max_value=n + 1))
    z = data.draw(st.sampled_from(sorted(detect.Z_TABLE.values())))
    gap_threshold = data.draw(st.integers(min_value=1, max_value=6))
    zero_is_silence = data.draw(st.booleans())
    assert detect.mean_shift_alerts(series, first, baseline, z, window,
                                    "Surge", "s") == \
        ref_mean_shift_alerts(series, first, baseline, z, window, "Surge", "s")
    assert detect.detect_dropout(series, gap_threshold, zero_is_silence, "s") == \
        ref_detect_dropout(series, gap_threshold, zero_is_silence, "s")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_wise_cores_match_the_one_series_loops_row_by_row(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=1, max_value=60))
    b = data.draw(st.integers(min_value=1, max_value=12))
    rows = [make(data.draw(st.lists(POINTS, min_size=n, max_size=n)))
            for _ in range(k)]
    baselines = [data.draw(st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=b, max_size=b)) for _ in range(k)]
    window = data.draw(WINDOWS)
    first = data.draw(st.integers(min_value=0, max_value=n))
    gap_threshold = data.draw(st.integers(min_value=1, max_value=5))
    sources = [f"s{r}" for r in range(k)]
    values = np.array([np.where(r.missing, np.nan, r.values) for r in rows])
    start, interval = rows[0].start, rows[0].interval_seconds
    got = detect.mean_shift_block(values, first, np.array(baselines), 1.960,
                                  window, "Surge", start, interval, sources)
    want = [a for r, src, base in zip(rows, sources, baselines)
            for a in ref_mean_shift_alerts(r, first, base, 1.960, window,
                                           "Surge", src)]
    assert got == want
    silent = np.array([r.missing for r in rows])
    got = detect.dropout_block(silent, gap_threshold, start, interval, sources)
    want = [a for r, src in zip(rows, sources)
            for a in ref_detect_dropout(r, gap_threshold, source=src)]
    assert got == want


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
