import json
import math
import re
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from gatewatch import detect
from gatewatch.errors import AllMissing, GatewatchError, SeriesTooShort, UnsupportedConfidence
from gatewatch.forecast import FittedForecaster, ForecasterConfig, fit
from gatewatch.series import TimeSeries, band_stats, split


def make(values, interval=3600.0):
    return TimeSeries.from_values(values, interval_seconds=interval)


def lines(alerts):
    return [a.to_json() for a in alerts]


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
        # symmetric about the window mean
        assert np.isclose(band.X - band.lower, band.upper - band.X,
                          rtol=1e-9, atol=1e-9 * (1.0 + abs(band.X)))


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

    @pytest.mark.parametrize("ma_window", [1, 3])
    @pytest.mark.parametrize("k", [7, 100, 399])
    def test_residual_mode_is_quiet_on_a_biased_forecast(self, ma_window, k):
        # A moving average lags a ramp by a constant: its residuals are a
        # steady bias with no spread about their mean. The band is centred on
        # the forecast, so sigma must take the bias in, or every point flags.
        values = 0.1 * k * np.arange(120) + 3.7
        model = fit(ForecasterConfig(variant="moving_average", ma_window=ma_window),
                    make(values[:60]))
        assert detect.detect_surges(make(values[60:]), model, 0.95,
                                    mode="residual") == []

    def test_a_window_longer_than_the_scored_series_is_refused(self):
        # It would score no window, so mean-shift mode refuses it; residual
        # mode scores one-point windows whatever window it is handed.
        model, scored, _ = _surge_setup(spike_windows=(0,), window=48)
        assert len(detect.detect_surges(scored, model, 0.999, window=48)) == 1
        with pytest.raises(SeriesTooShort,
                           match="^window 49 is longer than the 48 points it scores$"):
            detect.detect_surges(scored, model, 0.999, window=49)
        assert detect.detect_surges(scored, model, 0.999, mode="residual", window=49)

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

    @pytest.mark.parametrize("fraction", [0.0, -1, 1.0, 1.5, math.nan])
    def test_a_train_fraction_split_refuses_is_refused(self, fraction):
        # 0 and below scored against a one-point baseline; 1 and above scored
        # nothing, so gave no alert.
        series = make([1.0, 0.0, 2.0, 1.0, 1.0, 0.0, 9.0, 9.0, 9.0, 9.0])
        for call in (lambda: split(series, fraction),
                     lambda: detect.detect_identity_flood(series, 0.95, fraction)):
            with pytest.raises(ValueError, match=r"^train_fraction must lie in \(0, 1\)$"):
                call()


# Counts of new ids per interval, some missing.
COUNTS = st.one_of(st.none(), st.integers(min_value=0, max_value=50).map(float),
                   st.floats(min_value=0, max_value=50, allow_nan=False))
# Fractions inside (0, 1), near 1 (a short series gets no test part), and
# the ones split refuses.
FRACTIONS = st.one_of(
    st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.9, max_value=1, exclude_max=True),
    st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan]))


@settings(max_examples=examples(300), deadline=None)
@given(st.data())
def test_identity_flood_is_split_and_the_mean_shift_band(data):
    # The identity flood cuts its series where series.split does and refuses
    # what split refuses; it once kept its own cut and gave no alert, with no
    # error, for a cut that left no test part, a 1-point series, a training
    # part with no observed point or a window longer than the test part.
    n = data.draw(st.integers(min_value=1, max_value=30))
    values = data.draw(st.lists(COUNTS, min_size=n, max_size=n))
    blank = data.draw(st.integers(min_value=0, max_value=n))
    values[:blank] = [None] * blank    # may leave the training part all missing
    series = make(values, interval=float(data.draw(st.integers(1, 86400))))
    fraction = data.draw(FRACTIONS)
    confidence = data.draw(st.sampled_from(sorted(detect.Z_TABLE)))
    window = data.draw(st.integers(min_value=1, max_value=4))

    def flood():
        return detect.detect_identity_flood(series, confidence, fraction, window)

    try:
        split(series, fraction)
    except (ValueError, GatewatchError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$") as info:
            flood()
        assert type(info.value) is type(exc)
        return
    n_train = math.ceil(fraction * n)
    train = series.values[:n_train][~series.missing[:n_train]]
    if len(train) == 0:
        with pytest.raises(AllMissing):
            flood()
        return
    if window > n - n_train:
        with pytest.raises(SeriesTooShort, match=f"^window {window} is longer than "
                                                 f"the {n - n_train} points it scores$"):
            flood()
        return
    want = detect.mean_shift_block(
        series.values[None], n_train, *band_stats(train[None]),
        detect.z_score(confidence), window, "IdentityFlood", series.start,
        series.interval_seconds, [""])
    assert lines(flood()) == lines(want)


class TestMeanShiftCore:
    def test_scores_after_first_against_the_baseline(self):
        series = make([1.0, 2.0, 1.0, 2.0, 1.5, 1.5, 9.0, 9.0])
        scored = TimeSeries(start=series.timestamp_at(4),
                            interval_seconds=series.interval_seconds,
                            values=series.values[4:])
        alerts = detect.mean_shift_alerts(scored, [1.0, 2.0, 1.0, 2.0],
                                          1.960, 2, "Surge", "s")
        assert [a.timestamp for a in alerts] == [series.timestamp_at(6)]
        assert alerts[0].observed == 9.0 and alerts[0].expected == 1.5

    def test_rejects_empty_baseline_and_window_below_one(self):
        series = make([1.0, 2.0, 3.0])
        with pytest.raises(AllMissing):
            detect.mean_shift_alerts(series, [], 1.960, 1, "Surge")
        with pytest.raises(ValueError):
            detect.mean_shift_alerts(series, [1.0], 1.960, 0, "Surge")


# The model's stored band statistics: (config, series length, window); the
# last case trains on two points, the fewest a sample std is taken over.
STORED_BAND_CASES = [
    (ForecasterConfig(variant="holt_winters", hw_period=24), 480, 24),
    (ForecasterConfig(variant="moving_average", ma_window=3), 96, 5),
    (ForecasterConfig(variant="linear_trend"), 40, 3),
    (ForecasterConfig(variant="moving_average", ma_window=1), 4, 1),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("config, n, window", STORED_BAND_CASES,
                         ids=["hw", "ma3", "lt", "ma1-two-points"])
def test_mean_shift_scores_from_the_stored_band_statistics(config, n, window, seed):
    # detect_surges scores against the X and s stored in the model: a fresh
    # model, a reloaded one and the training points themselves give one
    # byte stream.
    rng = np.random.default_rng(seed)
    values = (10.0 + np.sin(2 * np.pi * np.arange(n) / 24)
              + rng.normal(0.0, 1.0, n)).tolist()
    values[n // 2] += 40.0
    if n > 8:
        values[n // 2 + 1] = None
    train, test = split(make(values), 0.5)
    fresh = fit(config, train)
    loaded = FittedForecaster.from_json(fresh.to_json())
    want = "".join(a.to_json() + "\n" for a in detect.mean_shift_alerts(
        test, train.clean_values(), detect.z_score(0.95), window, "Surge", "s"))
    assert want
    for model in (fresh, loaded):
        got = detect.detect_surges(test, model, 0.95, window=window, source="s")
        assert "".join(a.to_json() + "\n" for a in got) == want


# --- one-series reference loops ----------------------------------------------
# The window-at-a-time mean-shift loop and the point-at-a-time dropout scan
# that the row-wise cores replaced, kept as references.


def _ref_severity(excess, threshold):
    return "Critical" if excess > 2.0 * threshold else "Warning"


def ref_mean_shift_alerts(series, first, baseline, z, window, kind, source=""):
    baseline = np.asarray(baseline, dtype=float)
    s = float(baseline.std(ddof=1)) if len(baseline) > 1 else 0.0
    band = detect.ConfidenceBand(X=float(baseline.mean()), s=s, n=window, z=z)
    threshold = z * s / math.sqrt(window)
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


def ref_detect_dropout(series, gap_threshold, source=""):
    silent = series.missing
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


def ref_residual_surges(series, preds, sigma, z, source=""):
    # The point-at-a-time residual loop that one-point windows of the
    # mean-shift core replaced.
    alerts = []
    threshold = z * sigma
    for t in range(len(series)):
        if series.missing[t]:
            continue
        observed = float(series.values[t])
        forecast = float(preds[t])
        if not math.isfinite(forecast):
            continue
        excess = abs(observed - forecast) - threshold
        if excess > 0:
            band = detect.ConfidenceBand(X=forecast, s=sigma, n=1, z=z)
            alerts.append(detect.AnomalyAlert(
                timestamp=series.timestamp_at(t),
                kind="Surge", observed=observed, expected=forecast, band=band,
                severity=_ref_severity(excess, threshold), source=source))
    return alerts


# Non-integer points, exact zeros and missing points, so windows are whole,
# partly missing or wholly missing.
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


@settings(max_examples=examples(300), deadline=None)
@given(st.data())
def test_one_row_cores_match_the_one_series_loops(data):
    n = data.draw(st.integers(min_value=1, max_value=80))
    series = make(data.draw(st.lists(POINTS, min_size=n, max_size=n)))
    baseline = data.draw(BASELINES)
    window = data.draw(WINDOWS)
    z = data.draw(st.sampled_from(sorted(detect.Z_TABLE.values())))
    gap_threshold = data.draw(st.integers(min_value=1, max_value=6))
    if window > n:
        with pytest.raises(SeriesTooShort, match=f"^window {window} is longer than "
                                                 f"the {n} points it scores$"):
            detect.mean_shift_alerts(series, baseline, z, window, "Surge", "s")
    else:
        got = detect.mean_shift_alerts(series, baseline, z, window, "Surge", "s")
        want = ref_mean_shift_alerts(series, 0, baseline, z, window, "Surge", "s")
        assert got == want
        assert lines(got) == lines(want)
    got = detect.detect_dropout(series, gap_threshold, "s")
    want = ref_detect_dropout(series, gap_threshold, "s")
    assert got == want
    assert lines(got) == lines(want)


FORECASTS = st.one_of(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                     st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1 / 3]))


@settings(max_examples=examples(300), deadline=None)
@given(st.data())
def test_residual_surges_match_the_point_loop(data):
    # Residual mode is the mean-shift core on one-point windows, each centred
    # on its forecast: alert for alert the loop it replaced, missing points,
    # non-finite forecasts and a zero sigma included.
    n = data.draw(st.integers(min_value=1, max_value=60))
    series = make(data.draw(st.lists(POINTS, min_size=n, max_size=n)))
    preds = np.array(data.draw(st.lists(FORECASTS, min_size=n, max_size=n)),
                     dtype=float)
    sigma = data.draw(st.one_of(st.just(0.0), st.floats(min_value=0, max_value=500)))
    confidence = data.draw(st.sampled_from(sorted(detect.Z_TABLE)))
    model = SimpleNamespace(one_step_on=lambda values: preds.copy(),
                            residual_std=sigma)
    got = detect.detect_surges(series, model, confidence, mode="residual",
                               source="s")
    want = ref_residual_surges(series, preds, sigma, detect.z_score(confidence), "s")
    assert got == want
    # One difference in the text: the core observes a point as its one-point
    # window's mean, which numpy sums from +0.0, so a point of -0.0 is
    # observed as 0.0 where the point loop wrote -0.0.
    assert lines(got) == [line.replace('"observed": -0.0,', '"observed": 0.0,')
                          for line in lines(want)]


@settings(max_examples=examples(200), deadline=None)
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
    got = detect.mean_shift_block(values, first, *band_stats(baselines), 1.960,
                                  window, "Surge", start, interval, sources)
    want = [a for r, src, base in zip(rows, sources, baselines)
            for a in ref_mean_shift_alerts(r, first, base, 1.960, window,
                                           "Surge", src)]
    assert got == want
    assert lines(got) == lines(want)
    silent = np.array([r.missing for r in rows])
    got = detect.dropout_block(silent, gap_threshold, start, interval, sources)
    want = [a for r, src in zip(rows, sources)
            for a in ref_detect_dropout(r, gap_threshold, source=src)]
    assert got == want
    assert lines(got) == lines(want)


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


# --- the alerts.jsonl encoder against to_json ---------------------------------


AWKWARD = 'ab-0",\\\n\r\t é€\u2028'
# 1, 1.0 and True are one dict key and three JSON texts; so are 0.0 and -0.0
NUMBERS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, 1e16, math.nan, math.inf, -math.inf, 3, True,
                                  np.float64(2.5), np.float64(-0.0)]))
WORDS = st.one_of(st.text(AWKWARD, max_size=4), st.sampled_from([1, 1.0, True, None]))


@st.composite
def alert_stamps(draw):
    # instants with microseconds, each naive or in up to three fixed-offset
    # zones (one instant in two zones is one dict key with two texts), and
    # equal but distinct copies of some; alerts reuse these objects in runs
    stamps = []
    for base in draw(st.lists(st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1)),
                              min_size=1, max_size=2)):
        for offset in draw(st.lists(st.one_of(st.none(), st.integers(-23 * 60, 23 * 60)),
                                    min_size=1, max_size=3)):
            stamps.append(base if offset is None else base.replace(tzinfo=timezone.utc)
                          .astimezone(timezone(timedelta(minutes=offset))))
    return stamps + [stamp + timedelta(0) for stamp in stamps if draw(st.booleans())]


@st.composite
def awkward_alerts(draw, stamps):
    band = draw(st.one_of(st.none(), st.builds(
        detect.ConfidenceBand, NUMBERS, NUMBERS, st.integers(1, 30),
        st.sampled_from(sorted(detect.Z_TABLE.values())))))
    return detect.AnomalyAlert(
        timestamp=draw(st.sampled_from(stamps)),
        kind=draw(st.one_of(st.sampled_from(detect.KINDS), WORDS)),
        observed=draw(NUMBERS), expected=draw(NUMBERS), band=band,
        severity=draw(st.one_of(st.sampled_from(["Warning", "Critical"]), WORDS)),
        source=draw(WORDS), packet_class=draw(WORDS),
        ambiguous=draw(st.sampled_from([None, True, False, 1])))


@settings(max_examples=examples(200), deadline=None)
@given(st.data())
def test_alert_lines_are_to_json_lines(data):
    stamps = data.draw(alert_stamps())
    runs = data.draw(st.lists(st.tuples(awkward_alerts(stamps), st.integers(1, 3)),
                              max_size=8))
    alerts = [alert for alert, count in runs for _ in range(count)]
    assert detect.alert_lines(alerts) == "".join(a.to_json() + "\n" for a in alerts)


def test_alert_lines_of_awkward_alerts(tmp_path, monkeypatch):
    # equal dict keys with different JSON texts, as numbers and as sources;
    # values that are not finite or not float; one instant in two zones
    stamp = datetime(2021, 1, 1, tzinfo=timezone.utc)
    band = detect.ConfidenceBand(X=np.float64(2.5), s=0.0, n=1, z=1.96)
    alerts = [detect.AnomalyAlert(stamp, "Surge", observed, expected, None,
                                  "Warning", source)
              for observed, expected, source in
              [(0.0, 1.0, "a"), (-0.0, 1, "a"), (1.0, True, 1), (math.nan, math.inf, True),
               (np.float64(0.5), -math.inf, 1.0), (3, 0.5, "1")]]
    alerts += [detect.AnomalyAlert(stamp.astimezone(timezone(timedelta(hours=2))), "Intrusion",
                                   1.0, 0.0, band, "Critical", "a", True, None),
               detect.AnomalyAlert(stamp + timedelta(microseconds=5), "Dropout", 4.0, 3.0,
                                   None, "Warning", "a")]
    want = [
        '{"ts": "2021-01-01T00:00:00+00:00", "kind": "Surge", "observed": 0.0, '
        '"expected": 1.0, "lower": null, "upper": null, "severity": "Warning", "source": "a"}',
        '{"ts": "2021-01-01T00:00:00+00:00", "kind": "Surge", "observed": -0.0, '
        '"expected": 1, "lower": null, "upper": null, "severity": "Warning", "source": "a"}',
        '{"ts": "2021-01-01T00:00:00+00:00", "kind": "Surge", "observed": 1.0, '
        '"expected": true, "lower": null, "upper": null, "severity": "Warning", "source": 1}',
        '{"ts": "2021-01-01T00:00:00+00:00", "kind": "Surge", "observed": NaN, '
        '"expected": Infinity, "lower": null, "upper": null, "severity": "Warning", '
        '"source": true}',
        '{"ts": "2021-01-01T00:00:00+00:00", "kind": "Surge", "observed": 0.5, '
        '"expected": -Infinity, "lower": null, "upper": null, "severity": "Warning", '
        '"source": 1.0}',
        '{"ts": "2021-01-01T00:00:00+00:00", "kind": "Surge", "observed": 3, '
        '"expected": 0.5, "lower": null, "upper": null, "severity": "Warning", "source": "1"}',
        '{"ts": "2021-01-01T02:00:00+02:00", "kind": "Intrusion", "observed": 1.0, '
        '"expected": 0.0, "lower": 2.5, "upper": 2.5, "severity": "Critical", "source": "a", '
        '"class": true, "ambiguous": null}',
        '{"ts": "2021-01-01T00:00:00.000005+00:00", "kind": "Dropout", "observed": 4.0, '
        '"expected": 3.0, "lower": null, "upper": null, "severity": "Warning", "source": "a"}']
    assert lines(alerts) == want
    assert detect.alert_lines(alerts) == "".join(line + "\n" for line in want)
    # written a chunk of alerts at a time, for chunks that split runs anywhere
    for chunk in (1, 2, 3, 4096):
        monkeypatch.setattr(detect, "ALERT_CHUNK", chunk)
        detect.write_alerts_jsonl(alerts, tmp_path / "alerts.jsonl")
        assert (tmp_path / "alerts.jsonl").read_bytes() == \
            "".join(line + "\n" for line in want).encode()
