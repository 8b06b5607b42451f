import json
import math
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_step
from gatewatch import cc4, detect, lstm, simulate
from gatewatch import forecast as fc
from gatewatch import series as ts
from gatewatch.errors import (
    AllMissing,
    DegenerateSplit,
    MalformedSeries,
    MissingValuesPresent,
    SeriesTooShort,
)


def make(values, interval=60.0):
    return ts.TimeSeries.from_values(values, interval_seconds=interval)


class TestSplit:
    def test_basic_split(self):
        train, test = ts.split(make(list(range(10))), 0.8)
        assert len(train) == 8 and len(test) == 2

    def test_boundary(self):
        train, test = ts.split(make([1, 2]), 0.5)
        assert len(train) == 1 and len(test) == 1

    def test_degenerate(self):
        with pytest.raises(DegenerateSplit):
            ts.split(make(list(range(10))), 0.99)

    def test_contiguous_timestamps(self):
        series = make(list(range(10)), interval=30.0)
        train, test = ts.split(series, 0.7)
        assert (test.start - train.timestamp_at(len(train) - 1)).total_seconds() == 30.0


class TestSlidingWindows:
    def test_tiny(self):
        X, y = ts.sliding_windows(make([1, 2, 3]), 1)
        assert X.tolist() == [[1], [2]] and y.tolist() == [2, 3]

    def test_no_target(self):
        with pytest.raises(SeriesTooShort):
            ts.sliding_windows(make([1, 2, 3, 4, 5]), 5)

    def test_count(self):
        X, y = ts.sliding_windows(make([1, 2, 3, 4, 5]), 2)
        assert len(X) == 3

    def test_missing_rejected(self):
        with pytest.raises(MissingValuesPresent):
            ts.sliding_windows(make([1, None, 3]), 1)

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=59))
    def test_count_plus_timesteps_is_length(self, n, t):
        if t >= n:
            t = n - 1
        X, _ = ts.sliding_windows(make(list(range(n))), t)
        assert len(X) + t == n


class TestScaler:
    def test_basic(self):
        scaler = ts.fit_scaler(make([0, 5, 10]))
        assert scaler.apply(np.array([0, 5, 10])).tolist() == [0, 0.5, 1]

    def test_constant(self):
        scaler = ts.fit_scaler(make([7, 7]))
        assert scaler.apply(np.array([7, 7])).tolist() == [0, 0]
        assert scaler.invert(np.array([0.0, 0.3])).tolist() == [7, 7]

    def test_all_missing(self):
        with pytest.raises(AllMissing):
            ts.fit_scaler(make([None, None]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30))
    def test_round_trip(self, values):
        scaler = ts.fit_scaler(make(values))
        arr = np.array(values)
        np.testing.assert_allclose(scaler.invert(scaler.apply(arr)), arr,
                                   rtol=1e-9, atol=1e-6)


class TestDiagnose:
    def test_pure_sine_seasonal(self):
        t = np.arange(240)
        report = ts.diagnose(make(np.sin(2 * np.pi * t / 24)), [12, 24, 48])
        assert report.seasonal
        assert report.dominant_period == 24
        assert report.acf_at_period >= 0.95

    def test_white_noise_stationary_not_seasonal(self):
        rng = np.random.default_rng(0)
        report = ts.diagnose(make(rng.normal(size=500)), [24])
        assert not report.seasonal
        assert report.stationary

    def test_ramp_not_stationary(self):
        report = ts.diagnose(make(np.arange(200, dtype=float)), [10])
        assert not report.stationary
        assert report.segment_mean_drift > 0.5

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            ts.diagnose(make([1, 2, 3]), [24])

    def test_no_observed_point(self):
        with pytest.raises(AllMissing):
            ts.diagnose(make([None] * 72), [24])

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        base = np.sin(2 * np.pi * np.arange(300) / 24) + rng.normal(0, 0.2, 300)
        r1 = ts.diagnose(make(base), [24])
        r2 = ts.diagnose(make(5.0 * base + 17.0), [24])
        assert (r1.seasonal, r1.stationary) == (r2.seasonal, r2.stationary)
        assert r1.segment_mean_drift == pytest.approx(r2.segment_mean_drift)


INTERVALS = st.one_of(st.sampled_from([60.0, 3600.0, 86400.0, 0.7, 7.3, 1e-3]),
                      st.floats(min_value=1e-3, max_value=1e6))


class TestIntervalIndex:
    @given(start_us=st.integers(0, 999_999),
           offsets_us=st.lists(st.integers(-10**12, 10**12), max_size=30),
           multiples=st.lists(st.integers(-10**6, 10**6), max_size=30),
           interval=INTERVALS)
    # 2.1 s is three 0.7 s intervals, where the float quotient 2.1 // 0.7 is 2
    @example(start_us=0, offsets_us=[2_100_000], multiples=[], interval=0.7)
    @example(start_us=0, offsets_us=[2 ** 33 * 10 ** 6 - 1, -2 ** 33 * 10 ** 6],
             multiples=[], interval=2.0 ** -20)
    def test_matches_python_floor_division(self, start_us, offsets_us, multiples,
                                           interval):
        # stamps on or next to a grid line: each falls in the slot that
        # floor-divides its µs offset by the interval's whole µs, exactly
        offsets_us += [round(k * interval * 1e6) + d for k in multiples
                       if abs(k * interval) <= 1e6 for d in (-1, 0, 1)]
        start = datetime(2021, 1, 1, 12, 30, 15, start_us, tzinfo=timezone.utc)
        stamps = [start + timedelta(microseconds=o) for o in offsets_us]
        got = ts.slots([(t - start) // ts.MICROSECOND for t in stamps], interval)
        assert got.dtype == np.int64
        assert got.tolist() == [(t - start) // grid_step(interval) for t in stamps]

    @settings(deadline=None)
    @given(data=st.data(),
           interval=st.one_of(st.sampled_from([0.1, 0.3, 0.7, 1.1, 1 / 3, 45.5, 3600.0]),
                              st.floats(min_value=1e-3, max_value=1e6)),
           start_us=st.integers(0, 999_999))
    @example(data=None, interval=0.1, start_us=0)
    @example(data=None, interval=1.1, start_us=0)
    def test_slots_inverts_slot_time(self, data, interval, start_us):
        # every grid line maps back to its own slot, at intervals that are no
        # dyadic fraction of a second as well
        start = datetime(2021, 1, 1, 12, 30, 15, start_us, tzinfo=timezone.utc)
        bound = int(2e9 / interval)   # within about 60 years of the start
        ks = (list(range(-200, 200)) if data is None else
              data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=50)))
        offsets = [(ts.slot_time(start, interval, k) - start) // ts.MICROSECOND for k in ks]
        assert ts.slots(offsets, interval).tolist() == ks

    def test_offsets_must_be_whole_microseconds(self):
        # seconds would be truncated to µs without a word
        with pytest.raises(TypeError, match="whole microseconds, not float64"):
            ts.slots([0.0, 2.5], 1.0)
        assert ts.slots([], 1.0).tolist() == []
        assert ts.slots(np.array([], dtype=float), 1.0).dtype == np.int64

    def test_the_interval_in_whole_microseconds(self):
        assert ts.check_interval(3600.0) == 3_600_000_000
        assert ts.check_interval(0.1) == 100_000
        assert ts.check_interval(1 / 3) == 333_333
        assert ts.check_interval(1e-6) == ts.check_interval(1.4e-6) == 1
        assert ts.check_interval(1.5e-6) == 2
        # 0.5 µs rounds to 0 µs, half to even: a zero divisor, refused
        assert 0.5e-6 * 1e6 == 0.5
        for interval in (0.5e-6, 4e-7, 1e-9, 1e-300, 1e303, 1e308):
            with pytest.raises(ValueError, match="is not a finite µs count >= 1$"):
                ts.check_interval(interval)
            with pytest.raises(ValueError, match="is not a finite µs count >= 1$"):
                make([1.0, 2.0], interval)

    def test_the_interval_fits_int64_microseconds(self):
        # The grid counts offsets in int64 µs: an interval of 1e13 s (1e19 µs)
        # ended in numpy's OverflowError, which named no interval.
        below = math.nextafter(2 ** 63 / 1e6, 0)
        assert ts.check_interval(below) == round(below * 1e6) < 2 ** 63
        assert ts.check_interval(9e12) == 9 * 10 ** 18
        for interval in (2 ** 63 / 1e6, 1e13, 1e17, 1e302):
            message = f"^{re.escape(f'the interval of {interval!r} s')} is past int64 µs$"
            with pytest.raises(ValueError, match=message):
                ts.check_interval(interval)
            with pytest.raises(ValueError, match=message):
                make([1.0, 2.0], interval)


@pytest.mark.parametrize("interval", [0.0, -60.0, float("nan"), float("inf")])
def test_a_grid_interval_must_be_positive_and_finite(interval):
    with pytest.raises(ValueError, match="is not a positive finite number"):
        ts.check_interval(interval)
    with pytest.raises(ValueError, match="is not a positive finite number"):
        make([1.0, 2.0], interval)
    # 0 and NaN raised OverflowError from the slot rule
    start = datetime(2021, 1, 1, tzinfo=timezone.utc)
    with pytest.raises(ValueError, match="is not a positive finite number"):
        cc4.new_id_counts([cc4.EventLogRecord(start, "a", {})], start, interval, 4)


def _alert_text(alerts):
    return [a.to_json() for a in alerts]


def _fit(**setting):
    return fc.fit(fc.ForecasterConfig(**setting), make([float(i % 5) for i in range(24)]))


def _train(name, value):
    X = np.arange(60, dtype=float).reshape(12, 5) / 60
    return lstm.train_chunked(X, X[:, -1], 2, seed=3, **{name: value})[1]


def _stream(name, value):
    # The Sybil trace gives both surge and dropout alerts at a window and
    # threshold of 3; a refused setting is refused before the log is read.
    trace = simulate.generate_trace(simulate.default_sybil_config())
    config = cc4.StreamConfig(interval_seconds=trace.interval_seconds,
                              **{"surge_window": 3, "gap_threshold": 3, name: value})
    return _alert_text(cc4.stream_pipeline(trace.events, simulate.event_schema(), None,
                                           config, trace.labels, 0)[0])


def _new_ids(duration):
    trace = simulate.generate_trace(simulate.default_sybil_config())
    return cc4.new_id_counts(trace.events, trace.start, trace.interval_seconds, duration)


def _silence_score(coverage):
    # a coverage of 0 scored every true Dropout alert false
    trace = simulate.generate_trace(simulate.default_silence_config())
    alerts = detect.detect_dropout(trace.device_series["streetlight-1"], 3, "streetlight-1")
    return simulate.score_detections(alerts, trace, coverage).to_json_obj()


def _attack(kind, **fields):
    # The labels and event text of a short trace with one script: a Sybil
    # script with no fake id labelled intervals that held no fake event.
    script = simulate.AttackScript(**{"kind": kind, "target_id": "water-1",
                                      "start": 2, "end": 4, **fields})
    trace = simulate.generate_trace(simulate.SimConfig(
        duration=8, fleet=simulate.default_fleet(), attacks=[script]))
    return trace.labels, simulate.trace_files(trace)["events.jsonl"]


_PARAMS = lstm.LstmParams.init(3, 1, np.random.default_rng(9)).to_json_obj()

# Each size, window and threshold argument, as (name in the refusal, least,
# a value it takes, its public entry point as a function of the argument).
COUNT_ARGUMENTS = {
    "sliding_windows": ("num_timesteps", 1, 3,
                        lambda v: [a.tolist() for a in ts.sliding_windows(make(range(8)), v)]),
    "diagnose": ("candidate period", 2, 4,
                 lambda v: ts.diagnose(make([i % 4 for i in range(24)]), [v]).to_json_obj()),
    "mean_shift_alerts": ("window", 1, 2, lambda v: _alert_text(detect.mean_shift_alerts(
        ts.split(make([1, 2, 1, 2, 9, 9, 9, 9, 1, 2]), 0.4)[1], [1, 2, 1, 2], 1.96, v,
        "Surge"))),
    "detect_dropout": ("gap_threshold", 1, 3, lambda v: _alert_text(detect.detect_dropout(
        make([1, None, None, None, 1, None, 1, None, None, 2]), v))),
    "forecast": ("horizon", 1, 3,
                 lambda v: _fit(variant="linear_trend").forecast(v)),
    "fit-ma": ("ma_window", 1, 3,
               lambda v: _fit(variant="moving_average", ma_window=v).forecast(2)),
    "fit-hw": ("hw_period", 2, 5,
               lambda v: _fit(variant="holt_winters", hw_period=v).forecast(2)),
    "fit-lt": ("hw_period", 2, 5, lambda v: _fit(
        variant="linear_trend", lt_seasonal_dummies=True, hw_period=v).forecast(6)),
    "fit-lstm-units": ("lstm_units", 1, 2, lambda v: _fit(
        variant="lstm", lstm_units=v, lstm_num_timesteps=4).forecast(2)),
    "fit-lstm-steps": ("lstm_num_timesteps", 1, 4, lambda v: _fit(
        variant="lstm", lstm_units=2, lstm_num_timesteps=v).forecast(2)),
    "lstm_param_count": ("units", 1, 10, lstm.lstm_param_count),
    "lstm_param_count-input": ("input_dim", 1, 2, lambda v: lstm.lstm_param_count(3, v)),
    "params_json": ("units", 1, 3, lambda v: lstm.LstmParams.from_json_obj(
        {**_PARAMS, "units": v}).to_json_obj()),
    "train-chunks": ("num_chunks", 1, 3, lambda v: _train("num_chunks", v)),
    "train-batch": ("batch_size", 1, 5, lambda v: _train("batch_size", v)),
    "train-epochs": ("epochs", 1, 2, lambda v: _train("epochs", v)),
    "cc4_train": ("radius", 0, 1, lambda v: [cc4.cc4_classify(cc4.cc4_train(
        [([0, 1, 1], "Known"), ([1, 0, 0], "Attack")], v), probe)
        for probe in ([0, 1, 0], [1, 1, 1], [0, 0, 0])]),
    "stream-window": ("surge_window", 1, 3, lambda v: _stream("surge_window", v)),
    "stream-gap": ("gap_threshold", 1, 3, lambda v: _stream("gap_threshold", v)),
    "stream-skew": ("skew_intervals", 0, 2, lambda v: _stream("skew_intervals", v)),
    "simulate": ("duration", 1, 360, lambda v: simulate.generate_trace(replace(
        simulate.default_sybil_config(), duration=v)).events),
    "new_id_counts": ("duration", 1, 360, lambda v: _new_ids(v).values.tolist()),
    "score_detections": ("coverage", 1, 30, _silence_score),
    "attack-start": ("start", 0, 2, lambda v: _attack("UdpFlood", start=v)),
    "attack-end": ("end", 1, 4, lambda v: _attack("UdpFlood", start=0, end=v)),
    "attack-sybil-ids": ("fake_id_count", 1, 3,
                         lambda v: _attack("Sybil", fake_id_count=v)),
    "attack-ids": ("fake_id_count", 0, 0,
                   lambda v: _attack("SilenceAfterOverflow", fake_id_count=v)),
}


@pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
@pytest.mark.parametrize("bad", ["float", "bool", "below"])
def test_every_count_argument_refuses_what_check_count_refuses(entry, bad):
    # A float or a bool was taken where only `< least` was checked: a gap
    # threshold of 2.5 flagged runs of 3, True epochs trained one.
    name, least, _, call = COUNT_ARGUMENTS[entry]
    value = {"float": 2.5, "bool": True, "below": least - 1}[bad]
    message = f"{name} must be an int >= {least}, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ts.check_count(name, value, least)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
def test_a_numpy_integer_count_is_taken_as_its_int(entry):
    name, least, good, call = COUNT_ARGUMENTS[entry]
    ts.check_count(name, np.int64(least), least)
    assert call(np.int64(good)) == call(good)


def naive_runs(mask):
    starts, ends = [], []
    i = 0
    while i < len(mask):
        if not mask[i]:
            i += 1
            continue
        j = i
        while j < len(mask) and mask[j]:
            j += 1
        starts.append(i)
        ends.append(j)
        i = j
    return starts, ends


class TestRuns:
    @given(st.lists(st.booleans(), max_size=60))
    @example([])
    @example([True])
    @example([False])
    @example([True] * 7)
    @example([False] * 7)
    def test_matches_naive_scan(self, mask):
        starts, ends = ts.runs(mask)
        assert (starts.tolist(), ends.tolist()) == naive_runs(mask)


def ref_impute_short_gaps(series, max_run=2):
    values = series.values.copy()
    missing = series.missing.copy()
    n = len(values)
    i = 0
    while i < n:
        if not missing[i]:
            i += 1
            continue
        j = i
        while j < n and missing[j]:
            j += 1
        run = j - i
        if run <= max_run and i > 0 and j < n:
            left, right = values[i - 1], values[j]
            for k in range(run):
                values[i + k] = left + (right - left) * (k + 1) / (run + 1)
                missing[i + k] = False
        i = j
    return values, missing


class TestImpute:
    @given(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=1, max_size=40))
    @example([None, None, 1.0, None, 2.0, None, None, None, 3.0, None])
    @example([None])
    def test_matches_run_scan_reference(self, values):
        series = make(values)
        out = ts.impute_short_gaps(series)
        want_values, want_missing = ref_impute_short_gaps(series)
        assert out.values.tobytes() == want_values.tobytes()
        assert out.missing.tolist() == want_missing.tolist()

    def test_short_runs_filled(self):
        out = ts.impute_short_gaps(make([1, None, 3]))
        assert out.values.tolist() == [1, 2, 3]
        assert not out.missing.any()

    def test_long_runs_left_alone(self):
        out = ts.impute_short_gaps(make([1, None, None, None, 5]))
        assert out.missing.sum() == 3


def test_json_round_trip():
    series = make([1.0, None, 3.0], interval=120.0)
    back = ts.TimeSeries.from_json(series.to_json())
    assert back.values[0] == 1.0
    assert back.missing.tolist() == [False, True, False]
    assert back.interval_seconds == 120.0
    assert back.start == series.start


@pytest.mark.parametrize("interval", [True, False, "3600", None, [60.0], {"s": 60}])
def test_a_json_interval_must_be_a_number(interval):
    # float() would read true as a 1 s grid and "3600" as 3600 s
    text = json.dumps({**make([1.0, 2.0]).to_json_obj(), "interval_seconds": interval})
    with pytest.raises(MalformedSeries, match="interval_seconds .* is not a number"):
        ts.TimeSeries.from_json(text)


@pytest.mark.parametrize("interval", [60, 7.5])
def test_a_json_interval_may_be_an_int_or_a_float(interval):
    text = json.dumps({**make([1.0, 2.0]).to_json_obj(), "interval_seconds": interval})
    assert ts.TimeSeries.from_json(text).interval_seconds == interval


def test_a_missing_point_is_nan():
    values = np.array([1.0, np.nan, 3.0, np.nan])
    series = ts.TimeSeries(start=datetime(2020, 1, 1, tzinfo=timezone.utc),
                           interval_seconds=60.0, values=values)
    assert series.missing.tolist() == [False, True, False, True]
    assert series.clean_values().tolist() == [1.0, 3.0]
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError):
            ts.TimeSeries(start=series.start, interval_seconds=60.0,
                          values=[1.0, bad, np.nan])
