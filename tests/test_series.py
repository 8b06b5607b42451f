from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gatewatch import series as ts
from gatewatch.errors import (
    AllMissing,
    DegenerateSplit,
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
        assert (test.start - train.end).total_seconds() == 30.0


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
    @example(start_us=0, offsets_us=[2_100_000], multiples=[], interval=0.7)
    def test_matches_python_floor_division(self, start_us, offsets_us, multiples,
                                           interval):
        # stamps on or next to a grid line, where the float quotient rounds
        offsets_us += [round(k * interval * 1e6) for k in multiples
                       if abs(k * interval) <= 1e6]
        start = datetime(2021, 1, 1, 12, 30, 15, start_us, tzinfo=timezone.utc)
        stamps = [start + timedelta(microseconds=o) for o in offsets_us]
        got = ts.interval_index(stamps, start, interval)
        assert got.dtype == np.int64
        assert got.tolist() == [int((t - start).total_seconds() // interval)
                                for t in stamps]


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
