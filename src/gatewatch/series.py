"""Uniform time-series container and preparation utilities.

The interval grid (which interval an offset falls in, where an interval
starts, maximal runs of flagged points), the clock and count rules, the
mean-shift band statistics, scaling, the chronological split (the one
train/score cut), sliding windows and seasonality / stationarity diagnostics.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AllMissing,
    DegenerateSplit,
    MalformedSeries,
    MissingValuesPresent,
    SeriesTooShort,
)

# Autocorrelation at the dominant candidate period must reach this for the
# series to be called seasonal.
SEASONALITY_ACF_THRESHOLD = 0.3
# Max pairwise segment-statistic difference (in units of the global std)
# tolerated before the series is called non-stationary.
STATIONARITY_DRIFT_THRESHOLD = 0.5
STATIONARITY_SEGMENTS = 4
# Missing runs up to this length are interpolated; longer ones are dropouts.
MAX_IMPUTED_RUN = 2


def check_interval(interval_seconds: float) -> None:
    """Refuse, with ValueError, a grid interval that is not positive and finite."""
    if not (math.isfinite(interval_seconds) and interval_seconds > 0):
        raise ValueError(f"the interval of {interval_seconds} s is not a positive "
                         "finite number")


def check_count(name: str, value, least: int = 1) -> None:
    """Refuse, with ValueError naming `name`, a size, window or threshold that
    is not an integer >= least. numpy integers are integers; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, not {value!r}")


def slots(offsets_seconds, interval_seconds: float) -> np.ndarray:
    """Index of the interval each offset from the grid start falls in,
    offset // interval_seconds as an int64 array (negative before the start).
    A slot of 2**53 or more, where float64 no longer tells neighbouring
    integers apart, raises OverflowError."""
    with np.errstate(over="ignore", invalid="ignore"):  # past float64: refused below
        quotients = np.asarray(offsets_seconds, dtype=np.float64) // interval_seconds
    if quotients.size and not np.abs(quotients).max() < 2 ** 53:
        raise OverflowError(f"an interval of {interval_seconds} s puts a slot past 2**53")
    return quotients.astype(np.int64)


def runs(mask) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of True in a boolean mask as (starts, ends): run k covers
    mask[starts[k]:ends[k]]."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.diff(padded.astype(np.int8))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def slot_time(start: datetime, interval_seconds: float, index: int) -> datetime:
    """Start of interval `index` on the grid that starts at `start`."""
    return start + timedelta(seconds=interval_seconds * index)


def to_utc(dt: datetime) -> datetime:
    """The same instant in UTC; a naive stamp is taken to be UTC already."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly spaced numeric series; a missing point is NaN."""

    start: datetime
    interval_seconds: float
    values: np.ndarray          # float array, NaN where missing
    missing: np.ndarray = field(init=False)   # np.isnan(values)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if len(values) == 0:
            raise ValueError("values must be nonempty")
        check_interval(self.interval_seconds)
        if np.isinf(values).any():
            raise ValueError("values must be finite or NaN")
        object.__setattr__(self, "start", to_utc(self.start))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", np.isnan(values))

    @classmethod
    def from_values(cls, values, start: datetime | None = None,
                    interval_seconds: float = 1.0) -> "TimeSeries":
        """Build a series from a plain list; None/NaN entries become missing."""
        arr = np.array([math.nan if v is None else float(v) for v in values], dtype=float)
        start = start or datetime(2000, 1, 1, tzinfo=timezone.utc)
        return cls(start=start, interval_seconds=interval_seconds, values=arr)

    def __len__(self) -> int:
        return len(self.values)

    def timestamp_at(self, index: int) -> datetime:
        return slot_time(self.start, self.interval_seconds, index)

    def clean_values(self) -> np.ndarray:
        return self.values[~self.missing]

    def has_missing(self) -> bool:
        return bool(self.missing.any())

    def to_json_obj(self) -> dict:
        return {
            "start": self.start.isoformat(),
            "interval_seconds": self.interval_seconds,
            "values": [None if m else float(v)
                       for v, m in zip(self.values, self.missing)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TimeSeries":
        interval = obj["interval_seconds"]
        if isinstance(interval, bool) or not isinstance(interval, (int, float)):
            raise TypeError(f"interval_seconds {interval!r} is not a number")
        return cls.from_values(obj["values"], start=datetime.fromisoformat(obj["start"]),
                               interval_seconds=float(interval))

    @classmethod
    def from_json(cls, text: str) -> "TimeSeries":
        """The series a `to_json` text holds; any other text raises MalformedSeries."""
        try:
            return cls.from_json_obj(json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedSeries(f"not a series JSON: {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class Scaler:
    """Min-max scaler onto [0, 1]; constant input maps to all zeros."""

    min: float
    max: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        span = self.max - self.min
        if span == 0:
            return np.zeros_like(values)
        return (values - self.min) / span

    def invert(self, scaled: np.ndarray) -> np.ndarray:
        scaled = np.asarray(scaled, dtype=float)
        span = self.max - self.min
        if span == 0:
            return np.full_like(scaled, self.min)
        return scaled * span + self.min


@dataclass(frozen=True)
class DiagnosticsReport:
    seasonal: bool
    dominant_period: int | None
    acf_at_period: float
    stationary: bool
    segment_mean_drift: float
    segment_var_drift: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def split(series: TimeSeries, train_fraction: float) -> tuple[TimeSeries, TimeSeries]:
    """Chronological split; train receives ceil(fraction * len) points."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = len(series)
    if n < 2:
        raise SeriesTooShort(f"cannot split a series of length {n}")
    n_train = math.ceil(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise DegenerateSplit(f"fraction {train_fraction} leaves one side empty for length {n}")
    train = TimeSeries(start=series.start, interval_seconds=series.interval_seconds,
                       values=series.values[:n_train])
    test = TimeSeries(start=series.timestamp_at(n_train),
                      interval_seconds=series.interval_seconds,
                      values=series.values[n_train:])
    return train, test


def sliding_windows(series: TimeSeries, num_timesteps: int) -> tuple[np.ndarray, np.ndarray]:
    """All (window, next-value target) pairs; returns (X of shape (N, T), y of shape (N,))."""
    check_count("num_timesteps", num_timesteps)
    n = len(series)
    if n <= num_timesteps:
        raise SeriesTooShort(f"series length {n} yields no targets for {num_timesteps} timesteps")
    if series.has_missing():
        raise MissingValuesPresent("impute or trim missing values before windowing")
    return windows(series.values, num_timesteps), series.values[num_timesteps:]


def windows(values: np.ndarray, w: int) -> np.ndarray:
    """Read-only view of the w-point windows that a next value follows."""
    return sliding_window_view(values, w)[:len(values) - w]


def band_stats(points) -> tuple[np.ndarray, np.ndarray]:
    """X and s of the mean-shift band over training points, taken along the
    last axis: their mean and sample std (ddof=1), s = 0 for a single point."""
    points = np.asarray(points, dtype=float)
    if points.shape[-1] == 0:
        raise AllMissing("no observed training point to build the band from")
    X = points.mean(axis=-1)
    s = points.std(axis=-1, ddof=1) if points.shape[-1] > 1 else np.zeros_like(X)
    return X, s


def fit_scaler(series: TimeSeries) -> Scaler:
    clean = series.clean_values()
    if len(clean) == 0:
        raise AllMissing("no non-missing values to fit a scaler")
    return Scaler(min=float(clean.min()), max=float(clean.max()))


def impute_short_gaps(series: TimeSeries) -> TimeSeries:
    """Linearly interpolate missing runs of length <= MAX_IMPUTED_RUN.

    Longer runs stay missing: those are for dropout detection, not hiding.
    Leading/trailing runs are never imputed (no anchor on one side).
    """
    values = series.values.copy()
    starts, ends = runs(series.missing)
    for i, j in zip(starts.tolist(), ends.tolist()):
        run = j - i
        if run <= MAX_IMPUTED_RUN and i > 0 and j < len(values):
            left, right = values[i - 1], values[j]
            for k in range(run):
                values[i + k] = left + (right - left) * (k + 1) / (run + 1)
    return TimeSeries(start=series.start, interval_seconds=series.interval_seconds,
                      values=values)


def _acf_at_lag(values: np.ndarray, missing: np.ndarray, lag: int) -> float:
    """Pearson correlation of the series with itself at the given lag,
    pairs with either side missing excluded."""
    a = values[:-lag]
    b = values[lag:]
    ok = ~missing[:-lag] & ~missing[lag:]
    if ok.sum() < 3:
        return 0.0
    a, b = a[ok], b[ok]
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def diagnose(series: TimeSeries, candidate_periods: list[int]) -> DiagnosticsReport:
    """Seasonality via ACF at candidate periods; stationarity via segment drift."""
    if not candidate_periods:
        raise ValueError("at least one candidate period required")
    for p in candidate_periods:
        check_count("candidate period", p, least=2)
    n = len(series)
    if n < 3 * max(candidate_periods):
        raise SeriesTooShort(
            f"length {n} < 3 x max candidate period {max(candidate_periods)}")
    clean_all = series.clean_values()
    if len(clean_all) == 0:
        raise AllMissing("no observed point to diagnose")

    acfs = {p: _acf_at_lag(series.values, series.missing, p) for p in candidate_periods}
    dominant = max(candidate_periods, key=lambda p: acfs[p])
    acf_at = acfs[dominant]
    seasonal = acf_at >= SEASONALITY_ACF_THRESHOLD

    global_std = float(clean_all.std())
    seg_len = n // STATIONARITY_SEGMENTS
    means, stds = [], []
    for s in range(STATIONARITY_SEGMENTS):
        lo = s * seg_len
        hi = n if s == STATIONARITY_SEGMENTS - 1 else lo + seg_len
        seg = series.values[lo:hi][~series.missing[lo:hi]]
        if len(seg) == 0:
            continue
        means.append(float(seg.mean()))
        stds.append(float(seg.std()))
    if global_std == 0 or len(means) < 2:
        mean_drift = var_drift = 0.0
    else:
        mean_drift = (max(means) - min(means)) / global_std
        var_drift = (max(stds) - min(stds)) / global_std
    stationary = (mean_drift < STATIONARITY_DRIFT_THRESHOLD
                  and var_drift < STATIONARITY_DRIFT_THRESHOLD)

    return DiagnosticsReport(
        seasonal=bool(seasonal),
        dominant_period=int(dominant) if seasonal else None,
        acf_at_period=acf_at,
        stationary=bool(stationary),
        segment_mean_drift=mean_drift,
        segment_var_drift=var_drift,
    )
