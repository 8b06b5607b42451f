"""Confidence-interval machinery and the detectors built on it.

The Z table is closed: seven tabulated confidence levels, no interpolation.
Surge detection has two modes; mean_shift (the default) scores window means
against the X +/- z*s/sqrt(n) band built from training-period point
statistics, residual mode scores pointwise forecast errors against z * sigma_r.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import AllMissing, UnsupportedConfidence
from .forecast import FittedForecaster
from .series import TimeSeries, runs, slot_time

Z_TABLE = {
    0.80: 1.282,
    0.85: 1.440,
    0.90: 1.645,
    0.95: 1.960,
    0.99: 2.576,
    0.995: 2.807,
    0.999: 3.291,
}

KINDS = ("Surge", "Dropout", "IdentityFlood", "Intrusion")

DEFAULT_WINDOW = 24


def z_score(confidence: float) -> float:
    try:
        return Z_TABLE[confidence]
    except KeyError:
        raise UnsupportedConfidence(
            f"{confidence} not tabulated; supported: {sorted(Z_TABLE)}") from None


@dataclass(frozen=True)
class ConfidenceBand:
    """X +/- z * s / sqrt(n) around a window mean."""

    X: float
    s: float
    n: int
    z: float

    @property
    def lower(self) -> float:
        return self.X - self.z * self.s / math.sqrt(self.n)

    @property
    def upper(self) -> float:
        return self.X + self.z * self.s / math.sqrt(self.n)

    @property
    def half_width(self) -> float:
        return self.z * self.s / math.sqrt(self.n)


def confidence_interval(window, confidence: float) -> ConfidenceBand:
    """Band for the window mean; s is the sample std (n=1 gives s=0)."""
    values = np.asarray(window, dtype=float)
    if len(values) == 0:
        raise ValueError("window must be nonempty")
    if not np.all(np.isfinite(values)):
        raise ValueError("window values must be finite")
    z = z_score(confidence)
    n = len(values)
    s = float(values.std(ddof=1)) if n > 1 else 0.0
    return ConfidenceBand(X=float(values.mean()), s=s, n=n, z=z)


@dataclass(frozen=True)
class AnomalyAlert:
    timestamp: datetime
    kind: str
    observed: float
    expected: float
    band: ConfidenceBand | None
    severity: str
    source: str
    packet_class: str | None = None
    ambiguous: bool | None = None

    def to_json_obj(self) -> dict:
        # Field order is fixed so alert streams are byte-stable.
        obj = {
            "ts": self.timestamp.isoformat(),
            "kind": self.kind,
            "observed": self.observed,
            "expected": self.expected,
            "lower": None if self.band is None else self.band.lower,
            "upper": None if self.band is None else self.band.upper,
            "severity": self.severity,
            "source": self.source,
        }
        if self.kind == "Intrusion":
            obj["class"] = self.packet_class
            obj["ambiguous"] = self.ambiguous
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def write_alerts_jsonl(alerts: list[AnomalyAlert], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for alert in alerts:
            fh.write(alert.to_json() + "\n")


def _severity(excess: float, threshold: float) -> str:
    # Critical when the exceedance is more than twice the threshold half-width.
    return "Critical" if excess > 2.0 * threshold else "Warning"


def mean_shift_block(values: np.ndarray, first: int, baseline, z: float,
                     window: int, kind: str, start: datetime,
                     interval_seconds: float, sources) -> list[AnomalyAlert]:
    """mean_shift_alerts for every row of a (k, n) block at once. Row r of
    `values` (NaN where missing) is scored from column `first` on against the
    band of the observed training points in row r of the (k, b) `baseline`;
    its alerts are stamped on the grid at `start` and carry sources[r].
    Alerts come row by row, windows in order."""
    if window < 1:
        raise ValueError("window must be >= 1")
    baseline = np.asarray(baseline, dtype=float)
    if baseline.shape[1] == 0:
        raise AllMissing("no observed training point to build the band from")
    k = len(values)
    X = baseline.mean(axis=1)
    s = baseline.std(axis=1, ddof=1) if baseline.shape[1] > 1 else np.zeros(k)
    threshold = z * s / math.sqrt(window)
    count = (values.shape[1] - first) // window
    if count <= 0:
        return []
    windows = values[:, first:first + count * window].reshape(k, count, window)
    means = windows.mean(axis=2)
    # A window holding a missing point keeps the mean of its observed points,
    # taken on its own: zeros padded into numpy's pairwise summation could
    # round it differently.
    for r, w in np.argwhere(np.isnan(means)).tolist():
        chunk = windows[r, w][~np.isnan(windows[r, w])]
        if len(chunk):
            means[r, w] = chunk.mean()
    excess = np.abs(means - X[:, None]) - threshold[:, None]
    alerts: list[AnomalyAlert] = []
    for r, w in np.argwhere(excess > 0).tolist():
        band = ConfidenceBand(X=float(X[r]), s=float(s[r]), n=window, z=z)
        alerts.append(AnomalyAlert(
            timestamp=slot_time(start, interval_seconds, first + w * window),
            kind=kind, observed=float(means[r, w]), expected=band.X, band=band,
            severity=_severity(float(excess[r, w]), float(threshold[r])),
            source=sources[r]))
    return alerts


def mean_shift_alerts(series: TimeSeries, first: int, baseline, z: float,
                      window: int, kind: str, source: str = "") -> list[AnomalyAlert]:
    """Score series[first:] in consecutive windows of n points against the
    X +/- z * s / sqrt(n) band, with X and s taken over the observed training
    points in `baseline`, so the band brackets where an n-point window mean
    should land. A window whose mean of observed points falls outside is
    flagged; a window with no observed point is skipped."""
    values = np.where(series.missing, np.nan, series.values)
    return mean_shift_block(values[None], first, [baseline], z, window, kind,
                            series.start, series.interval_seconds, [source])


def detect_surges(series: TimeSeries, model: FittedForecaster, confidence: float,
                  mode: str = "mean_shift", window: int = DEFAULT_WINDOW,
                  source: str = "") -> list[AnomalyAlert]:
    """Flag surges in a scored series against a model fitted on a disjoint
    training prefix.

    mean_shift: mean_shift_alerts over the whole series, with the model's
    training values as the baseline.

    residual: point t is flagged when |observed - forecast| > z * sigma_r,
    with teacher-forced one-step forecasts.
    """
    if mode not in ("mean_shift", "residual"):
        raise ValueError(f"unknown mode {mode!r}")
    z = z_score(confidence)
    if mode == "mean_shift":
        return mean_shift_alerts(series, 0, model.train_values, z, window,
                                 "Surge", source)

    # residual mode
    alerts: list[AnomalyAlert] = []
    sigma = model.residual_std
    threshold = z * sigma
    preds = model.one_step_on(np.where(series.missing, np.nan, series.values))
    for t in range(len(series)):
        if series.missing[t]:
            continue
        observed = float(series.values[t])
        forecast = float(preds[t])
        if not math.isfinite(forecast):
            continue
        excess = abs(observed - forecast) - threshold
        if excess > 0:
            band = ConfidenceBand(X=forecast, s=sigma, n=1, z=z)
            alerts.append(AnomalyAlert(
                timestamp=series.timestamp_at(t),
                kind="Surge", observed=observed, expected=forecast, band=band,
                severity=_severity(excess, threshold), source=source))
    return alerts


def dropout_block(silent: np.ndarray, gap_threshold: int, start: datetime,
                  interval_seconds: float, sources) -> list[AnomalyAlert]:
    """detect_dropout for every row of a (k, n) silence mask at once: row r's
    alerts are stamped on the grid at `start` and carry sources[r]. Alerts
    come row by row, runs in order."""
    if gap_threshold < 1:
        raise ValueError("gap_threshold must be >= 1")
    k, n = silent.shape
    # a quiet column after each row keeps runs from joining across rows
    padded = np.zeros((k, n + 1), dtype=bool)
    padded[:, :n] = silent
    starts, ends = runs(padded.ravel())
    lengths = ends - starts
    long = lengths >= gap_threshold
    rows, cols = np.divmod(starts[long], n + 1)
    alerts: list[AnomalyAlert] = []
    for r, i, run in zip(rows.tolist(), cols.tolist(), lengths[long].tolist()):
        excess = run - gap_threshold
        alerts.append(AnomalyAlert(
            timestamp=slot_time(start, interval_seconds, i),
            kind="Dropout", observed=float(run), expected=float(gap_threshold),
            band=None, severity=_severity(float(excess), float(gap_threshold)),
            source=sources[r]))
    return alerts


def detect_dropout(series: TimeSeries, gap_threshold: int,
                   zero_is_silence: bool = False,
                   source: str = "") -> list[AnomalyAlert]:
    """One Dropout alert per maximal silent run of length >= gap_threshold,
    timestamped at the run start. observed = run length."""
    silent = series.missing.copy()
    if zero_is_silence:
        silent |= (~series.missing) & (series.values == 0)
    return dropout_block(silent[None], gap_threshold, series.start,
                         series.interval_seconds, [source])


def detect_identity_flood(per_interval_new_ids: TimeSeries, confidence: float,
                          train_fraction: float = 0.5, window: int = 1,
                          source: str = "") -> list[AnomalyAlert]:
    """Mean-shift surge logic applied to the count of never-before-seen
    source ids per interval; alerts carry kind=IdentityFlood. No alerts when
    the training prefix has no observed point."""
    z = z_score(confidence)
    n_train = max(1, math.ceil(train_fraction * len(per_interval_new_ids)))
    observed = ~per_interval_new_ids.missing[:n_train]
    if not observed.any():
        return []
    return mean_shift_alerts(per_interval_new_ids, n_train,
                             per_interval_new_ids.values[:n_train][observed], z,
                             window, "IdentityFlood", source)


def merge_alerts(*alert_lists: list[AnomalyAlert]) -> list[AnomalyAlert]:
    """Deterministic timestamp-ordered merge."""
    merged = [a for alerts in alert_lists for a in alerts]
    merged.sort(key=lambda a: (a.timestamp, KINDS.index(a.kind), a.source, a.observed))
    return merged
