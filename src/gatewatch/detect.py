"""Confidence-interval machinery and the detectors built on it.

The Z table is closed: seven tabulated confidence levels, no interpolation.
Surge detection has two modes, both run by the mean-shift core: mean_shift
(the default) scores window means against the X +/- z*s/sqrt(n) band built
from training-period point statistics, residual mode scores one-point windows
against the band around each one-step forecast, with s = sigma_r.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import SeriesTooShort, UnsupportedConfidence
from .forecast import FittedForecaster
from .series import TimeSeries, band_stats, check_count, runs, slot_time, split

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
ALERT_CHUNK = 4096     # alerts encoded per write


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


def confidence_interval(window, confidence: float) -> ConfidenceBand:
    """Band for the window mean; s is the sample std (n=1 gives s=0)."""
    values = np.asarray(window, dtype=float)
    if len(values) == 0:
        raise ValueError("window must be nonempty")
    if not np.all(np.isfinite(values)):
        raise ValueError("window values must be finite")
    z = z_score(confidence)
    X, s = band_stats(values)
    return ConfidenceBand(X=float(X), s=float(s), n=len(values), z=z)


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


def alert_lines(alerts: list[AnomalyAlert]) -> str:
    """`alert.to_json()` and a newline per alert. Each run of one stamp object and
    each str kind, severity, source and class are encoded once; a finite float is
    its repr, as in json; any other value goes through json.dumps. Memo keys are
    only str: 1, 1.0 and True are equal keys, and so are 0.0 and -0.0."""
    dumps, isfinite, memo, lines, last = json.dumps, math.isfinite, {}, [], None

    def word(v):
        return (memo.get(v) or memo.setdefault(v, dumps(v))) if type(v) is str else dumps(v)

    def number(v):
        return repr(v) if type(v) is float and isfinite(v) else dumps(v)

    for a in alerts:
        if a.timestamp is not last:
            last = a.timestamp
            head = f'{{"ts": {dumps(last.isoformat())}, "kind": '
        band = a.band
        line = (f'{head}{word(a.kind)}, "observed": {number(a.observed)}, '
                f'"expected": {number(a.expected)}, '
                f'"lower": {"null" if band is None else number(band.lower)}, '
                f'"upper": {"null" if band is None else number(band.upper)}, '
                f'"severity": {word(a.severity)}, "source": {word(a.source)}')
        if a.kind == "Intrusion":
            line += f', "class": {word(a.packet_class)}, "ambiguous": {dumps(a.ambiguous)}'
        lines.append(line + "}\n")
    return "".join(lines)


def write_alerts_jsonl(alerts: list[AnomalyAlert], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, len(alerts), ALERT_CHUNK):   # bounds the text held at once
            fh.write(alert_lines(alerts[i:i + ALERT_CHUNK]))


def _severity(excess: float, threshold: float) -> str:
    # Critical when the exceedance is more than twice the threshold half-width.
    return "Critical" if excess > 2.0 * threshold else "Warning"


def mean_shift_block(values: np.ndarray, first: int, X, s, z: float,
                     window: int, kind: str, start: datetime,
                     interval_seconds: float, sources) -> list[AnomalyAlert]:
    """mean_shift_alerts for every row of a (k, n) block at once. Row r of
    `values` (NaN where missing) is scored from column `first` on against the
    band with spread s[r] (`series.band_stats` of its training points) and
    centre X[r], or X[r, w] for window w when X is (k, windows); a NaN centre
    flags nothing. Alerts are stamped on the grid at `start`, carry sources[r]
    and come row by row, windows in order."""
    check_count("window", window)
    k = len(values)
    s = np.asarray(s, dtype=float)
    threshold = z * s / math.sqrt(window)
    count = (values.shape[1] - first) // window
    if count <= 0:
        return []
    X = np.broadcast_to(np.asarray(X, dtype=float).reshape(k, -1), (k, count))
    windows = values[:, first:first + count * window].reshape(k, count, window)
    means = windows.mean(axis=2)
    # A window holding a missing point keeps the mean of its observed points,
    # taken on its own: zeros padded into numpy's pairwise summation could
    # round it differently.
    for r, w in np.argwhere(np.isnan(means)).tolist():
        chunk = windows[r, w][~np.isnan(windows[r, w])]
        if len(chunk):
            means[r, w] = chunk.mean()
    excess = np.abs(means - X) - threshold[:, None]
    rows, cols = np.nonzero(excess > 0)
    slots = cols.tolist()
    stamps = {w: slot_time(start, interval_seconds, first + w * window) for w in set(slots)}
    alerts: list[AnomalyAlert] = []
    for r, w, centre, mean, over, spread, limit in zip(
            rows.tolist(), slots, X[rows, cols].tolist(),
            means[rows, cols].tolist(), excess[rows, cols].tolist(),
            s[rows].tolist(), threshold[rows].tolist()):
        alerts.append(AnomalyAlert(
            timestamp=stamps[w], kind=kind, observed=mean, expected=centre,
            band=ConfidenceBand(X=centre, s=spread, n=window, z=z),
            severity=_severity(over, limit), source=sources[r]))
    return alerts


def mean_shift_alerts(series: TimeSeries, baseline, z: float, window: int,
                      kind: str, source: str = "") -> list[AnomalyAlert]:
    """Score the series in consecutive windows of n points against the
    X +/- z * s / sqrt(n) band, with X and s taken over the observed training
    points in `baseline`, so the band brackets where an n-point window mean
    should land. A window whose mean of observed points falls outside is
    flagged; a window with no observed point is skipped. A window longer
    than the series raises SeriesTooShort."""
    X, s = band_stats(baseline)
    return _score_series(series, [X], [s], z, window, kind, source)


def _score_series(series: TimeSeries, X, s, z: float, window: int, kind: str,
                  source: str) -> list[AnomalyAlert]:
    """mean_shift_block over the whole series as one row. A window longer
    than the series would score nothing, so it raises SeriesTooShort."""
    check_count("window", window)
    if window > len(series):
        raise SeriesTooShort(f"window {window} is longer than the {len(series)} "
                             "points it scores")
    return mean_shift_block(series.values[None], 0, X, s, z, window, kind,
                            series.start, series.interval_seconds, [source])


def detect_surges(series: TimeSeries, model: FittedForecaster, confidence: float,
                  mode: str = "mean_shift", window: int = DEFAULT_WINDOW,
                  source: str = "") -> list[AnomalyAlert]:
    """Flag surges in a scored series against a model fitted on a disjoint
    training prefix.

    mean_shift: windows of the whole series against the mean-shift band,
    with the X and s the model stored from its training points; a window
    longer than the series raises SeriesTooShort.

    residual: one-point windows around the teacher-forced one-step forecasts:
    point t is flagged when |observed - forecast| > z * sigma_r; a point with
    no finite forecast is skipped, as a missing one is.
    """
    if mode not in ("mean_shift", "residual"):
        raise ValueError(f"unknown mode {mode!r}")
    z = z_score(confidence)
    if mode == "residual":
        preds = model.one_step_on(series.values)
        X = [np.where(np.isfinite(preds), preds, np.nan)]
        s, window = [model.residual_std], 1
    else:
        X, s = [model.train_mean], [model.train_std]
    return _score_series(series, X, s, z, window, "Surge", source)


def dropout_block(silent: np.ndarray, gap_threshold: int, start: datetime,
                  interval_seconds: float, sources) -> list[AnomalyAlert]:
    """detect_dropout for every row of a (k, n) silence mask at once: row r's
    alerts are stamped on the grid at `start` and carry sources[r]. Alerts
    come row by row, runs in order."""
    check_count("gap_threshold", gap_threshold)
    k, n = silent.shape
    # a quiet column after each row keeps runs from joining across rows
    padded = np.zeros((k, n + 1), dtype=bool)
    padded[:, :n] = silent
    starts, ends = runs(padded.ravel())
    lengths = ends - starts
    long = lengths >= gap_threshold
    rows, cols = np.divmod(starts[long], n + 1)
    slots = cols.tolist()
    stamps = {i: slot_time(start, interval_seconds, i) for i in set(slots)}
    expected = float(gap_threshold)
    alerts: list[AnomalyAlert] = []
    for r, i, run in zip(rows.tolist(), slots, lengths[long].tolist()):
        alerts.append(AnomalyAlert(
            timestamp=stamps[i], kind="Dropout", observed=float(run),
            expected=expected, band=None,
            severity=_severity(float(run - gap_threshold), expected),
            source=sources[r]))
    return alerts


def detect_dropout(series: TimeSeries, gap_threshold: int,
                   source: str = "") -> list[AnomalyAlert]:
    """One Dropout alert per maximal run of missing points of length >=
    gap_threshold, timestamped at the run start. observed = run length."""
    return dropout_block(series.missing[None], gap_threshold, series.start,
                         series.interval_seconds, [source])


def detect_identity_flood(per_interval_new_ids: TimeSeries, confidence: float,
                          train_fraction: float = 0.5,
                          window: int = 1) -> list[AnomalyAlert]:
    """Mean-shift surge logic on the count of never-before-seen source ids per
    interval: series.split cuts it, and the test part is scored against the
    band of the training part's observed points (AllMissing if it has none).
    Alerts carry kind=IdentityFlood and no source."""
    z = z_score(confidence)
    train, test = split(per_interval_new_ids, train_fraction)
    return mean_shift_alerts(test, train.clean_values(), z, window, "IdentityFlood")


def merge_alerts(*alert_lists: list[AnomalyAlert]) -> list[AnomalyAlert]:
    """Deterministic timestamp-ordered merge."""
    merged = [a for alerts in alert_lists for a in alerts]
    merged.sort(key=lambda a: (a.timestamp, KINDS.index(a.kind), a.source, a.observed))
    return merged
