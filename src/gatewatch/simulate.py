"""Seeded generator of labeled smart-city IoT traces.

Baseline device traffic is a one-harmonic diurnal sinusoid plus Gaussian
noise, floored at zero. Scripted attacks perturb it: UDP floods multiply the
target's rate, buffer-overflow silence blanks the target's reporting, and
Sybil windows inject never-seen source identities into the event log. Every
perturbed (interval, device) is labeled, and nothing else is.
"""
from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path

import numpy as np

from .cc4 import EventLogRecord, FieldEncoder, SymbolSchema, event_lines
from .detect import AnomalyAlert
from .errors import InvalidScript, MalformedLabels, TimeBaseMismatch
from .ingest import format_timestamp
from .series import TimeSeries, check_count, check_interval, slot_time, slots, to_utc

DEVICE_KINDS = ("streetlight", "camera", "water_sensor")
ATTACK_KINDS = ("UdpFlood", "SilenceAfterOverflow", "Sybil")

# Which detector alert kinds count as hits for which scripted attack kinds.
COMPATIBLE = {
    "Surge": {"UdpFlood"},
    "Dropout": {"SilenceAfterOverflow"},
    "IdentityFlood": {"Sybil"},
    "Intrusion": set(ATTACK_KINDS),
}

KIND_PROTO = {"streetlight": "zigbee", "camera": "wifi", "water_sensor": "lora"}
GATEWAY_IP = "10.0.0.254"
# Header of the flow.csv a trace is written as (CICFlowMeter column names).
FLOW_COLUMNS = ["Flow ID", "Timestamp", "Fwd Pkt Len Mean", "Fwd Seg Size Avg",
                "Init Fwd Win Byts", "Init Bwd Win Byts", "Fwd Seg Size Min"]
LABEL_COLUMNS = ["interval_index", "device_id", "attack_kind"]


@dataclass(frozen=True)
class DeviceSpec:
    id: str
    kind: str
    base_rate: float
    diurnal_amplitude: float
    noise_std: float

    def __post_init__(self):
        if self.kind not in DEVICE_KINDS:
            raise ValueError(f"unknown device kind {self.kind!r}")
        for name in ("base_rate", "diurnal_amplitude", "noise_std"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.base_rate <= 0 or self.noise_std < 0:
            raise ValueError("base_rate must be > 0 and noise_std >= 0")


@dataclass(frozen=True)
class AttackScript:
    kind: str
    target_id: str
    start: int
    end: int
    magnitude: float = 10.0      # flood multiplier k
    fake_id_count: int = 20      # Sybil identities per interval

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        check_count("start", self.start, least=0)
        check_count("end", self.end)
        # only a Sybil window injects fake ids, and at least one
        check_count("fake_id_count", self.fake_id_count, least=1 if self.kind == "Sybil" else 0)
        if not self.magnitude > 0:
            raise ValueError("magnitude must be > 0")


@dataclass
class SimConfig:
    seed: int = 42
    duration: int = 480
    interval_seconds: float = 3600.0
    start: datetime = field(
        default_factory=lambda: datetime(2021, 1, 1, tzinfo=timezone.utc))
    fleet: list[DeviceSpec] = field(default_factory=list)
    attacks: list[AttackScript] = field(default_factory=list)

    def validate(self) -> None:
        check_count("duration", self.duration)
        check_interval(self.interval_seconds)
        if len(self.fleet) > 64536:  # flow ports 1000 + index stay <= 65535
            raise ValueError(f"a fleet holds at most 64536 devices, not {len(self.fleet)}")
        ids = {d.id for d in self.fleet}
        if len(ids) < len(self.fleet):
            raise ValueError("device ids must be unique")
        per_target: dict[str, list[AttackScript]] = {}
        for script in self.attacks:
            if script.target_id not in ids:
                raise InvalidScript(f"unknown target {script.target_id!r}")
            if not 0 <= script.start < script.end <= self.duration:
                raise InvalidScript(
                    f"window [{script.start}, {script.end}) out of range")
            per_target.setdefault(script.target_id, []).append(script)
        for scripts in per_target.values():
            scripts = sorted(scripts, key=lambda s: s.start)
            for a, b in zip(scripts, scripts[1:]):
                if b.start < a.end:
                    raise InvalidScript(
                        f"overlapping scripts on {a.target_id!r}")


@dataclass
class LabeledTrace:
    config: SimConfig
    device_series: dict[str, TimeSeries]
    events: list[EventLogRecord]
    labels: list[tuple[int, str, str]]   # (interval_index, device_id, attack_kind)
    device_ips: dict[str, str]

    @property
    def start(self) -> datetime:
        """The grid's start in UTC, as on the device series and every alert."""
        return to_utc(self.config.start)

    @property
    def interval_seconds(self) -> float:
        return self.config.interval_seconds

    @property
    def duration(self) -> int:
        return self.config.duration


def generate_trace(config: SimConfig) -> LabeledTrace:
    """Deterministic: identical seed + config give byte-identical trace files."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    period = 86400.0 / config.interval_seconds     # intervals per day
    t = np.arange(config.duration)
    stamps = [slot_time(to_utc(config.start), config.interval_seconds, i)
              for i in range(config.duration)]
    labels = sorted((i, s.target_id, s.kind)
                    for s in config.attacks for i in range(s.start, s.end))
    device_series: dict[str, TimeSeries] = {}
    device_ips: dict[str, str] = {}
    events: list[EventLogRecord] = []

    for index, dev in enumerate(config.fleet):
        subnet, host = divmod(index, 253)   # hosts .1 to .253; .254 is the gateway
        device_ips[dev.id] = f"10.0.{subnet}.{host + 1}"
        rates = (dev.base_rate
                 + dev.diurnal_amplitude * np.sin(2 * np.pi * t / period)
                 + rng.normal(0.0, dev.noise_std, size=config.duration))
        rates = np.maximum(rates, 0.0)
        udp = np.zeros(config.duration, dtype=bool)
        for s in config.attacks:
            if s.target_id != dev.id:
                continue
            if s.kind == "UdpFlood":
                with np.errstate(over="ignore", invalid="ignore"):
                    rates[s.start:s.end] *= s.magnitude
                if not np.isfinite(rates[s.start:s.end]).all():
                    raise OverflowError(f"a flood of magnitude {s.magnitude} on "
                                        f"{dev.id!r} gives rates that are not finite")
                udp[s.start:s.end] = True
            elif s.kind == "SilenceAfterOverflow":
                rates[s.start:s.end] = np.nan
        device_series[dev.id] = TimeSeries(
            start=config.start, interval_seconds=config.interval_seconds, values=rates)
        proto = KIND_PROTO[dev.kind]
        events.extend(EventLogRecord(stamp, dev.id, {"proto": "udp" if flooded else proto,
                                                     "packets": round(rate, 3), "status": "ok"})
                      for stamp, rate, flooded in zip(stamps, rates.tolist(), udp.tolist())
                      if rate == rate)    # NaN where silenced

    for s in config.attacks:
        if s.kind == "Sybil":
            events.extend(
                EventLogRecord(stamps[i], f"fake-{s.target_id}-{i}-{j}",
                               {"proto": "wifi", "packets": 1.0, "status": "ok"})
                for i in range(s.start, s.end) for j in range(s.fake_id_count))

    events.sort(key=itemgetter(0, 1))     # (timestamp, source_id)
    return LabeledTrace(config=config, device_series=device_series,
                        events=events, labels=labels, device_ips=device_ips)


def event_schema() -> SymbolSchema:
    """Default symbolization for simulator event logs."""
    return SymbolSchema(encoders=(
        FieldEncoder(name="proto", kind="one_hot",
                     vocabulary=("zigbee", "wifi", "lora", "udp")),
        FieldEncoder(name="packets", kind="thermometer",
                     bin_edges=(5.0, 20.0, 100.0, 500.0)),
        FieldEncoder(name="status", kind="one_hot",
                     vocabulary=("ok", "overflow", "retry")),
    ))


# --- file output ------------------------------------------------------------


def trace_files(trace: LabeledTrace) -> dict[str, str]:
    """The text of flow.csv (ingestion schema), events.jsonl and labels.csv. No
    flow row holds a comma, quote or line break, so they are joined without csv."""
    config = trace.config
    flows = sorted((f"{trace.device_ips[dev.id]}-{GATEWAY_IP}-{1000 + index}-80-17",
                    [f"{rate:.6f}" if rate == rate else None    # NaN where silenced
                     for rate in trace.device_series[dev.id].values.tolist()])
                   for index, dev in enumerate(config.fleet))
    rows = [",".join(FLOW_COLUMNS) + "\r\n"]
    for i in range(config.duration):
        stamp = format_timestamp(slot_time(trace.start, config.interval_seconds, i))
        rows.extend([f"{flow_id},{stamp},{cells[i]},{cells[i]},-1,8192,0\r\n"
                     for flow_id, cells in flows if cells[i] is not None])
    labels = io.StringIO()
    csv.writer(labels).writerows([LABEL_COLUMNS, *trace.labels])
    return {"flow.csv": "".join(rows), "events.jsonl": event_lines(trace.events),
            "labels.csv": labels.getvalue()}


def write_trace(trace: LabeledTrace, outdir) -> dict[str, Path]:
    """Write trace_files under outdir; returns the flow, events and labels paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = trace_files(trace)
    for name, text in files.items():
        (outdir / name).write_text(text, encoding="utf-8", newline="")
    return {Path(name).stem: outdir / name for name in files}


def read_labels_csv(path) -> list[tuple[int, str, str]]:
    """The (interval_index, device_id, attack_kind) rows of a labels.csv; a row
    that lacks one of them or has a non-integer index raises MalformedLabels."""
    labels = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            index, device_id, kind = (row.get(name) for name in LABEL_COLUMNS)
            if None in (index, device_id, kind):
                raise MalformedLabels(f"{path}: line {reader.line_num}: a label row "
                                      f"needs {', '.join(LABEL_COLUMNS)}")
            try:
                labels.append((int(index), device_id, kind))
            except ValueError:
                raise MalformedLabels(f"{path}: line {reader.line_num}: interval_index "
                                      f"{index!r} is not an integer") from None
    return labels


# --- scoring ----------------------------------------------------------------


@dataclass
class DetectionScore:
    precision: float | None
    recall: float
    true_positives: int
    false_positives: int
    false_negatives: int
    per_kind: dict[str, int]

    def to_json_obj(self) -> dict:
        return asdict(self)


def score_detections(alerts: list[AnomalyAlert], trace: LabeledTrace,
                     coverage: int = 1) -> DetectionScore:
    """Match alerts to ground-truth labels on the trace's time base.

    An alert covers intervals [i, i + coverage) starting at its timestamp
    (window-mean alerts flag a whole window). It is a true positive when it
    covers at least one kind-compatible label for its source; a label is
    recalled when some compatible alert covers it.
    """
    check_count("coverage", coverage)
    span = trace.interval_seconds * trace.duration
    label_set = set(trace.labels)
    by_interval: dict[int, list[tuple[int, str, str]]] = {}
    for label in label_set:
        by_interval.setdefault(label[0], []).append(label)
    intervals = sorted(by_interval)
    covered: set[tuple[int, str, str]] = set()
    tp = fp = 0
    per_kind: dict[str, int] = {}
    offsets = np.array([(alert.timestamp - trace.start).total_seconds() for alert in alerts])
    off_grid = (offsets < 0) | (offsets >= span) | (offsets % trace.interval_seconds != 0)
    if off_grid.any():
        stamp = alerts[int(np.argmax(off_grid))].timestamp
        raise TimeBaseMismatch(f"alert at {stamp.isoformat()} is off the trace grid")
    for alert, start_idx in zip(alerts, slots(offsets, trace.interval_seconds).tolist()):
        compatible = COMPATIBLE.get(alert.kind, set())
        first = bisect_left(intervals, start_idx)
        last = bisect_left(intervals, start_idx + coverage)
        hits = [
            (i, d, k) for slot in intervals[first:last] for (i, d, k) in by_interval[slot]
            if k in compatible
            and (not alert.source or d == alert.source
                 or k == "Sybil")  # flood of fake ids has no single source
        ]
        per_kind[alert.kind] = per_kind.get(alert.kind, 0) + 1
        if hits:
            tp += 1
            covered.update(hits)
        else:
            fp += 1
    fn = len(label_set - covered)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = len(covered) / len(label_set) if label_set else 1.0
    return DetectionScore(precision=precision, recall=recall,
                          true_positives=tp, false_positives=fp,
                          false_negatives=fn, per_kind=per_kind)


# --- stock scenarios --------------------------------------------------------


def default_fleet() -> list[DeviceSpec]:
    return [
        DeviceSpec(id="streetlight-1", kind="streetlight",
                   base_rate=20.0, diurnal_amplitude=5.0, noise_std=1.0),
        DeviceSpec(id="camera-1", kind="camera",
                   base_rate=50.0, diurnal_amplitude=10.0, noise_std=2.0),
        DeviceSpec(id="water-1", kind="water_sensor",
                   base_rate=10.0, diurnal_amplitude=2.0, noise_std=0.5),
    ]


def default_flood_config(seed: int = 42, magnitude: float = 10.0) -> SimConfig:
    return SimConfig(seed=seed, fleet=default_fleet(), attacks=[
        AttackScript(kind="UdpFlood", target_id="camera-1",
                     start=250, end=340, magnitude=magnitude)])


def default_silence_config(seed: int = 42) -> SimConfig:
    return SimConfig(seed=seed, fleet=default_fleet(), attacks=[
        AttackScript(kind="SilenceAfterOverflow", target_id="streetlight-1",
                     start=200, end=230)])


def default_sybil_config(seed: int = 42) -> SimConfig:
    return SimConfig(seed=seed, fleet=default_fleet(), attacks=[
        AttackScript(kind="Sybil", target_id="water-1",
                     start=300, end=360, fake_id_count=40)])
