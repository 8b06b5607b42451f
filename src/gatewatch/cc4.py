"""Corner-classification (CC4) intrusion labeling and the event-log pipeline.

Event records are symbolized into binary vectors (one-hot categoricals,
thermometer-coded numerics), classified by a one-shot-trained CC4 network
into Known / Unknown / Attack, and merged with rate-based surge/dropout
alerts into a single timestamp-ordered alert stream.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import compress

import numpy as np

from .detect import (
    AnomalyAlert,
    dropout_block,
    mean_shift_block,
    merge_alerts,
    z_score,
)
from .errors import EmptyTrainingSet, SchemaMismatch, WidthMismatch
from .series import TimeSeries, interval_index, to_utc

PACKET_CLASSES = ("Known", "Unknown", "Attack")
UNKNOWN, ATTACK = PACKET_CLASSES.index("Unknown"), PACKET_CLASSES.index("Attack")

# Records symbolized and classified per block: bounds the memory of the block
# path whatever the number of records.
BLOCK_SIZE = 4096
# Cells of the (sources x intervals) rate-count block scored at once: bounds
# the memory of rate scoring whatever the number of sources. A group holds at
# least one source.
RATE_BLOCK_CELLS = 2 ** 16


@dataclass(frozen=True)
class EventLogRecord:
    timestamp: datetime
    source_id: str
    fields: dict

    def dedupe_key(self) -> tuple:
        return (self.source_id, self.timestamp,
                tuple(sorted(self.fields.items())))


@dataclass(frozen=True)
class FieldEncoder:
    name: str
    kind: str                        # one_hot | thermometer
    vocabulary: tuple = ()           # one_hot
    bin_edges: tuple = ()            # thermometer; width = len(edges) + 1

    @property
    def width(self) -> int:
        if self.kind == "one_hot":
            return len(self.vocabulary)
        return len(self.bin_edges) + 1

    def encode(self, value) -> tuple[np.ndarray, bool]:
        """Returns (bits, unknown_flag). Out-of-vocabulary -> all zeros."""
        bits, unknown = self.encode_column([value])
        return bits[0], bool(unknown[0])

    def encode_column(self, values: list) -> tuple[np.ndarray, np.ndarray]:
        """Encode one field of many records: an (n, width) int8 bit block and
        an (n,) unknown-value flag."""
        n = len(values)
        if self.kind == "one_hot":
            index = np.array([self._first_match(v) for v in values], dtype=np.int64)
            known = index >= 0
            bits = np.zeros((n, self.width), dtype=np.int8)
            bits[np.flatnonzero(known), index[known]] = 1
            return bits, ~known
        # thermometer: the bin is the count of edges at or below the value
        # (edges in any order, NaN never counted); set it and every lower bin
        v = np.array([float(x) for x in values], dtype=np.float64)
        edges = np.array(self.bin_edges, dtype=np.float64)
        bin_index = (v[:, None] >= edges).sum(axis=1)
        bits = (np.arange(self.width) <= bin_index[:, None]).astype(np.int8)
        return bits, np.zeros(n, dtype=bool)

    def _first_match(self, value) -> int:
        """Index of the value's first vocabulary match; -1 when there is none."""
        try:
            return self.vocabulary.index(value)
        except ValueError:
            return -1


@dataclass(frozen=True)
class SymbolSchema:
    encoders: tuple[FieldEncoder, ...]

    @property
    def total_bits(self) -> int:
        return sum(e.width for e in self.encoders)

    def to_json_obj(self) -> dict:
        out = []
        for e in self.encoders:
            if e.kind == "one_hot":
                out.append({"name": e.name, "encoder": "one_hot",
                            "vocabulary": list(e.vocabulary)})
            else:
                out.append({"name": e.name, "encoder": "thermometer",
                            "bin_edges": list(e.bin_edges)})
        return {"fields": out}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SymbolSchema":
        encoders = []
        for f in obj["fields"]:
            if f["encoder"] == "one_hot":
                encoders.append(FieldEncoder(name=f["name"], kind="one_hot",
                                             vocabulary=tuple(f["vocabulary"])))
            else:
                encoders.append(FieldEncoder(name=f["name"], kind="thermometer",
                                             bin_edges=tuple(f["bin_edges"])))
        return cls(encoders=tuple(encoders))


def symbolize_block(records: list[EventLogRecord], schema: SymbolSchema,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symbolize many records at once, one encoder's column block at a time.

    Returns the (n, total_bits) int8 code matrix, the (n,) unknown-value flag
    and the (n,) mask of records whose field set matches the schema. Records
    that do not match are not encoded: their rows stay zero and unflagged.
    """
    names = {e.name for e in schema.encoders}
    n = len(records)
    matched = np.fromiter((rec.fields.keys() == names for rec in records),
                          dtype=bool, count=n)
    rows = records if matched.all() else list(compress(records, matched))
    vectors = np.zeros((n, schema.total_bits), dtype=np.int8)
    unknown = np.zeros(n, dtype=bool)
    col = 0
    for enc in schema.encoders:
        bits, flag = enc.encode_column([rec.fields[enc.name] for rec in rows])
        vectors[matched, col:col + enc.width] = bits
        unknown[matched] |= flag
        col += enc.width
    return vectors, unknown, matched


def _mismatch(record: EventLogRecord, schema: SymbolSchema) -> SchemaMismatch:
    names = sorted({e.name for e in schema.encoders})
    return SchemaMismatch(f"schema fields {names} vs record {sorted(record.fields)}")


def symbolize(record: EventLogRecord, schema: SymbolSchema) -> tuple[np.ndarray, bool]:
    """Concatenated per-field binary code plus an unknown-value flag."""
    vectors, unknown, matched = symbolize_block([record], schema)
    if not matched[0]:
        raise _mismatch(record, schema)
    return vectors[0], bool(unknown[0])


@dataclass
class CC4Network:
    """One-shot corner-classification network.

    One hidden neuron per training sample: input weights 2x-1 in {-1,+1},
    bias r - s + 1 with s the sample's 1-bit count. A hidden neuron fires on
    a probe exactly when its Hamming distance to the training vector is <= r.
    Output weights are +1 to the neuron's own class, -1 to the rest.
    """

    radius: int
    vectors: np.ndarray       # (n_samples, width) in {0,1}
    classes: list[str]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.int8)

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    def hidden_weights(self) -> np.ndarray:
        return (2 * self.vectors - 1).astype(np.int8)

    def hidden_biases(self) -> np.ndarray:
        s = self.vectors.sum(axis=1)
        return self.radius - s + 1

    def fires_block(self, vectors: np.ndarray) -> np.ndarray:
        """(n, hidden) firing matrix of an (n, width) block of probes. The
        products are taken in int32, so no probe width overflows them."""
        vectors = np.asarray(vectors, dtype=np.int8)
        if vectors.ndim != 2 or vectors.shape[1] != self.width:
            raise WidthMismatch(f"probe width {vectors.shape[1:]} vs network {self.width}")
        products = vectors.astype(np.int32) @ self.hidden_weights().T.astype(np.int32)
        return products + self.hidden_biases().astype(np.int32) > 0

    def fires(self, vector: np.ndarray) -> np.ndarray:
        return self.fires_block(np.asarray(vector)[None])[0]

    def to_json_obj(self) -> dict:
        # Weights are reconstructed from the vectors, never stored.
        return {
            "radius": self.radius,
            "vectors": ["".join(map(str, row)) for row in self.vectors.tolist()],
            "classes": list(self.classes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CC4Network":
        vectors = np.array([[int(ch) for ch in row] for row in obj["vectors"]],
                           dtype=np.int8)
        return cls(radius=obj["radius"], vectors=vectors, classes=list(obj["classes"]))

    @classmethod
    def from_json(cls, text: str) -> "CC4Network":
        return cls.from_json_obj(json.loads(text))


def cc4_train(samples: list[tuple[np.ndarray, str]], radius: int) -> CC4Network:
    """One-shot construction; no iterative optimization."""
    if not samples:
        raise EmptyTrainingSet("no training samples")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    width = len(samples[0][0])
    for vec, cls in samples:
        if len(vec) != width:
            raise WidthMismatch(f"vector width {len(vec)} vs {width}")
        if cls not in PACKET_CLASSES:
            raise ValueError(f"unknown class {cls!r}")
    vectors = np.array([np.asarray(v, dtype=np.int8) for v, _ in samples])
    return CC4Network(radius=radius, vectors=vectors,
                      classes=[cls for _, cls in samples])


def classify_block(network: CC4Network, vectors: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Classify an (n, width) block of probes: (n,) indices into
    PACKET_CLASSES and (n,) ambiguity flags. The class is the first maximum of
    the class scores in PACKET_CLASSES order, flagged when several classes tie
    for it; a probe on which no neuron fires is Unknown and flagged."""
    firing = network.fires_block(vectors)
    # output weights: +1 from each neuron to its own class, -1 to the rest
    own_class = np.array(network.classes)[:, None] == np.array(PACKET_CLASSES)
    scores = firing.astype(np.int32) @ np.where(own_class, 1, -1).astype(np.int32)
    winners = scores == scores.max(axis=1, keepdims=True)
    classes = winners.argmax(axis=1)
    ambiguous = winners.sum(axis=1) > 1
    # with no neuron firing every score is 0, a tie that is already flagged
    classes[~firing.any(axis=1)] = UNKNOWN
    return classes, ambiguous


def cc4_classify(network: CC4Network, vector: np.ndarray) -> tuple[str, bool]:
    """(class, ambiguous) of one probe; see classify_block."""
    classes, ambiguous = classify_block(network, np.asarray(vector)[None])
    return PACKET_CLASSES[classes[0]], bool(ambiguous[0])


def training_samples(events: list[EventLogRecord], schema: SymbolSchema,
                     attack_cells: set[tuple[int, str]], start: datetime,
                     interval_seconds: float) -> list[tuple[np.ndarray, str]]:
    """Labeled (vector, class) pairs for CC4 training, in event order: an
    event is Attack when its (interval index, source id) cell is in
    `attack_cells`, else Known. Duplicate vectors keep their first label. A
    record whose field set does not match the schema raises SchemaMismatch."""
    samples: list[tuple[np.ndarray, str]] = []
    seen: set[bytes] = set()
    for lo in range(0, len(events), BLOCK_SIZE):
        block = events[lo:lo + BLOCK_SIZE]
        vectors, _, matched = symbolize_block(block, schema)
        if not matched.all():
            raise _mismatch(block[int(np.argmin(matched))], schema)
        _, first = np.unique(vectors, axis=0, return_index=True)
        first = np.sort(first).tolist()
        slots = interval_index([block[i].timestamp for i in first], start,
                               interval_seconds)
        for i, idx in zip(first, slots.tolist()):
            key = vectors[i].tobytes()
            if key in seen:
                continue
            seen.add(key)
            cls = "Attack" if (idx, block[i].source_id) in attack_cells else "Known"
            samples.append((vectors[i].copy(), cls))
    return samples


# --- streaming pipeline -----------------------------------------------------


@dataclass
class StreamConfig:
    interval_seconds: float = 60.0
    skew_intervals: int = 5          # records older than this are dropped late
    strict_unknown: bool = False     # Unknown class also raises Intrusion alerts
    confidence: float = 0.95
    surge_window: int = 24
    gap_threshold: int = 3


@dataclass
class StreamCounts:
    records_in: int = 0
    emitted_classifications: int = 0
    dropped_malformed: int = 0       # includes duplicates
    dropped_duplicate: int = 0
    dropped_late: int = 0

    def to_json_obj(self) -> dict:
        return {
            "records_in": self.records_in,
            "emitted_classifications": self.emitted_classifications,
            "dropped_malformed": self.dropped_malformed,
            "dropped_duplicate": self.dropped_duplicate,
            "dropped_late": self.dropped_late,
        }


def parse_event_obj(obj: dict) -> EventLogRecord:
    """One event record; its stamp is taken to UTC, a naive stamp being UTC
    already, so every record and alert of a stream runs on one clock."""
    if not isinstance(obj, dict):
        raise SchemaMismatch("event record must be a JSON object")
    ts = obj.get("ts")
    src = obj.get("src")
    if not ts or not src:
        raise SchemaMismatch("event record requires nonempty ts and src")
    if not isinstance(ts, str):
        raise SchemaMismatch(f"event ts must be a string, not {ts!r}")
    try:
        timestamp = datetime.fromisoformat(ts)
    except ValueError:
        raise SchemaMismatch(f"event ts {ts!r} is not an ISO 8601 stamp") from None
    fields = {k: v for k, v in obj.items() if k not in ("ts", "src")}
    return EventLogRecord(timestamp=to_utc(timestamp), source_id=str(src),
                          fields=fields)


def read_events_jsonl(path) -> list[EventLogRecord]:
    """Every event of a JSON-lines log; blank lines are skipped. A line that is
    not an event record raises SchemaMismatch naming its line number."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(parse_event_obj(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise SchemaMismatch(f"line {number}: not JSON: {exc}") from None
            except SchemaMismatch as exc:
                raise SchemaMismatch(f"line {number}: {exc}") from None
    return events


def new_id_counts(records: list[EventLogRecord], start: datetime,
                  interval_seconds: float, duration: int) -> TimeSeries:
    """Count distinct never-before-seen source ids per interval: each source
    counts once, in the interval of its earliest record."""
    earliest: dict[str, datetime] = {}
    for rec in records:
        earliest[rec.source_id] = min(earliest.get(rec.source_id, rec.timestamp),
                                      rec.timestamp)
    slots = interval_index(earliest.values(), start, interval_seconds)
    counts = np.bincount(slots[(slots >= 0) & (slots < duration)],
                         minlength=duration).astype(float)
    return TimeSeries(start=start, interval_seconds=interval_seconds,
                      values=counts, missing=np.zeros(duration, dtype=bool))


def _rate_alerts(records: list[EventLogRecord], config: StreamConfig,
                 start: datetime, duration: int) -> list[AnomalyAlert]:
    """Dropout and surge alerts on each source's record count per interval,
    scored a group of sources at a time, groups in sorted source order.
    Every record lies in [start, start + duration intervals)."""
    z = z_score(config.confidence)
    start = to_utc(start)
    # Surge scoring takes the first half of the run as each source's baseline
    # and scores the rest; runs shorter than four intervals get none.
    n_train = math.ceil(0.5 * duration)
    ids = [r.source_id for r in records]
    sources = sorted(set(ids))
    row_of = {source: k for k, source in enumerate(sources)}
    rows = np.fromiter((row_of[source] for source in ids), dtype=np.int64, count=len(ids))
    slots = interval_index([r.timestamp for r in records], start, config.interval_seconds)
    # Cells of the (sources x duration) count matrix, sorted so that each
    # group of sources is one slice. The whole matrix is never built:
    # thousands of one-shot Sybil sources would make it far larger than the
    # input.
    cells = np.sort(rows * duration + slots)
    group = max(1, RATE_BLOCK_CELLS // duration)
    alerts: list[AnomalyAlert] = []
    for lo in range(0, len(sources), group):
        names = sources[lo:lo + group]
        first, last = np.searchsorted(cells, [lo * duration, (lo + len(names)) * duration])
        counts = np.bincount(cells[first:last] - lo * duration,
                             minlength=len(names) * duration)
        counts = counts.astype(float).reshape(len(names), duration)
        alerts.extend(dropout_block(counts == 0, config.gap_threshold, start,
                                    config.interval_seconds, names))
        if duration >= 4:
            alerts.extend(mean_shift_block(counts, n_train, counts[:, :n_train], z,
                                           config.surge_window, "Surge", start,
                                           config.interval_seconds, names))
    return alerts


def stream_pipeline(records: list[EventLogRecord], schema: SymbolSchema,
                    network: CC4Network, config: StreamConfig,
                    ) -> tuple[list[AnomalyAlert], StreamCounts]:
    """collect -> cleanse -> symbolize -> classify -> emit.

    Records are accepted in roughly increasing time; anything older than the
    bounded skew window is counted late and excluded, never silently
    reordered. End of input flushes everything.
    """
    counts = StreamCounts()
    skew = timedelta(seconds=config.skew_intervals * config.interval_seconds)
    max_ts: datetime | None = None
    seen: set[tuple] = set()
    accepted: list[EventLogRecord] = []

    for rec in records:
        counts.records_in += 1
        if not rec.source_id or rec.timestamp is None:
            counts.dropped_malformed += 1
            continue
        if max_ts is not None and rec.timestamp < max_ts - skew:
            counts.dropped_late += 1
            continue
        if max_ts is None or rec.timestamp > max_ts:
            max_ts = rec.timestamp
        key = rec.dedupe_key()
        if key in seen:
            counts.dropped_duplicate += 1
            counts.dropped_malformed += 1
            continue
        seen.add(key)
        accepted.append(rec)

    accepted.sort(key=lambda r: (r.timestamp, r.source_id))
    intrusion_alerts: list[AnomalyAlert] = []
    emitted: list[EventLogRecord] = []
    for lo in range(0, len(accepted), BLOCK_SIZE):
        block = accepted[lo:lo + BLOCK_SIZE]
        vectors, unknown_value, matched = symbolize_block(block, schema)
        counts.dropped_malformed += len(block) - int(matched.sum())
        block = list(compress(block, matched))
        if not block:
            continue
        classes, ambiguous = classify_block(network, vectors[matched])
        ambiguous |= unknown_value[matched]
        counts.emitted_classifications += len(block)
        emitted.extend(block)
        flag = classes == ATTACK
        if config.strict_unknown:
            flag |= classes == UNKNOWN
        for i in np.flatnonzero(flag).tolist():
            rec = block[i]
            intrusion_alerts.append(AnomalyAlert(
                timestamp=rec.timestamp, kind="Intrusion",
                observed=1.0, expected=0.0, band=None,
                severity="Critical" if classes[i] == ATTACK else "Warning",
                source=rec.source_id, packet_class=PACKET_CLASSES[classes[i]],
                ambiguous=bool(ambiguous[i])))

    rate_alerts: list[AnomalyAlert] = []
    if accepted:
        start = accepted[0].timestamp
        last = interval_index([accepted[-1].timestamp], start, config.interval_seconds)
        rate_alerts = _rate_alerts(emitted, config, start, int(last[0]) + 1)

    return merge_alerts(intrusion_alerts, rate_alerts), counts
