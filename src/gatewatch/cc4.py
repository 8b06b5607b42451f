"""Corner-classification (CC4) intrusion labeling and the event-log pipeline.

Event records are symbolized into binary vectors (one-hot categoricals,
thermometer-coded numerics), classified by a one-shot-trained CC4 network
into Known / Unknown / Attack, and merged with rate-based surge/dropout
alerts into a single timestamp-ordered alert stream.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from itertools import compress

import numpy as np

from .detect import (
    AnomalyAlert,
    dropout_block,
    mean_shift_block,
    merge_alerts,
    z_score,
)
from .errors import (
    EmptyTrainingSet,
    MalformedNetwork,
    NonNumericValue,
    SchemaMismatch,
    WidthMismatch,
)
from .series import TimeSeries, band_stats, interval_index, to_utc

PACKET_CLASSES = ("Known", "Unknown", "Attack")
UNKNOWN, ATTACK = PACKET_CLASSES.index("Unknown"), PACKET_CLASSES.index("Attack")

# Probes classified per block: bounds the (probes x hidden neurons) firing
# matrix whatever the number of probes.
BLOCK_SIZE = 4096
# Cells of the (sources x intervals) rate-count block scored at once: bounds
# the memory of rate scoring whatever the number of sources. A group holds at
# least one source.
RATE_BLOCK_CELLS = 2 ** 16
# Stream stamps run as int64 microseconds since the epoch of their clock.
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
NAIVE_EPOCH = datetime(1970, 1, 1)
MICROSECOND = timedelta(microseconds=1)


@dataclass(frozen=True)
class EventLogRecord:
    timestamp: datetime
    source_id: str
    fields: dict

    def dedupe_key(self) -> tuple:
        return (self.source_id, self.timestamp,
                tuple(sorted(self.fields.items())))

    def to_json_obj(self) -> dict:
        """The record as one event line; parse_event_obj reads it back."""
        return {"ts": self.timestamp.isoformat(), "src": self.source_id, **self.fields}


def intake_key(record: EventLogRecord) -> tuple | None:
    """The record's (source id, stamp), or None when the record is malformed:
    it has no source or no stamp, or a field holds a JSON list or object,
    which leaves its dedupe key unhashable. The stream and CC4 training both
    skip it. Records that share this key are told apart by dedupe_key."""
    if not record.source_id or record.timestamp is None:
        return None
    try:
        hash(tuple(record.fields.values()))
    except TypeError:
        return None
    return record.source_id, record.timestamp


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
    fields = obj.copy()
    del fields["ts"], fields["src"]
    return EventLogRecord(timestamp=to_utc(timestamp), source_id=str(src),
                          fields=fields)


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
        an (n,) unknown-value flag. A thermometer value that float() rejects
        raises NonNumericValue."""
        n = len(values)
        if self.kind == "one_hot":
            index = np.array([self.vocabulary.index(v) if v in self.vocabulary else -1
                              for v in values], dtype=np.int64)
            known = index >= 0
            bits = np.zeros((n, self.width), dtype=np.int8)
            bits[np.flatnonzero(known), index[known]] = 1
            return bits, ~known
        # thermometer: the bin is the count of edges at or below the value
        # (edges in any order, NaN never counted); set it and every lower bin
        v = np.empty(n, dtype=np.float64)
        for k, x in enumerate(values):
            try:
                v[k] = float(x)
            except (TypeError, ValueError):
                raise NonNumericValue(
                    f"field {self.name!r} holds {x!r}, not a number") from None
        edges = np.array(self.bin_edges, dtype=np.float64)
        bin_index = (v[:, None] >= edges).sum(axis=1)
        bits = (np.arange(self.width) <= bin_index[:, None]).astype(np.int8)
        return bits, np.zeros(n, dtype=bool)


@dataclass(frozen=True)
class SymbolSchema:
    encoders: tuple[FieldEncoder, ...]

    @property
    def total_bits(self) -> int:
        return sum(e.width for e in self.encoders)


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
    def from_json(cls, text: str) -> "CC4Network":
        """The network a `to_json` text holds, passed through the checks of
        cc4_train; any other text raises MalformedNetwork."""
        try:
            obj = json.loads(text)
            rows = [[int(ch) for ch in row] for row in obj["vectors"]]
            return cc4_train(list(zip(rows, obj["classes"], strict=True)), obj["radius"])
        except (EmptyTrainingSet, KeyError, TypeError, ValueError, WidthMismatch) as exc:
            raise MalformedNetwork(f"not a CC4 network: {type(exc).__name__}: {exc}") from exc


def cc4_train(samples: list[tuple[np.ndarray, str]], radius: int) -> CC4Network:
    """One-shot construction; no iterative optimization."""
    if not samples:
        raise EmptyTrainingSet("no training samples")
    if isinstance(radius, bool) or not isinstance(radius, int) or radius < 0:
        raise ValueError(f"radius must be an int >= 0, not {radius!r}")
    width = len(samples[0][0])
    for vec, cls in samples:
        if len(vec) != width:
            raise WidthMismatch(f"vector width {len(vec)} vs {width}")
        if cls not in PACKET_CLASSES:
            raise ValueError(f"unknown class {cls!r}")
    vectors = np.array([np.asarray(v, dtype=np.int8) for v, _ in samples])
    if not np.isin(vectors, (0, 1)).all():
        raise ValueError("vector bits must be 0 or 1")
    return CC4Network(radius=radius, vectors=vectors,
                      classes=[cls for _, cls in samples])


def classify_block(network: CC4Network, vectors: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Classify an (n, width) block of probes, BLOCK_SIZE probes at a time:
    (n,) indices into PACKET_CLASSES and (n,) ambiguity flags. The class is
    the first maximum of the class scores in PACKET_CLASSES order, flagged
    when several classes tie for it; a probe on which no neuron fires is
    Unknown and flagged."""
    # output weights: +1 from each neuron to its own class, -1 to the rest
    own_class = np.array(network.classes)[:, None] == np.array(PACKET_CLASSES)
    weights = np.where(own_class, 1, -1).astype(np.int32)
    classes = np.empty(len(vectors), dtype=np.intp)
    ambiguous = np.empty(len(vectors), dtype=bool)
    for lo in range(0, len(vectors), BLOCK_SIZE):
        firing = network.fires_block(vectors[lo:lo + BLOCK_SIZE])
        scores = firing.astype(np.int32) @ weights
        winners = scores == scores.max(axis=1, keepdims=True)
        # with no neuron firing every score is 0, a tie that is already flagged
        classes[lo:lo + BLOCK_SIZE] = np.where(firing.any(axis=1),
                                               winners.argmax(axis=1), UNKNOWN)
        ambiguous[lo:lo + BLOCK_SIZE] = winners.sum(axis=1) > 1
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
    return _training_samples(events, symbolize_block(events, schema), schema,
                             attack_cells, start, interval_seconds)


def _training_samples(events: list[EventLogRecord],
                      block: tuple[np.ndarray, np.ndarray, np.ndarray],
                      schema: SymbolSchema, attack_cells: set[tuple[int, str]],
                      start: datetime, interval_seconds: float,
                      ) -> list[tuple[np.ndarray, str]]:
    """training_samples from the symbolize_block result of `events`."""
    vectors, _, matched = block
    if not matched.all():
        raise _mismatch(events[int(np.argmin(matched))], schema)
    first = _first_rows(vectors)
    slots = interval_index([events[i].timestamp for i in first], start,
                           interval_seconds)
    return [(vectors[i].copy(),
             "Attack" if (idx, events[i].source_id) in attack_cells else "Known")
            for i, idx in zip(first, slots.tolist())]


def _first_rows(vectors: np.ndarray) -> list[int]:
    """Index of the first of each distinct row of a 0/1 block, ascending. Each
    row is packed to bytes and compared as one value, so one 1-D unique finds
    them whatever the width."""
    packed = np.packbits(vectors, axis=1)
    if packed.shape[1] == 0:      # zero bits wide: every row is the empty row
        return [0] if len(vectors) else []
    rows = np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1])))
    _, first = np.unique(rows.ravel(), return_index=True)
    return np.sort(first).tolist()


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
        return asdict(self)


def read_events_jsonl(path) -> list[EventLogRecord]:
    """Every event of a JSON-lines log; blank lines are skipped. A line that is
    not an event record raises SchemaMismatch naming its line number."""
    events = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    return TimeSeries(start=start, interval_seconds=interval_seconds, values=counts)


def _rate_alerts(ranks: np.ndarray, names: list[str], slots: np.ndarray,
                 config: StreamConfig, start: datetime, duration: int) -> list[AnomalyAlert]:
    """Dropout and surge alerts on each source's record count per interval,
    from each record's rank in the sorted source ids `names` and slot in
    [0, duration), scored a group of sources at a time, in source order."""
    z = z_score(config.confidence)
    # Surge scoring takes the first half of the run as each source's baseline
    # and scores the rest; runs shorter than four intervals get none.
    n_train = math.ceil(0.5 * duration)
    present, rows = np.unique(ranks, return_inverse=True)
    # Cells of the (sources x duration) count matrix, sorted so that each
    # group of sources is one slice. The whole matrix is never built:
    # thousands of one-shot Sybil sources would make it far larger than the
    # input.
    cells = np.sort(rows * duration + slots)
    group = max(1, RATE_BLOCK_CELLS // duration)
    alerts: list[AnomalyAlert] = []
    for lo in range(0, len(present), group):
        sources = [names[r] for r in present[lo:lo + group].tolist()]
        first, last = np.searchsorted(cells, [lo * duration, (lo + len(sources)) * duration])
        counts = np.bincount(cells[first:last] - lo * duration,
                             minlength=len(sources) * duration)
        counts = counts.astype(float).reshape(len(sources), duration)
        alerts.extend(dropout_block(counts == 0, config.gap_threshold, start,
                                    config.interval_seconds, sources))
        if duration >= 4:
            alerts.extend(mean_shift_block(counts, n_train,
                                           *band_stats(counts[:, :n_train]), z,
                                           config.surge_window, "Surge", start,
                                           config.interval_seconds, sources))
    return alerts


def _intake_columns(records: list[EventLogRecord],
                    ) -> tuple[list[EventLogRecord], np.ndarray, np.ndarray, list[str]]:
    """The records intake_key does not refuse, with their stamps as int64
    microseconds since the epoch of the first stamp's clock, their source ids
    as ranks in sorted order, and the sorted source ids. A stamp on the other
    clock, naive among aware or aware among naive, raises TypeError ("can't
    subtract offset-naive and offset-aware datetimes"): the two have no order."""
    keys = list(map(intake_key, records))
    kept = [rec for rec, key in zip(records, keys) if key is not None]
    sources, stamps = zip(*(key for key in keys if key is not None)) if kept else ((), ())
    epoch = NAIVE_EPOCH if stamps and stamps[0].utcoffset() is None else EPOCH
    names = sorted(set(sources))
    rank_of = {source: r for r, source in enumerate(names)}
    return (kept,
            np.fromiter(((stamp - epoch) // MICROSECOND for stamp in stamps), np.int64,
                        len(kept)),
            np.fromiter(map(rank_of.__getitem__, sources), np.int64, len(kept)),
            names)


def _duplicates(kept: list[EventLogRecord], stamps: np.ndarray, ranks: np.ndarray,
                by_key: np.ndarray, on_time: np.ndarray) -> np.ndarray:
    """Mask of the on-time records whose dedupe_key an earlier on-time record
    has. Only a record in a run of equal (stamp, source) in `by_key`, the
    stable (stamp, source rank) order, can be one, so only those records take
    their dedupe key; a run is in input order, and no key is in two runs."""
    group = by_key[on_time[by_key]]
    same = (ranks[group[1:]] == ranks[group[:-1]]) & (stamps[group[1:]] == stamps[group[:-1]])
    shared = np.zeros(len(group), dtype=bool)
    shared[1:] = same
    shared[:-1] |= same
    duplicate = np.zeros(len(kept), dtype=bool)
    seen: set[tuple] = set()
    for i in group[shared].tolist():
        key = kept[i].dedupe_key()
        if key in seen:
            duplicate[i] = True
        else:
            seen.add(key)
    return duplicate


def stream_pipeline(records: list[EventLogRecord], schema: SymbolSchema,
                    network: CC4Network | None, config: StreamConfig,
                    labels: list[tuple[int, str, str]] | None = None, radius: int = 1,
                    ) -> tuple[list[AnomalyAlert], StreamCounts, CC4Network]:
    """collect -> cleanse -> [train ->] symbolize -> classify -> emit.

    Records are accepted in roughly increasing time; anything older than the
    bounded skew window is counted late and excluded, never silently
    reordered. End of input flushes everything. A record without a source or
    stamp, or with a field that holds a JSON list or object, is counted in
    `dropped_malformed` and excluded before it can move the skew window. A
    given network whose width is not the schema's raises WidthMismatch, a
    negative skew window (`skew_intervals * interval_seconds`) ValueError, and
    naive and aware stamps among the records intake keeps TypeError.

    Give a network or label rows, not both. Label rows train a network of
    `radius` on the records the intake accepts or finds late, duplicates
    aside, in (timestamp, source id) order, so the interval grid starts at the
    earliest of them. Returns the alerts, the counts and the network used.

    The intake runs on columns: a record is late when its stamp is below the
    running maximum of the stamps before it less the skew (a late record
    never raises that maximum, and a duplicate does). One stable sort on
    (stamp, source rank) serves dedupe, training and acceptance; a record
    after a late one of its stamp is late too, so accepted ones come first.
    """
    if (network is None) == (labels is None):
        raise ValueError("stream_pipeline takes a network or label rows, not both or neither")
    if network is not None and network.width != schema.total_bits:
        raise WidthMismatch(f"network width {network.width} vs schema {schema.total_bits}")
    skew_seconds = config.skew_intervals * config.interval_seconds
    if skew_seconds < 0:
        raise ValueError(f"the skew window of {skew_seconds} s is negative")
    skew = timedelta(seconds=skew_seconds)
    counts = StreamCounts(records_in=len(records))
    kept, stamps, ranks, names = _intake_columns(records)
    late = np.zeros(len(kept), dtype=bool)
    late[1:] = stamps[1:] < np.maximum.accumulate(stamps)[:-1] - skew // MICROSECOND
    by_key = np.lexsort((ranks, stamps))
    duplicate = _duplicates(kept, stamps, ranks, by_key, ~late)
    dropped = duplicate if labels is not None else duplicate | late
    log = by_key[~dropped[by_key]]
    log_records = [kept[i] for i in log.tolist()]
    block = symbolize_block(log_records, schema)
    if labels is not None:
        if not log_records:
            raise EmptyTrainingSet("no well-formed event in the input to train on")
        network = cc4_train(_training_samples(log_records, block, schema,
                                              {(i, d) for i, d, _ in labels},
                                              log_records[0].timestamp,
                                              config.interval_seconds),
                            radius)
    on_time = ~late[log]
    accepted = list(compress(log_records, on_time))
    vectors, unknown_value, matched = (part[on_time] for part in block)
    emitted = list(compress(accepted, matched))
    classes, ambiguous = classify_block(network, vectors[matched])
    ambiguous |= unknown_value[matched]
    flag = classes == ATTACK
    if config.strict_unknown:
        flag |= classes == UNKNOWN
    intrusion_alerts = [AnomalyAlert(
        timestamp=emitted[i].timestamp, kind="Intrusion",
        observed=1.0, expected=0.0, band=None,
        severity="Critical" if classes[i] == ATTACK else "Warning",
        source=emitted[i].source_id, packet_class=PACKET_CLASSES[classes[i]],
        ambiguous=bool(ambiguous[i])) for i in np.flatnonzero(flag).tolist()]

    rate_alerts: list[AnomalyAlert] = []
    if accepted:
        start = accepted[0].timestamp
        slots = interval_index([r.timestamp for r in accepted], start,
                               config.interval_seconds)
        rate_alerts = _rate_alerts(ranks[log[on_time][matched]], names, slots[matched],
                                   config, start, int(slots[-1]) + 1)

    counts.dropped_duplicate = int(duplicate.sum())
    counts.dropped_late = int(late.sum())
    counts.emitted_classifications = len(emitted)
    counts.dropped_malformed = counts.records_in - len(emitted) - counts.dropped_late
    return merge_alerts(intrusion_alerts, rate_alerts), counts, network
