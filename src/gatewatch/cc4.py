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
from typing import Iterable, NamedTuple

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
from .series import TimeSeries, band_stats, check_count, check_interval, slots, to_utc

PACKET_CLASSES = ("Known", "Unknown", "Attack")
UNKNOWN, ATTACK = PACKET_CLASSES.index("Unknown"), PACKET_CLASSES.index("Attack")

# Probes classified per block: bounds the (probes x hidden neurons) firing
# matrix whatever the number of probes.
BLOCK_SIZE = 4096
# Cells of the (sources x intervals) rate-count block scored at once: bounds
# the memory of rate scoring whatever the number of sources. A group holds at
# least one source.
RATE_BLOCK_CELLS = 2 ** 16
# Intervals from the first accepted record that make each source's surge
# baseline: a count, not a share of the run, so no later record moves a band
# or a window. Every stock trace is 480 intervals long; 240 is its half.
BASELINE_INTERVALS = 240
# Stream stamps run as int64 microseconds since the UTC epoch.
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)


class EventLogRecord(NamedTuple):
    timestamp: datetime
    source_id: str
    fields: dict

    def to_json_obj(self) -> dict:
        """The record as one event line; parse_event_obj reads it back."""
        return {"ts": self.timestamp.isoformat(), "src": self.source_id, **self.fields}


def _fields_key(fields: dict) -> tuple:
    return tuple(sorted(fields.items()))


def intake_key(record: EventLogRecord) -> tuple | None:
    """The record's (source id, stamp), or None when the record is malformed:
    it has no source or no stamp, or a field holds a JSON list or object,
    which leaves its fields unhashable. The stream, CC4 training and
    new_id_counts all skip it. Records that share this key are told apart by
    their sorted fields (see _duplicates)."""
    if not record.source_id or record.timestamp is None:
        return None
    try:
        hash(tuple(record.fields.values()))
    except TypeError:
        return None
    return record.source_id, record.timestamp


def _event_parts(obj) -> EventLogRecord:
    """parse_event_obj's checks and fields, taken from `obj` itself: its `ts`
    and `src` are popped and what is left is the fields."""
    if not isinstance(obj, dict):
        raise SchemaMismatch("event record must be a JSON object")
    ts = obj.pop("ts", None)
    src = obj.pop("src", None)
    if not ts or src is None or src == "":
        raise SchemaMismatch("event record requires nonempty ts and src")
    if not isinstance(ts, str):
        raise SchemaMismatch(f"event ts must be a string, not {ts!r}")
    if type(src) not in (str, int):     # a bool is no device number
        raise SchemaMismatch(f"event src must be a string or an integer, not {src!r}")
    try:
        timestamp = datetime.fromisoformat(ts)
    except ValueError:
        raise SchemaMismatch(f"event ts {ts!r} is not an ISO 8601 stamp") from None
    return EventLogRecord(to_utc(timestamp), str(src), obj)


def parse_event_obj(obj: dict) -> EventLogRecord:
    """One event record; its stamp is taken to UTC, a naive stamp being UTC
    already, so every record and alert of a stream runs on one clock. Its
    source id is a nonempty string, or an integer taken as its decimal text."""
    return _event_parts(obj.copy() if isinstance(obj, dict) else obj)


def event_lines(events: list[EventLogRecord]) -> str:
    """`json.dumps(event.to_json_obj())` and a newline per event. Each run of one
    stamp, each source and each (key, str value) are encoded once; a finite float
    is its repr, as in json. Any other key or value, or a field named ts or src,
    dumps the event whole. Memo keys are str or tuple: 1, 1.0 and True are equal."""
    dumps, memo, lines, last = json.dumps, {}, [], None
    for event in events:
        ts, src, fields = event
        if type(src) is str and "ts" not in fields and "src" not in fields:
            if ts is not last:
                last, head = ts, f'{{"ts": {dumps(ts.isoformat())}, "src": '
            line = [head, memo.get(src) or memo.setdefault(src, dumps(src))]
            for kv in fields.items():
                key, value = kv
                if type(key) is str and type(value) is str:
                    line.append(memo.get(kv) or memo.setdefault(
                        kv, f", {dumps(key)}: {dumps(value)}"))
                elif type(key) is str and type(value) is float and math.isfinite(value):
                    line.append(f", {memo.get(key) or memo.setdefault(key, dumps(key))}: {value!r}")
                else:
                    break
            else:
                lines.append("".join(line) + "}\n")
                continue
        lines.append(dumps(event.to_json_obj()) + "\n")
    return "".join(lines)


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


def symbolize_block(log: EventColumns) -> tuple[np.ndarray, np.ndarray]:
    """Symbolize the intake `log` for its schema, one encoder's column block
    at a time: the (n, total_bits) int8 code matrix and the (n,)
    unknown-value flag, one row per intake row. Each column is encoded whole,
    so the row of a record whose field set is not the schema's (see
    `log.unmatched`) encodes its NaNs; that row is then cleared, unflagged."""
    vectors = np.empty((len(log.matched), log.schema.total_bits), dtype=np.int8)
    unknown = np.zeros(len(log.matched), dtype=bool)
    col = 0
    for enc, column in zip(log.schema.encoders, log.values):
        bits, flag = enc.encode_column(column)
        vectors[:, col:col + enc.width] = bits
        unknown |= flag
        col += enc.width
    other = list(log.unmatched)
    vectors[other], unknown[other] = 0, False
    return vectors, unknown


def _mismatch(fields: dict, schema: SymbolSchema) -> SchemaMismatch:
    names = sorted({e.name for e in schema.encoders})
    return SchemaMismatch(f"schema fields {names} vs record {sorted(fields)}")


def symbolize(record: EventLogRecord, schema: SymbolSchema) -> tuple[np.ndarray, bool]:
    """Concatenated per-field binary code plus an unknown-value flag: the
    block function on a one-record intake. A record the intake drops, or
    whose field set is not the schema's, raises SchemaMismatch."""
    log = _intake([record], schema)
    if not len(log.matched):
        raise SchemaMismatch("the intake drops a record with no source, no stamp, "
                             "or a field that holds a JSON list or object")
    if not log.matched[0]:
        raise _mismatch(record.fields, schema)
    vectors, unknown = symbolize_block(log)
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
    check_count("radius", radius, least=0)
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


def _training_samples(vectors: np.ndarray, intake: EventColumns, rows: np.ndarray,
                      attack_cells: set[tuple[int, str]], interval_seconds: float,
                      ) -> list[tuple[np.ndarray, str]]:
    """Labeled (vector, class) pairs for CC4 training from the intake's code
    block, at the intake rows `rows`, whose records all match the schema, in
    that order: a record is Attack when its (interval index, source id) cell,
    on the grid that starts at the record of rows[0], is in `attack_cells`,
    else Known. Duplicate vectors keep their first label."""
    first = rows[_first_rows(vectors[rows])]
    offsets = (intake.micros[first] - intake.micros[rows[0]]) / 1e6
    return [(vectors[i].copy(),
             "Attack" if (slot, intake.names[intake.ranks[i]]) in attack_cells else "Known")
            for i, slot in zip(first.tolist(), slots(offsets, interval_seconds).tolist())]


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
    # records_in - emitted - late: intake drops, schema mismatches, duplicates
    dropped_malformed: int = 0
    dropped_duplicate: int = 0
    dropped_late: int = 0

    def to_json_obj(self) -> dict:
        return asdict(self)


# The default decoder's scanner: one value from a given index of a text.
_scan_once = json.JSONDecoder().scan_once


def _decode(line: str):
    """json.loads(line) of a stripped line. The scanner alone decodes a line
    that it reads whole as one value; json.loads is called on any other line,
    so each error is its own. A stripped line has no JSON whitespace at either
    end, and one that starts with a byte order mark stops the scanner."""
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    return obj if end == len(line) else json.loads(line)


def read_events(path):
    """Each event of a JSON-lines log, blank lines skipped. A line that is not
    an event record raises SchemaMismatch naming its line number."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = _event_parts(_decode(line))
            except json.JSONDecodeError as exc:
                raise SchemaMismatch(f"line {number}: not JSON: {exc}") from None
            except (SchemaMismatch, ValueError) as exc:  # ValueError: an int past the digit limit
                raise SchemaMismatch(f"line {number}: {exc}") from None
            yield event


def read_events_jsonl(path) -> list[EventLogRecord]:
    """Every event of a JSON-lines log; blank lines are skipped. A line that is
    not an event record raises SchemaMismatch naming its line number."""
    return list(read_events(path))


@dataclass(eq=False)
class EventColumns:
    """A log's events as the stream's intake columns: the records intake_key
    keeps, in input order, one entry per record in each column."""
    schema: SymbolSchema
    records_in: int              # records read, the malformed ones included
    micros: np.ndarray           # int64 µs since EPOCH
    ranks: np.ndarray            # int64 rank of the source id in `names`
    names: list[str]             # the sorted source ids
    values: list[list]           # per schema encoder; NaN where not matched
    matched: np.ndarray          # the field set is the schema's
    unmatched: dict[int, dict]   # the fields of each record not matched

    def fields(self, i: int) -> dict:
        """Record i's fields (for a matched record, in schema order)."""
        if i in self.unmatched:
            return self.unmatched[i]
        return {enc.name: column[i] for enc, column in zip(self.schema.encoders, self.values)}

    def stamp(self, i: int) -> datetime:
        """Record i's stamp, in UTC."""
        return EPOCH + int(self.micros[i]) * MICROSECOND


def _intake(events, schema: SymbolSchema) -> EventColumns:
    """The intake's one pass over the records (in memory, or as read from a
    log): intake_key drops the malformed, and each kept record gives its
    stamp, its source id and, when its field set is the schema's, its value
    of each field. Stamps become µs since EPOCH; a naive stamp is UTC, as
    series.to_utc takes it."""
    encoders = [enc.name for enc in schema.encoders]
    names = set(encoders)
    values = [[] for _ in encoders]
    # Values go straight to their columns: a row tuple kept per record would
    # make the garbage collector walk every row again and again.
    fill = [(column.append, name) for column, name in zip(values, encoders)]
    stamps, sources, unmatched = [], [], {}
    records_in = 0
    for records_in, event in enumerate(events, start=1):
        key = intake_key(event)
        if key is None:
            continue
        fields = event.fields
        if fields.keys() == names:
            for append, name in fill:
                append(fields[name])
        else:
            unmatched[len(stamps)] = fields
            for append, _ in fill:
                append(math.nan)
        sources.append(key[0])
        stamps.append(key[1])
    sorted_sources = sorted(set(sources))
    rank_of = {source: r for r, source in enumerate(sorted_sources)}
    matched = np.ones(len(stamps), dtype=bool)
    matched[list(unmatched)] = False
    return EventColumns(
        schema, records_in,
        np.fromiter((((to_utc(stamp) if stamp.tzinfo is None else stamp) - EPOCH)
                     // MICROSECOND for stamp in stamps), np.int64, len(stamps)),
        np.fromiter(map(rank_of.__getitem__, sources), np.int64, len(stamps)),
        sorted_sources, values, matched, unmatched)


def new_id_counts(records: list[EventLogRecord], start: datetime,
                  interval_seconds: float, duration: int) -> TimeSeries:
    """Count distinct never-before-seen source ids per interval: each source
    counts once, in the interval of its earliest record. The records go
    through the stream's intake, so a record intake_key drops is never seen,
    and a slot is series.slots of the µs offset from `start`, as in the stream."""
    log = _intake(records, SymbolSchema(()))
    first = np.full(len(log.names), np.iinfo(np.int64).max)
    np.minimum.at(first, log.ranks, log.micros)
    index = slots((first - (to_utc(start) - EPOCH) // MICROSECOND) / 1e6, interval_seconds)
    counts = np.bincount(index[(index >= 0) & (index < duration)],
                         minlength=duration).astype(float)
    return TimeSeries(start=start, interval_seconds=interval_seconds, values=counts)


def _rate_alerts(ranks: np.ndarray, names: list[str], slots: np.ndarray,
                 config: StreamConfig, start: datetime, duration: int) -> list[AnomalyAlert]:
    """Dropout and surge alerts on each source's record count per interval,
    from each record's rank in the sorted source ids `names` and slot in
    [0, duration), scored a group of sources at a time, in source order.
    Surges are scored after the first BASELINE_INTERVALS slots, against their
    band; a run no longer than that gets none."""
    z = z_score(config.confidence)
    n_train = BASELINE_INTERVALS
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
        if duration > n_train:
            alerts.extend(mean_shift_block(counts, n_train,
                                           *band_stats(counts[:, :n_train]), z,
                                           config.surge_window, "Surge", start,
                                           config.interval_seconds, sources))
    return alerts


def _duplicates(intake: EventColumns, by_key: np.ndarray, on_time: np.ndarray) -> np.ndarray:
    """Mask of the on-time records whose dedupe key, (source, stamp, sorted
    fields), an earlier on-time record has: the one dedupe rule. Only a record
    in a run of equal (stamp, source) in `by_key`, the stable (stamp, source
    rank) order, can be one, so only those records take their dedupe key; a
    run is in input order, and no key is in two runs."""
    stamps, ranks = intake.micros, intake.ranks
    group = by_key[on_time[by_key]]
    same = (ranks[group[1:]] == ranks[group[:-1]]) & (stamps[group[1:]] == stamps[group[:-1]])
    shared = np.zeros(len(group), dtype=bool)
    shared[1:] = same
    shared[:-1] |= same
    duplicate = np.zeros(len(stamps), dtype=bool)
    seen: set[tuple] = set()
    for i in group[shared].tolist():
        key = (int(ranks[i]), int(stamps[i]), _fields_key(intake.fields(i)))
        if key in seen:
            duplicate[i] = True
        else:
            seen.add(key)
    return duplicate


def stream_pipeline(records: Iterable[EventLogRecord], schema: SymbolSchema,
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
    confidence off the Z table UnsupportedConfidence, and a negative skew
    window (`skew_intervals * interval_seconds`), an interval that is not a
    positive finite number, or a surge window or gap threshold that
    `series.check_count` refuses ValueError, all before any record is read.

    Give a network or label rows, not both. Label rows train a network of
    `radius` on the records the intake accepts or finds late, duplicates
    aside, in (timestamp, source id) order, so the interval grid starts at the
    earliest of them. Returns the alerts, the counts and the network used.
    The surge baseline is the first BASELINE_INTERVALS intervals from the
    first accepted record: a log that spans no more gets no surge scoring.

    `records` is any iterable in arrival order, a list or read_events(path),
    taken in one pass into intake columns: a record is late when its stamp
    is below the running maximum of the stamps before it less the skew (a
    late record never raises that maximum, and a duplicate does). The whole
    intake is symbolized in one call, each column whole, in arrival order, so
    a late record's values are checked too, and every index after it is an
    intake row. One stable sort on (stamp, source rank) gives the one row
    set, its records that are not duplicates, on both paths: training reads
    it all, classification and rate scoring its on-time part (a record after
    a late one of its stamp is late too, so those come first). A record's
    interval slot is series.slots of its offset from the grid start,
    (µs - µs0) / 1e6 s: the offset's total_seconds(), rounded once. So a
    grid too fine to count raises OverflowError, as does a skew window past
    timedelta's range. A naive stamp is UTC, and every alert is stamped in
    UTC.
    """
    if (network is None) == (labels is None):
        raise ValueError("stream_pipeline takes a network or label rows, not both or neither")
    if network is not None and network.width != schema.total_bits:
        raise WidthMismatch(f"network width {network.width} vs schema {schema.total_bits}")
    skew_seconds = config.skew_intervals * config.interval_seconds
    if skew_seconds < 0:
        raise ValueError(f"the skew window of {skew_seconds} s is negative")
    check_interval(config.interval_seconds)
    z_score(config.confidence)
    for name in ("surge_window", "gap_threshold"):
        check_count(name, getattr(config, name))
    skew = timedelta(seconds=skew_seconds)
    intake = _intake(records, schema)
    stamps, ranks = intake.micros, intake.ranks
    late = np.zeros(len(stamps), dtype=bool)
    late[1:] = stamps[1:] < np.maximum.accumulate(stamps)[:-1] - skew // MICROSECOND
    by_key = np.lexsort((ranks, stamps))
    duplicate = _duplicates(intake, by_key, ~late)
    rows = by_key[~duplicate[by_key]]
    vectors, unknown_value = symbolize_block(intake)
    matched = intake.matched
    if labels is not None:
        if not len(rows):
            raise EmptyTrainingSet("no well-formed event in the input to train on")
        if not matched[rows].all():
            raise _mismatch(intake.fields(int(rows[np.argmin(matched[rows])])), schema)
        network = cc4_train(_training_samples(vectors, intake, rows,
                                              {(i, d) for i, d, _ in labels},
                                              config.interval_seconds), radius)
    accepted = rows[~late[rows]]
    emitted = accepted[matched[accepted]]
    classes, ambiguous = classify_block(network, vectors[emitted])
    ambiguous |= unknown_value[emitted]
    flag = classes == ATTACK
    if config.strict_unknown:
        flag |= classes == UNKNOWN
    intrusion_alerts = [AnomalyAlert(
        timestamp=intake.stamp(emitted[i]), kind="Intrusion",
        observed=1.0, expected=0.0, band=None,
        severity="Critical" if classes[i] == ATTACK else "Warning",
        source=intake.names[ranks[emitted[i]]], packet_class=PACKET_CLASSES[classes[i]],
        ambiguous=bool(ambiguous[i])) for i in np.flatnonzero(flag).tolist()]

    rate_alerts: list[AnomalyAlert] = []
    if len(accepted):
        micros = stamps[accepted]
        rate_slots = slots((micros - micros[0]) / 1e6, config.interval_seconds)
        rate_alerts = _rate_alerts(ranks[emitted], intake.names,
                                   rate_slots[matched[accepted]], config,
                                   intake.stamp(accepted[0]), int(rate_slots[-1]) + 1)

    dropped_late = int(late.sum())
    counts = StreamCounts(records_in=intake.records_in, emitted_classifications=len(emitted),
                          dropped_malformed=intake.records_in - len(emitted) - dropped_late,
                          dropped_duplicate=int(duplicate.sum()), dropped_late=dropped_late)
    return merge_alerts(intrusion_alerts, rate_alerts), counts, network
