"""The block CC4 path against the per-record reference it replaced.

The reference functions below are the per-record encode/score loops, kept
here verbatim except that activations are summed in int64 (the int8 product
they used overflowed above 127 bits; the probes here are narrower). The
per-source, per-stamp rate count loop and the sort-every-record new-identity
count are kept the same way, as references for the interval-grid versions;
the new-identity count skips the records `cc4.intake_key` drops, and the
reference stream builds its own (source, stamp, sorted fields) dedupe key.
The reference stream counts a record whose field holds a list or object as
malformed, the rule that replaced the duplicate filter's TypeError on it, and
reference training skips such a record. The block encoder reads the stream's
intake, so it is compared with the reference on the records the intake keeps.
The packed-row dedupe is pinned against the `np.unique(axis=0)` it replaced.
"""
import contextlib
import io
import json
import re
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, grid_step
from gatewatch import cc4, cli, simulate
from gatewatch.detect import (
    Z_TABLE,
    AnomalyAlert,
    detect_dropout,
    mean_shift_alerts,
    merge_alerts,
    z_score,
)
from gatewatch.errors import EmptyTrainingSet, GatewatchError, SchemaMismatch
from gatewatch.series import MICROSECOND, TimeSeries, slot_time, slots

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)
PLUS_ONE = timezone(timedelta(hours=1))
NAN = float("nan")


# --- per-record reference ---------------------------------------------------


def ref_encode(enc, value):
    bits = np.zeros(enc.width, dtype=np.int8)
    if enc.kind == "one_hot":
        try:
            bits[enc.vocabulary.index(value)] = 1
        except ValueError:
            return bits, True
        return bits, False
    v = float(value)
    bin_index = sum(1 for e in enc.bin_edges if v >= e)
    bits[:bin_index + 1] = 1
    return bits, False


def ref_symbolize(record, schema):
    names = {e.name for e in schema.encoders}
    got = set(record.fields)
    if names != got:
        raise SchemaMismatch(f"schema fields {sorted(names)} vs record {sorted(got)}")
    parts = []
    unknown = False
    for enc in schema.encoders:
        bits, flag = ref_encode(enc, record.fields[enc.name])
        parts.append(bits)
        unknown = unknown or flag
    return np.concatenate(parts), unknown


def ref_classify(network, vector):
    weights = (2 * network.vectors.astype(np.int64) - 1)
    biases = network.radius - network.vectors.sum(axis=1) + 1
    firing = weights @ np.asarray(vector, dtype=np.int64) + biases > 0
    if not firing.any():
        return "Unknown", True
    scores = {cls: 0 for cls in cc4.PACKET_CLASSES}
    for fired, cls in zip(firing, network.classes):
        if not fired:
            continue
        for c in scores:
            scores[c] += 1 if c == cls else -1
    best = max(scores.values())
    winners = [c for c in cc4.PACKET_CLASSES if scores[c] == best]
    return winners[0], len(winners) > 1


def ref_training_samples(events, schema, attack_cells, start, interval_seconds):
    samples = []
    seen = set()
    for event in events:
        idx = (event.timestamp - start) // grid_step(interval_seconds)
        vector, _ = ref_symbolize(event, schema)
        key = vector.tobytes()
        if key in seen:
            continue
        seen.add(key)
        cls = "Attack" if (idx, event.source_id) in attack_cells else "Known"
        samples.append((vector, cls))
    return samples


def ref_train_from_labels(events, labels, schema, interval_seconds, radius):
    # The separate training intake that stream_pipeline's labelled path
    # replaced: its own malformed filter and (timestamp, source id) sort.
    ordered = sorted((e for e in events if cc4.intake_key(e) is not None),
                     key=lambda e: (e.timestamp, e.source_id))
    if not ordered:
        raise EmptyTrainingSet("no well-formed event in the input to train on")
    attack_cells = {(i, d) for i, d, _ in labels}
    return cc4.cc4_train(ref_training_samples(ordered, schema, attack_cells,
                                              ordered[0].timestamp, interval_seconds),
                         radius)


def ref_rate_alerts(per_source, config, start, duration):
    z = z_score(config.confidence)
    n_train = cc4.BASELINE_INTERVALS
    alerts = []
    for source, stamps in sorted(per_source.items()):
        counts = np.zeros(duration)
        for ts in stamps:
            idx = (ts - start) // grid_step(config.interval_seconds)
            if 0 <= idx < duration:
                counts[idx] += 1
        rates = TimeSeries(start=start, interval_seconds=config.interval_seconds,
                           values=counts)
        # an interval with no record is silent
        silence = TimeSeries(start=start, interval_seconds=config.interval_seconds,
                             values=np.where(counts == 0, np.nan, counts))
        alerts.extend(detect_dropout(silence, config.gap_threshold, source=source))
        # The stream skips a scored part shorter than one window, where
        # mean_shift_alerts refuses it.
        if duration - n_train >= config.surge_window:
            scored = TimeSeries(start=rates.timestamp_at(n_train),
                                interval_seconds=config.interval_seconds,
                                values=counts[n_train:])
            alerts.extend(mean_shift_alerts(scored, counts[:n_train], z,
                                            config.surge_window, "Surge", source))
    return alerts


def ref_new_id_counts(records, start, interval_seconds, duration):
    counts = np.zeros(duration)
    seen = set()
    for rec in sorted(records, key=lambda r: (r.timestamp, r.source_id)):
        if rec.source_id in seen or cc4.intake_key(rec) is None:
            continue
        seen.add(rec.source_id)
        idx = (rec.timestamp - start) // grid_step(interval_seconds)
        if 0 <= idx < duration:
            counts[idx] += 1
    return counts


def ref_stream_pipeline(records, schema, network, config):
    counts = cc4.StreamCounts()
    skew = config.skew_intervals * grid_step(config.interval_seconds)
    max_ts = None
    seen = set()
    accepted = []
    for rec in records:
        counts.records_in += 1
        if not rec.source_id or rec.timestamp is None:
            counts.dropped_malformed += 1
            continue
        key = (rec.source_id, rec.timestamp, tuple(sorted(rec.fields.items())))
        try:
            hash(key)
        except TypeError:   # a field holds a list or object: malformed
            counts.dropped_malformed += 1
            continue
        if max_ts is not None and rec.timestamp < max_ts - skew:
            counts.dropped_late += 1
            continue
        if max_ts is None or rec.timestamp > max_ts:
            max_ts = rec.timestamp
        if key in seen:
            counts.dropped_duplicate += 1
            counts.dropped_malformed += 1
            continue
        seen.add(key)
        accepted.append(rec)

    # the rate grid starts at the first record kept, never late nor a duplicate
    start = accepted[0].timestamp if accepted else None
    accepted.sort(key=lambda r: (r.timestamp, r.source_id))
    intrusion_alerts = []
    per_source = {}
    for rec in accepted:
        try:
            vector, unknown_value = ref_symbolize(rec, schema)
        except SchemaMismatch:
            counts.dropped_malformed += 1
            continue
        packet_class, ambiguous = ref_classify(network, vector)
        counts.emitted_classifications += 1
        if rec.timestamp >= start:   # one stamped before the grid is not rate-counted
            per_source.setdefault(rec.source_id, []).append(rec.timestamp)
        flag = packet_class == "Attack" or (config.strict_unknown
                                            and packet_class == "Unknown")
        if flag:
            intrusion_alerts.append(AnomalyAlert(
                timestamp=rec.timestamp, kind="Intrusion",
                observed=1.0, expected=0.0, band=None,
                severity="Critical" if packet_class == "Attack" else "Warning",
                source=rec.source_id, packet_class=packet_class,
                ambiguous=ambiguous or unknown_value))

    rate_alerts = []
    if accepted:
        duration = (accepted[-1].timestamp - start) // grid_step(config.interval_seconds) + 1
        rate_alerts = ref_rate_alerts(per_source, config, start, duration)
    return merge_alerts(intrusion_alerts, rate_alerts), counts


# --- random schemas, records and networks ------------------------------------

# 1, 1.0 and True are equal, so a vocabulary holding several keeps the first.
WORDS = ["udp", "wifi", "lora", 1, 1.0, True, 0, 2.5, None, "", NAN]
OUT_OF_VOCABULARY = ["zigbee", 7, -1.5, [1], ("udp",)]
# equal values, spelled 1, 1.0 and true in a log
ONES = [1, 1.0, True]
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from([NAN, 0.0, 5.0, 20.0, -3.0]),
    st.integers(min_value=-50, max_value=600),
    st.sampled_from(["3.5", "nan", " 20 ", True]))


@st.composite
def encoders(draw, name):
    if draw(st.booleans()):
        vocabulary = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5))
        return cc4.FieldEncoder(name=name, kind="one_hot", vocabulary=tuple(vocabulary))
    edges = draw(st.lists(st.one_of(st.floats(-100, 600), st.just(NAN)), max_size=5))
    return cc4.FieldEncoder(name=name, kind="thermometer", bin_edges=tuple(edges))


@st.composite
def schemas(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    return cc4.SymbolSchema(encoders=tuple(draw(encoders(f"f{k}")) for k in range(count)))


@st.composite
def field_values(draw, schema):
    fields = {}
    for enc in schema.encoders:
        if enc.kind == "one_hot":
            fields[enc.name] = draw(st.sampled_from(WORDS + OUT_OF_VOCABULARY))
        else:
            fields[enc.name] = draw(NUMBERS)
    shape = draw(st.sampled_from(["ok"] * 8 + ["missing", "extra"]))
    if shape == "missing":
        fields.pop(schema.encoders[0].name)
    elif shape == "extra":
        fields["bogus"] = 1
    return fields


@st.composite
def stamps(draw, minutes=st.integers(min_value=0, max_value=30)):
    """A minute after T0, now and then spelled at UTC+01:00."""
    stamp = T0 + timedelta(minutes=draw(minutes))
    return stamp.astimezone(PLUS_ONE) if draw(st.integers(0, 3)) == 0 else stamp


def is_one(value):
    return type(value) in (int, float, bool) and value == 1


@st.composite
def respelled(draw, record):
    """A record equal to `record` but not identical: its fields in another key
    order, a field equal to 1 spelled as another of 1, 1.0 and true, and its
    stamp possibly at another UTC offset."""
    items = draw(st.permutations(list(record.fields.items())))
    fields = {k: draw(st.sampled_from(ONES)) if is_one(v) else v for k, v in items}
    stamp = record.timestamp
    if stamp is not None and draw(st.booleans()):
        stamp = stamp.astimezone(timezone.utc if stamp.utcoffset() else PLUS_ONE)
    return cc4.EventLogRecord(timestamp=stamp, source_id=record.source_id, fields=fields)


@st.composite
def field_twin(draw, record, schema):
    """A record with `record`'s source and stamp and one field drawn afresh:
    not a duplicate unless the value happens to be equal."""
    other = draw(field_values(schema))
    shared = [name for name in record.fields if name in other]
    if not shared:
        return record
    name = draw(st.sampled_from(shared))
    return cc4.EventLogRecord(timestamp=record.timestamp, source_id=record.source_id,
                              fields={**record.fields, name: other[name]})


@st.composite
def disordered(draw, records, schema, skew):
    """`records` with repeats and near-repeats: verbatim copies, equal copies
    spelled differently (see respelled), records that share a copy's (source,
    stamp) and differ in a field, and, last, a record stamped exactly `skew`
    before the latest stamp the intake counts, the boundary that is not late."""
    if not records:
        return records
    picks = st.lists(st.sampled_from(records), max_size=3)
    extra = draw(picks)
    extra += [draw(respelled(rec)) for rec in draw(picks)]
    extra += [draw(field_twin(rec, schema)) for rec in draw(picks)]
    records = records + extra
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    counted = [rec for rec in records if cc4.intake_key(rec) is not None]
    if counted:
        latest = max(rec.timestamp for rec in counted)
        boundary = draw(st.sampled_from(counted))
        records.append(cc4.EventLogRecord(timestamp=latest - skew,
                                          source_id=boundary.source_id,
                                          fields=boundary.fields))
    return records


@st.composite
def event_logs(draw, schema, max_size=40, skew=timedelta(minutes=5)):
    records = draw(st.lists(st.builds(
        lambda stamp, src, fields: cc4.EventLogRecord(
            timestamp=stamp, source_id=src, fields=fields),
        stamps(), st.sampled_from(["a", "b", "c"]),
        field_values(schema)), max_size=max_size))
    # repeats and near-repeats so the duplicate filter has work
    return draw(disordered(records, schema, skew))


@st.composite
def networks(draw, width):
    rows = draw(st.integers(min_value=1, max_value=6))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                         min_size=rows, max_size=rows))
    # ties come from equal vectors of different classes and from equidistant
    # vectors; no-fire probes from radius 0
    classes = draw(st.lists(st.sampled_from(cc4.PACKET_CLASSES),
                            min_size=rows, max_size=rows))
    radius = draw(st.integers(min_value=0, max_value=2))
    return cc4.CC4Network(radius=radius, vectors=np.array(bits, dtype=np.int8),
                          classes=classes)


def block_and_reference(records, schema, network):
    """Block and reference results, one per record that cc4.intake_key
    keeps, in input order."""
    intake = cc4._intake(records, schema)
    vectors, unknown = cc4.symbolize_block(intake)
    classes, ambiguous = cc4.classify_block(network, vectors)
    kept = [rec for rec in records if cc4.intake_key(rec) is not None]
    got, want = [], []
    for k, rec in enumerate(kept):
        try:
            vector, flag = ref_symbolize(rec, schema)
        except SchemaMismatch:
            want.append(None)
        else:
            want.append((ref_classify(network, vector), flag, vector.tolist()))
        got.append(((cc4.PACKET_CLASSES[classes[k]], bool(ambiguous[k])),
                    bool(unknown[k]), vectors[k].tolist()) if intake.matched[k] else None)
    return got, want


# --- properties --------------------------------------------------------------


@settings(max_examples=examples(150), deadline=None)
@given(st.data())
def test_block_path_matches_per_record_reference(data):
    schema = data.draw(schemas())
    records = data.draw(event_logs(schema))
    network = data.draw(networks(schema.total_bits))
    block_size = data.draw(st.sampled_from([1, 2, 3, 7, cc4.BLOCK_SIZE]))
    config = cc4.StreamConfig(interval_seconds=60.0,
                              strict_unknown=data.draw(st.booleans()))
    got, want = block_and_reference(records, schema, network)
    assert got == want
    for rec in records:
        if cc4.intake_key(rec) is None:
            with pytest.raises(SchemaMismatch, match="the intake drops"):
                cc4.symbolize(rec, schema)
    kept = [rec for rec in records if cc4.intake_key(rec) is not None]
    for rec, expected in zip(kept, want, strict=True):
        if expected is None:
            with pytest.raises(SchemaMismatch):
                cc4.symbolize(rec, schema)
            continue
        vector, flag = cc4.symbolize(rec, schema)
        assert (vector.tolist(), flag) == (expected[2], expected[1])
        assert cc4.cc4_classify(network, vector) == expected[0]
    with mock.patch.object(cc4, "BLOCK_SIZE", block_size):
        assert (cc4.stream_pipeline(records, schema, network, config)[:2]
                == ref_stream_pipeline(records, schema, network, config))
    # a window that starts after some first sightings and ends before others
    window_start = T0 + timedelta(minutes=5)
    new_ids = cc4.new_id_counts(records, window_start, 90.0, 12)
    assert new_ids.values.tobytes() == \
        ref_new_id_counts(records, window_start, 90.0, 12).tobytes()


@settings(max_examples=examples(100), deadline=None)
@given(st.data())
def test_training_from_labels_ignores_log_order_and_repeats(data):
    # a gateway log: at most one record per (stamp, source), any order, some
    # records repeated
    schema = data.draw(schemas())
    names = {e.name for e in schema.encoders}
    log = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 30), st.sampled_from(["a", "b", "c"])),
        field_values(schema).filter(lambda fields: fields.keys() == names),
        min_size=1, max_size=30))
    ordered = [cc4.EventLogRecord(timestamp=T0 + timedelta(minutes=minute),
                                  source_id=src, fields=fields)
               for (minute, src), fields in sorted(log.items())]
    repeats = data.draw(st.lists(st.sampled_from(ordered), max_size=5))
    shuffled = data.draw(st.permutations(ordered + repeats))
    labels = data.draw(st.lists(st.tuples(st.integers(0, 20), st.sampled_from("abc"),
                                          st.sampled_from(["UdpFlood", "Sybil"]))))
    interval = data.draw(st.sampled_from([60.0, 90.0, 45.5]))
    radius = data.draw(st.integers(0, 2))

    def network(events):
        return cc4.stream_pipeline(events, schema, None,
                                   cc4.StreamConfig(interval_seconds=interval),
                                   labels, radius)[2].to_json_obj()

    well_formed = [rec for rec in ordered
                   if not any(isinstance(v, (list, dict)) for v in rec.fields.values())]
    if not well_formed:
        with pytest.raises(EmptyTrainingSet):
            network(shuffled)
        return
    assert network(shuffled) == network(ordered)
    # the grid starts at the earliest well-formed event, wherever the log puts it
    cells = {(i, d) for i, d, _ in labels}
    want = ref_training_samples(well_formed, schema, cells, well_formed[0].timestamp,
                                interval)
    assert network(shuffled) == cc4.cc4_train(want, radius).to_json_obj()


@st.composite
def labelled_logs(draw, schema, skew):
    """A gateway log in any order: repeats and near-repeats (see disordered),
    records late for a small skew window, records the intake counts malformed
    (a list-valued field, no source, no stamp) and, now and then, one whose
    field set is not the schema's."""
    names = {e.name for e in schema.encoders}
    first = schema.encoders[0].name

    def record(stamp, src, fields, flaw):
        if flaw == "list":
            fields = {**fields, first: ["ok"]}
        return cc4.EventLogRecord(timestamp=None if flaw == "no-stamp" else stamp,
                                  source_id="" if flaw == "no-source" else src,
                                  fields=fields)

    records = draw(st.lists(st.builds(
        record, stamps(), st.sampled_from(["a", "b", "c"]),
        field_values(schema).filter(lambda fields: fields.keys() == names),
        st.sampled_from(["none"] * 6 + ["list", "no-source", "no-stamp"])),
        max_size=30))
    if draw(st.integers(0, 9)) == 0:
        records.append(cc4.EventLogRecord(timestamp=T0, source_id="a", fields={}))
    return draw(disordered(draw(st.permutations(records)), schema, skew))


@settings(max_examples=examples(150), deadline=None)
@given(st.data())
def test_labelled_stream_trains_as_the_separate_training_intake(data):
    # Training on the stream's own intake (accepted and late records,
    # duplicates left out) gives the network the separate intake gave, and
    # the stream then runs as it does with that network passed in.
    schema = data.draw(schemas())
    config = cc4.StreamConfig(interval_seconds=data.draw(st.sampled_from([60.0, 90.0, 45.5])),
                              skew_intervals=data.draw(st.integers(0, 3)),
                              strict_unknown=data.draw(st.booleans()))
    records = data.draw(labelled_logs(
        schema, config.skew_intervals * grid_step(config.interval_seconds)))
    labels = data.draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from("abc"),
                                          st.sampled_from(["UdpFlood", "Sybil"]))))
    radius = data.draw(st.integers(0, 2))
    try:
        want = ref_train_from_labels(records, labels, schema, config.interval_seconds,
                                     radius)
    except (EmptyTrainingSet, SchemaMismatch) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            cc4.stream_pipeline(records, schema, None, config, labels, radius)
        return
    alerts, counts, network = cc4.stream_pipeline(records, schema, None, config,
                                                  labels, radius)
    assert network.to_json_obj() == want.to_json_obj()
    assert (alerts, counts) == cc4.stream_pipeline(records, schema, want, config)[:2]


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_stream_across_the_block_boundary(n):
    schema = cc4.SymbolSchema(encoders=(
        cc4.FieldEncoder(name="proto", kind="one_hot",
                         vocabulary=("zigbee", "wifi", "udp")),
        cc4.FieldEncoder(name="packets", kind="thermometer",
                         bin_edges=(20.0, 5.0, NAN, 100.0)),
    ))
    rng = np.random.default_rng(n)
    protos = ["zigbee", "wifi", "udp", "lora"]
    records = []
    for k in range(n):
        fields = {"proto": protos[rng.integers(4)],
                  "packets": float(rng.choice([NAN, rng.uniform(0, 200)]))}
        if k % 997 == 5:
            fields.pop("packets")
        records.append(cc4.EventLogRecord(
            timestamp=T0 + timedelta(minutes=int(k // 3)),
            source_id=f"dev-{rng.integers(5)}", fields=fields))
    network = cc4.CC4Network(
        radius=1, vectors=rng.integers(0, 2, (9, schema.total_bits)),
        classes=["Known", "Attack", "Unknown"] * 3)
    config = cc4.StreamConfig(interval_seconds=60.0, strict_unknown=True)
    got, want = block_and_reference(records, schema, network)
    assert got == want
    assert cc4.stream_pipeline(records, schema, network, config)[:2] == \
        ref_stream_pipeline(records, schema, network, config)


PROTOS = ["zigbee", "wifi", "lora", "udp", "tcp"]
STATUSES = ["ok", "overflow", "retry", "lost"]
PACKETS = st.one_of(st.sampled_from([0, 1, 1.0, True, 4.5, 5, 20.0, 99, 100, 500.0, 1e6]),
                    st.floats(-10, 700), st.integers(-5, 700))


@st.composite
def event_texts(draw):
    """A gateway log as the bytes of a JSON-lines file: records in any order,
    late ones among them; equal copies spelled otherwise (another key order,
    1 as 1, 1.0 or true, the stamp at +01:00 or without an offset); fields
    that hold a list or an object; records whose field set is not the
    schema's; now and then a thermometer value that is not a number; blank
    lines and, now and then, a leading byte order mark."""
    # each kind of flaw in about one log of three, so that most logs stream
    flaws = [flaw for flaw in ("list", "object", "missing", "extra", "not-a-number")
             if draw(st.integers(0, 2)) == 0]
    events = []
    for _ in range(draw(st.integers(0, 30))):
        fields = {"proto": draw(st.sampled_from(PROTOS)), "packets": draw(PACKETS),
                  "status": draw(st.sampled_from(STATUSES))}
        flaw = draw(st.sampled_from(["none"] * 8 + flaws))
        if flaw == "list":
            fields["status"] = [fields["status"]]
        elif flaw == "object":
            fields["proto"] = {"name": fields["proto"]}
        elif flaw == "missing":
            del fields[draw(st.sampled_from(sorted(fields)))]
        elif flaw == "extra":
            fields["port"] = 80
        elif flaw == "not-a-number":
            fields["packets"] = draw(st.sampled_from(["many", None]))
        events.append((draw(st.integers(0, 30)), draw(st.sampled_from("abc")), fields))
    events += draw(st.lists(st.sampled_from(events), max_size=4)) if events else []
    events = draw(st.permutations(events))

    def line(minute, src, fields):
        stamp = T0 + timedelta(minutes=minute)
        stamp = draw(st.sampled_from([stamp, stamp.astimezone(PLUS_ONE),
                                      stamp.replace(tzinfo=None)]))
        items = [("ts", stamp.isoformat()), ("src", src)] + [
            (k, draw(st.sampled_from(ONES)) if is_one(v) else v) for k, v in fields.items()]
        return json.dumps(dict(draw(st.permutations(items))))

    lines = [line(*event) for event in events]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  \t"])))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")


def stream_both_ways(tmp, log, flags, reference):
    """Run `gatewatch stream` on `log` and compare its artifacts, or its error
    line, with what `reference(path)` gives from the library's records."""
    path = tmp / "events.jsonl"
    path.write_bytes(log)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["stream", "--input", str(path), *flags, "--out", str(tmp / "cli")])
    try:
        artifacts = reference(path)
    except GatewatchError as exc:
        assert (code, err.getvalue()) == (2, f"error: data: {type(exc).__name__}: {exc}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    (tmp / "ref").mkdir()
    for name, content in artifacts.items():
        cli._write(tmp / "ref" / name, content)
        assert (tmp / "cli" / name).read_bytes() == (tmp / "ref" / name).read_bytes(), name


@settings(max_examples=examples(100), deadline=None)
@given(st.data())
def test_the_stream_reads_a_log_as_the_records_read_from_it(data):
    # gatewatch stream reads its log into intake columns; the library reads
    # it into records and streams them: every artifact is the same, byte for
    # byte, and so is every error line
    log = data.draw(event_texts())
    interval = data.draw(st.sampled_from([60.0, 90.0, 45.5]))
    strict = data.draw(st.booleans())
    flags = ["--interval", repr(interval)] + (["--strict-unknown"] if strict else [])
    config = cc4.StreamConfig(interval_seconds=interval, strict_unknown=strict)
    schema = simulate.event_schema()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if data.draw(st.booleans()):
            labels = data.draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from("abc"),
                                                  st.sampled_from(["UdpFlood", "Sybil"]))))
            radius = data.draw(st.integers(0, 2))
            path = tmp / "labels.csv"
            path.write_text("\n".join([",".join(simulate.LABEL_COLUMNS)]
                                      + [f"{i},{d},{k}" for i, d, k in labels]) + "\n",
                            encoding="utf-8")
            flags += ["--labels", str(path), "--radius", str(radius)]
            network = None
        else:
            labels, radius = None, 1
            path = tmp / "network.json"
            path.write_text(data.draw(networks(schema.total_bits)).to_json(), encoding="utf-8")
            flags += ["--network", str(path)]
            network = cc4.CC4Network.from_json(path.read_text(encoding="utf-8"))

        def reference(log_path):
            alerts, counts, used = cc4.stream_pipeline(cc4.read_events_jsonl(log_path), schema,
                                                       network, config, labels, radius)
            return {"alerts.jsonl": alerts, "stream_counts.json": counts.to_json_obj(),
                    "network.json": used.to_json_obj()}

        stream_both_ways(tmp, log, flags, reference)


RATE_SOURCES = ["a", "b", "c", "d", "e", "f", "g"]
RATE_SCHEMA = cc4.SymbolSchema(encoders=(
    cc4.FieldEncoder(name="packets", kind="thermometer", bin_edges=(5.0, 20.0)),))
RATE_NETWORK = cc4.CC4Network(radius=0, vectors=np.array([[1, 1, 0]]),
                              classes=["Attack"])


@settings(max_examples=examples(200), deadline=None)
@given(st.data())
def test_rate_scoring_in_groups_matches_the_per_source_reference(data):
    # Runs of 1-6 intervals straddle a baseline of 1-6 intervals; windows may
    # be wider than the scored part and gap thresholds longer than the run.
    records = data.draw(st.lists(st.builds(
        lambda second, src, packets: cc4.EventLogRecord(
            timestamp=T0 + timedelta(seconds=second), source_id=src,
            fields={"packets": packets}),
        st.integers(min_value=0, max_value=359),
        st.sampled_from(RATE_SOURCES),
        st.integers(min_value=0, max_value=30)), min_size=1, max_size=60))
    config = cc4.StreamConfig(
        interval_seconds=60.0, skew_intervals=10,
        confidence=data.draw(st.sampled_from(sorted(Z_TABLE))),
        surge_window=data.draw(st.integers(min_value=1, max_value=8)),
        gap_threshold=data.draw(st.integers(min_value=1, max_value=8)))
    stamps = [rec.timestamp for rec in records]
    duration = (max(stamps) - stamps[0]) // grid_step(60.0) + 1
    group = data.draw(st.sampled_from([1, 2, 3, None]))
    cells = cc4.RATE_BLOCK_CELLS if group is None else group * duration
    with mock.patch.object(cc4, "RATE_BLOCK_CELLS", cells), \
            mock.patch.object(cc4, "BASELINE_INTERVALS", data.draw(st.integers(1, 6))):
        got = cc4.stream_pipeline(records, RATE_SCHEMA, RATE_NETWORK, config)[:2]
        assert got == ref_stream_pipeline(records, RATE_SCHEMA, RATE_NETWORK, config)


@settings(max_examples=examples(200), deadline=None)
@given(st.data())
def test_the_stream_slots_its_stamps_as_interval_index(data):
    # The slot rule on the intake's µs column, as the stream applies it,
    # gives each stamp the slot that floor-divides its offset by the
    # interval's whole µs, so slot_time of that slot is the grid line at or
    # before the stamp: at intervals that are no dyadic fraction of a second,
    # before the grid start as well as after it, at +01:00 among UTC stamps.
    records = data.draw(st.lists(st.builds(
        lambda micros, zone: cc4.EventLogRecord(
            timestamp=(T0 + timedelta(microseconds=micros)).astimezone(zone),
            source_id="a", fields={"packets": 1}),
        st.integers(-10 ** 12, 10 ** 12), st.sampled_from([timezone.utc, PLUS_ONE])),
        min_size=1, max_size=30))
    interval = data.draw(st.one_of(st.sampled_from([45.5, 0.001, 60.0, 0.1, 0.7, 1.1]),
                                   st.floats(min_value=1e-3, max_value=1e6)))
    start = data.draw(st.integers(0, len(records) - 1))
    # records one µs before a grid line, on it and one µs after it
    k = data.draw(st.integers(-1000, 1000))
    line = slot_time(records[start].timestamp, interval, k)
    records += [records[0]._replace(timestamp=line + d * MICROSECOND) for d in (-1, 0, 1)]
    micros = cc4._intake(records, RATE_SCHEMA).micros
    stamps = [rec.timestamp for rec in records]
    got = slots(micros - micros[start], interval).tolist()
    assert got == [(t - stamps[start]) // grid_step(interval) for t in stamps]
    assert got[-3:] == [k - 1, k, k]
    for t, slot in zip(stamps, got):
        assert slot_time(stamps[start], interval, slot) <= t \
            < slot_time(stamps[start], interval, slot + 1)


def test_non_numeric_thermometer_value_raises_value_error():
    schema = cc4.SymbolSchema(encoders=(
        cc4.FieldEncoder(name="packets", kind="thermometer", bin_edges=(5.0,)),))
    records = [cc4.EventLogRecord(timestamp=T0, source_id="a",
                                  fields={"packets": value})
               for value in (3.0, "many")]
    with pytest.raises(ValueError):
        cc4.symbolize_block(cc4._intake(records, schema))
    network = cc4.CC4Network(radius=0, vectors=np.array([[1, 0]]), classes=["Known"])
    with pytest.raises(ValueError):
        cc4.stream_pipeline(records, schema, network, cc4.StreamConfig())


def test_training_rejects_a_mismatched_record():
    schema = cc4.SymbolSchema(encoders=(
        cc4.FieldEncoder(name="proto", kind="one_hot", vocabulary=("udp",)),))
    records = [cc4.EventLogRecord(timestamp=T0, source_id="a", fields={"proto": "udp"}),
               cc4.EventLogRecord(timestamp=T0, source_id="b", fields={})]
    with pytest.raises(SchemaMismatch, match=r"record \[\]"):
        cc4.stream_pipeline(records, schema, None, cc4.StreamConfig(), labels=[])


@settings(max_examples=examples(200), deadline=None)
@given(st.integers(0, 70).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 1), min_size=width, max_size=width), max_size=30)
    .map(lambda rows: np.array(rows, dtype=np.int8).reshape(len(rows), width))))
def test_first_rows_are_the_first_of_each_distinct_row(vectors):
    vectors = np.concatenate([vectors, vectors[::2]])
    _, first = np.unique(vectors, axis=0, return_index=True)
    assert cc4._first_rows(vectors) == np.sort(first).tolist()
