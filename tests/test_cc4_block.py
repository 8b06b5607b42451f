"""The block CC4 path against the per-record reference it replaced.

The reference functions below are the per-record encode/score loops, kept
here verbatim except that activations are summed in int64 (the int8 product
they used overflowed above 127 bits; the probes here are narrower). The
per-source, per-stamp rate count loop and the sort-every-record new-identity
count are kept the same way, as references for the interval-grid versions.
"""
import math
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatewatch import cc4
from gatewatch.detect import (
    Z_TABLE,
    AnomalyAlert,
    detect_dropout,
    mean_shift_alerts,
    merge_alerts,
    z_score,
)
from gatewatch.errors import SchemaMismatch
from gatewatch.series import TimeSeries

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)
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
        idx = int((event.timestamp - start).total_seconds() // interval_seconds)
        vector, _ = ref_symbolize(event, schema)
        key = vector.tobytes()
        if key in seen:
            continue
        seen.add(key)
        cls = "Attack" if (idx, event.source_id) in attack_cells else "Known"
        samples.append((vector, cls))
    return samples


def ref_rate_alerts(per_source, config, start, duration):
    z = z_score(config.confidence)
    n_train = math.ceil(0.5 * duration)
    alerts = []
    for source, stamps in sorted(per_source.items()):
        counts = np.zeros(duration)
        for ts in stamps:
            idx = int((ts - start).total_seconds() // config.interval_seconds)
            if 0 <= idx < duration:
                counts[idx] += 1
        rates = TimeSeries(start=start, interval_seconds=config.interval_seconds,
                           values=counts, missing=np.zeros(duration, dtype=bool))
        alerts.extend(detect_dropout(rates, config.gap_threshold,
                                     zero_is_silence=True, source=source))
        if duration >= 4:
            alerts.extend(mean_shift_alerts(rates, n_train, counts[:n_train], z,
                                            config.surge_window, "Surge", source))
    return alerts


def ref_new_id_counts(records, start, interval_seconds, duration):
    counts = np.zeros(duration)
    seen = set()
    for rec in sorted(records, key=lambda r: (r.timestamp, r.source_id)):
        if rec.source_id in seen:
            continue
        seen.add(rec.source_id)
        idx = int((rec.timestamp - start).total_seconds() // interval_seconds)
        if 0 <= idx < duration:
            counts[idx] += 1
    return counts


def ref_stream_pipeline(records, schema, network, config):
    counts = cc4.StreamCounts()
    skew = timedelta(seconds=config.skew_intervals * config.interval_seconds)
    max_ts = None
    seen = set()
    accepted = []
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
        start = accepted[0].timestamp
        span = (accepted[-1].timestamp - start).total_seconds()
        duration = int(span // config.interval_seconds) + 1
        rate_alerts = ref_rate_alerts(per_source, config, start, duration)
    return merge_alerts(intrusion_alerts, rate_alerts), counts


# --- random schemas, records and networks ------------------------------------

# 1, 1.0 and True are equal, so a vocabulary holding several keeps the first.
WORDS = ["udp", "wifi", "lora", 1, 1.0, True, 0, 2.5, None, "", NAN]
OUT_OF_VOCABULARY = ["zigbee", 7, -1.5, [1], ("udp",)]
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
def event_logs(draw, schema, max_size=40):
    records = draw(st.lists(st.builds(
        lambda minute, src, fields: cc4.EventLogRecord(
            timestamp=T0 + timedelta(minutes=minute), source_id=src, fields=fields),
        st.integers(min_value=0, max_value=30),
        st.sampled_from(["a", "b", "c"]),
        field_values(schema)), max_size=max_size))
    # repeat some records verbatim so the duplicate filter has work
    repeats = draw(st.lists(st.integers(min_value=0, max_value=max(len(records) - 1, 0)),
                            max_size=3)) if records else []
    return records + [records[i] for i in repeats]


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
    vectors, unknown, matched = cc4.symbolize_block(records, schema)
    classes, ambiguous = cc4.classify_block(network, vectors)
    got, want = [], []
    for k, rec in enumerate(records):
        try:
            vector, flag = ref_symbolize(rec, schema)
        except SchemaMismatch:
            want.append(None)
        else:
            want.append((ref_classify(network, vector), flag, vector.tolist()))
        got.append(((cc4.PACKET_CLASSES[classes[k]], bool(ambiguous[k])),
                    bool(unknown[k]), vectors[k].tolist()) if matched[k] else None)
    return got, want


# --- properties --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
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
    for rec, expected in zip(records, want):
        if expected is None:
            with pytest.raises(SchemaMismatch):
                cc4.symbolize(rec, schema)
            continue
        vector, flag = cc4.symbolize(rec, schema)
        assert (vector.tolist(), flag) == (expected[2], expected[1])
        assert cc4.cc4_classify(network, vector) == expected[0]
    well_formed = [rec for rec, expected in zip(records, want) if expected]
    start = min((rec.timestamp for rec in records), default=T0)
    cells = {(k, src) for k in range(0, 31, 3) for src in ("a", "c")}
    with mock.patch.object(cc4, "BLOCK_SIZE", block_size):
        samples = cc4.training_samples(well_formed, schema, cells, start, 60.0)
        try:
            expected = ref_stream_pipeline(records, schema, network, config)
        except TypeError:   # an unhashable field value fails the duplicate filter
            with pytest.raises(TypeError):
                cc4.stream_pipeline(records, schema, network, config)
        else:
            assert cc4.stream_pipeline(records, schema, network, config) == expected
    want_samples = ref_training_samples(well_formed, schema, cells, start, 60.0)
    assert [(v.tolist(), c) for v, c in samples] == \
        [(v.tolist(), c) for v, c in want_samples]
    # a window that starts after some first sightings and ends before others
    window_start = T0 + timedelta(minutes=5)
    new_ids = cc4.new_id_counts(records, window_start, 90.0, 12)
    assert new_ids.values.tobytes() == \
        ref_new_id_counts(records, window_start, 90.0, 12).tobytes()


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
    assert cc4.stream_pipeline(records, schema, network, config) == \
        ref_stream_pipeline(records, schema, network, config)


RATE_SOURCES = ["a", "b", "c", "d", "e", "f", "g"]
RATE_SCHEMA = cc4.SymbolSchema(encoders=(
    cc4.FieldEncoder(name="packets", kind="thermometer", bin_edges=(5.0, 20.0)),))
RATE_NETWORK = cc4.CC4Network(radius=0, vectors=np.array([[1, 1, 0]]),
                              classes=["Attack"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rate_scoring_in_groups_matches_the_per_source_reference(data):
    # Runs of 1-6 intervals straddle the 4-interval surge floor; windows may
    # be wider than the scored half and gap thresholds longer than the run.
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
    duration = int((max(stamps) - min(stamps)).total_seconds() // 60) + 1
    group = data.draw(st.sampled_from([1, 2, 3, None]))
    cells = cc4.RATE_BLOCK_CELLS if group is None else group * duration
    with mock.patch.object(cc4, "RATE_BLOCK_CELLS", cells):
        got = cc4.stream_pipeline(records, RATE_SCHEMA, RATE_NETWORK, config)
    assert got == ref_stream_pipeline(records, RATE_SCHEMA, RATE_NETWORK, config)


def test_non_numeric_thermometer_value_raises_value_error():
    schema = cc4.SymbolSchema(encoders=(
        cc4.FieldEncoder(name="packets", kind="thermometer", bin_edges=(5.0,)),))
    records = [cc4.EventLogRecord(timestamp=T0, source_id="a",
                                  fields={"packets": value})
               for value in (3.0, "many")]
    with pytest.raises(ValueError):
        cc4.symbolize_block(records, schema)
    network = cc4.CC4Network(radius=0, vectors=np.array([[1, 0]]), classes=["Known"])
    with pytest.raises(ValueError):
        cc4.stream_pipeline(records, schema, network, cc4.StreamConfig())


def test_training_rejects_a_mismatched_record():
    schema = cc4.SymbolSchema(encoders=(
        cc4.FieldEncoder(name="proto", kind="one_hot", vocabulary=("udp",)),))
    records = [cc4.EventLogRecord(timestamp=T0, source_id="a", fields={"proto": "udp"}),
               cc4.EventLogRecord(timestamp=T0, source_id="b", fields={})]
    with pytest.raises(SchemaMismatch, match=r"record \[\]"):
        cc4.training_samples(records, schema, set(), T0, 60.0)
