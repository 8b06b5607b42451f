import json
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from gatewatch import cc4, cli, simulate
from gatewatch.errors import (EmptyTrainingSet, SchemaMismatch, UnsupportedConfidence,
                              WidthMismatch)

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)


def schema():
    return cc4.SymbolSchema(encoders=(
        cc4.FieldEncoder(name="proto", kind="one_hot",
                         vocabulary=("zigbee", "wifi", "udp")),
        cc4.FieldEncoder(name="packets", kind="thermometer",
                         bin_edges=(5.0, 20.0, 100.0)),
    ))


def encode(enc, value):
    """(bits, unknown) of one value: row 0 of encode_column([value])."""
    bits, unknown = enc.encode_column([value])
    return bits[0], bool(unknown[0])


class TestEncoders:
    def test_one_hot(self):
        enc = cc4.FieldEncoder(name="proto", kind="one_hot",
                               vocabulary=("a", "b", "c"))
        bits, unknown = encode(enc, "b")
        assert bits.tolist() == [0, 1, 0] and not unknown

    def test_one_hot_out_of_vocabulary(self):
        enc = cc4.FieldEncoder(name="proto", kind="one_hot",
                               vocabulary=("a", "b"))
        bits, unknown = encode(enc, "z")
        assert bits.tolist() == [0, 0] and unknown

    def test_one_hot_matches_by_equality_first_word(self):
        # a value matches the first word equal to it, hashable or not
        enc = cc4.FieldEncoder(name="f", kind="one_hot",
                               vocabulary=({1}, 1.0, 1, frozenset({1})))
        assert encode(enc, frozenset({1}))[0].tolist() == [1, 0, 0, 0]
        assert encode(enc, 1)[0].tolist() == [0, 1, 0, 0]
        assert encode(enc, [1])[1]

    def test_thermometer_bins(self):
        enc = cc4.FieldEncoder(name="v", kind="thermometer",
                               bin_edges=(5.0, 20.0, 100.0))
        assert enc.width == 4
        assert encode(enc, 0.0)[0].tolist() == [1, 0, 0, 0]
        assert encode(enc, 5.0)[0].tolist() == [1, 1, 0, 0]
        assert encode(enc, 19.9)[0].tolist() == [1, 1, 0, 0]
        assert encode(enc, 20.0)[0].tolist() == [1, 1, 1, 0]
        assert encode(enc, 1e9)[0].tolist() == [1, 1, 1, 1]

    def test_thermometer_is_monotone(self):
        enc = cc4.FieldEncoder(name="v", kind="thermometer",
                               bin_edges=(1.0, 2.0, 3.0))
        prev = -1
        for v in (0.5, 1.5, 2.5, 3.5):
            count = int(encode(enc, v)[0].sum())
            assert count > prev
            prev = count


class TestSchema:
    def test_total_bits(self):
        assert schema().total_bits == 7

    def test_symbolize(self):
        rec = cc4.EventLogRecord(timestamp=T0, source_id="cam-1",
                                 fields={"proto": "udp", "packets": 30.0})
        vector, unknown = cc4.symbolize(rec, schema())
        assert vector.tolist() == [0, 0, 1, 1, 1, 1, 0]
        assert not unknown

    def test_symbolize_field_mismatch(self):
        rec = cc4.EventLogRecord(timestamp=T0, source_id="cam-1",
                                 fields={"proto": "udp"})
        with pytest.raises(SchemaMismatch):
            cc4.symbolize(rec, schema())

    @pytest.mark.parametrize("source, packets", [("", 30.0), ("cam-1", [30.0])],
                             ids=["empty-source", "list-field"])
    def test_symbolize_refuses_a_record_the_intake_drops(self, source, packets):
        # symbolize reads a one-record intake, so a record the stream counts
        # malformed is refused for that, not encoded
        rec = cc4.EventLogRecord(timestamp=T0, source_id=source,
                                 fields={"proto": "udp", "packets": packets})
        with pytest.raises(SchemaMismatch, match="the intake drops"):
            cc4.symbolize(rec, schema())


class TestNetwork:
    def test_weights_and_biases(self):
        net = cc4.cc4_train([(np.array([1, 0, 1, 1]), "Known")], radius=2)
        assert net.hidden_weights().tolist() == [[1, -1, 1, 1]]
        # bias = r - s + 1 = 2 - 3 + 1
        assert net.hidden_biases().tolist() == [0]

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_fires_iff_within_hamming_radius(self, radius):
        width = 6
        stored = np.array([1, 0, 1, 1, 0, 0])
        net = cc4.cc4_train([(stored, "Known")], radius=radius)
        for probe in product([0, 1], repeat=width):
            probe = np.array(probe)
            hamming = int(np.abs(probe - stored).sum())
            assert bool(net.fires(probe)[0]) == (hamming <= radius), \
                (probe.tolist(), radius)

    def test_radius_zero_recalls_training_set_exactly(self):
        rng = np.random.default_rng(0)
        samples = [(rng.integers(0, 2, 8), cls)
                   for cls in ("Known", "Attack") for _ in range(5)]
        seen = {tuple(v.tolist()): c for v, c in samples}
        net = cc4.cc4_train([(v, c) for v, c in samples
                             if seen[tuple(v.tolist())] == c], radius=0)
        for vec, cls in samples:
            got, ambiguous = cc4.cc4_classify(net, vec)
            if list(seen.values()).count(cls):
                assert got == seen[tuple(vec.tolist())]

    def test_no_firing_neuron_is_unknown_flagged(self):
        net = cc4.cc4_train([(np.array([1, 1, 1, 1]), "Known")], radius=0)
        cls, ambiguous = cc4.cc4_classify(net, np.array([0, 0, 0, 0]))
        assert cls == "Unknown" and ambiguous

    def test_tie_resolves_in_class_order_with_flag(self):
        a = np.array([1, 0, 0, 0])
        b = np.array([0, 0, 0, 1])
        net = cc4.cc4_train([(a, "Known"), (b, "Attack")], radius=1)
        # probe at Hamming distance 1 from both -> one vote each, net zero
        cls, ambiguous = cc4.cc4_classify(net, np.array([1, 0, 0, 1]))
        assert ambiguous
        assert cls == "Known"  # first in class order

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            cc4.cc4_train([], radius=1)

    def test_width_mismatch(self):
        net = cc4.cc4_train([(np.array([1, 0]), "Known")], radius=0)
        with pytest.raises(WidthMismatch):
            net.fires(np.array([1, 0, 1]))
        with pytest.raises(WidthMismatch):
            cc4.cc4_train([(np.array([1, 0]), "Known"),
                           (np.array([1, 0, 1]), "Attack")], radius=0)

    def test_json_round_trip(self):
        net = cc4.cc4_train([(np.array([1, 0, 1]), "Known"),
                             (np.array([0, 1, 1]), "Attack")], radius=1)
        back = cc4.CC4Network.from_json(net.to_json())
        assert back.radius == net.radius
        assert np.array_equal(back.vectors, net.vectors)
        assert back.classes == net.classes
        probe = np.array([1, 1, 1])
        assert cc4.cc4_classify(back, probe) == cc4.cc4_classify(net, probe)

    @pytest.mark.parametrize("width", [200, 300])
    @pytest.mark.parametrize("radius", [0, 1])
    def test_wide_network_activations_do_not_overflow(self, width, radius):
        # Widths above 127 overflow an int8 product of weights and probe.
        stored = np.ones(width, dtype=np.int8)
        net = cc4.cc4_train([(stored, "Attack")], radius=radius)
        assert net.fires(stored).tolist() == [True]
        assert cc4.cc4_classify(net, stored) == ("Attack", False)
        at_radius, beyond = stored.copy(), stored.copy()
        at_radius[:radius] = 0
        beyond[:radius + 1] = 0
        assert net.fires(at_radius).tolist() == [True]
        assert net.fires(beyond).tolist() == [False]

    @settings(max_examples=examples(30), deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 5 - 1),
           st.integers(min_value=0, max_value=2 ** 5 - 1),
           st.integers(min_value=0, max_value=3))
    def test_fire_property_random(self, stored_bits, probe_bits, radius):
        stored = np.array([(stored_bits >> k) & 1 for k in range(5)])
        probe = np.array([(probe_bits >> k) & 1 for k in range(5)])
        net = cc4.cc4_train([(stored, "Known")], radius=radius)
        hamming = int(np.abs(stored - probe).sum())
        assert bool(net.fires(probe)[0]) == (hamming <= radius)


def _event(minute, src, proto="zigbee", packets=3.0):
    return cc4.EventLogRecord(
        timestamp=T0 + timedelta(minutes=minute), source_id=src,
        fields={"proto": proto, "packets": packets})


def _network():
    s = schema()
    known, _ = cc4.symbolize(_event(0, "x"), s)
    attack, _ = cc4.symbolize(_event(0, "x", proto="udp", packets=500.0), s)
    return cc4.cc4_train([(known, "Known"), (attack, "Attack")], radius=0)


class TestStreamPipeline:
    def test_counts_invariant_and_classification(self):
        events = [_event(i, "dev-1") for i in range(10)]
        events.append(_event(10, "dev-2", proto="udp", packets=500.0))
        events.append(events[8])                       # duplicate inside skew
        events.append(_event(9, "dev-1"))              # duplicate of minute 9
        config = cc4.StreamConfig()
        alerts, counts, _ = cc4.stream_pipeline(events, schema(), _network(), config)
        assert counts.records_in == 13
        assert counts.dropped_duplicate == 2
        assert counts.records_in == (counts.emitted_classifications
                                     + counts.dropped_malformed
                                     + counts.dropped_late)
        intrusions = [a for a in alerts if a.kind == "Intrusion"]
        assert len(intrusions) == 1
        assert intrusions[0].source == "dev-2"
        assert intrusions[0].packet_class == "Attack"
        assert intrusions[0].severity == "Critical"

    def test_late_records_dropped_not_reordered(self):
        config = cc4.StreamConfig(interval_seconds=60.0, skew_intervals=5)
        events = [_event(0, "a"), _event(20, "a"), _event(1, "a")]
        _, counts, _ = cc4.stream_pipeline(events, schema(), _network(), config)
        assert counts.dropped_late == 1
        assert counts.emitted_classifications == 2

    def test_strict_unknown_raises_alerts(self):
        odd = [_event(0, "a", proto="wifi", packets=50.0)]
        lax = cc4.StreamConfig(strict_unknown=False)
        strict = cc4.StreamConfig(strict_unknown=True)
        quiet, _, _ = cc4.stream_pipeline(odd, schema(), _network(), lax)
        loud, _, _ = cc4.stream_pipeline(odd, schema(), _network(), strict)
        assert quiet == []
        assert len(loud) == 1 and loud[0].packet_class == "Unknown"
        assert loud[0].severity == "Warning"

    def test_pipeline_is_deterministic(self):
        events = [_event(i, f"dev-{i % 3}",
                         proto="udp" if i % 7 == 0 else "zigbee",
                         packets=float(3 + i)) for i in range(60)]
        config = cc4.StreamConfig()
        a1, c1, _ = cc4.stream_pipeline(events, schema(), _network(), config)
        a2, c2, _ = cc4.stream_pipeline(events, schema(), _network(), config)
        assert a1 == a2 and c1 == c2

    def test_network_width_is_checked_on_entry(self):
        # with no record to classify the width is still the schema's
        narrow = cc4.cc4_train([([0, 1, 0], "Known")], radius=0)
        with pytest.raises(WidthMismatch):
            cc4.stream_pipeline([], schema(), narrow, cc4.StreamConfig())

    def test_takes_a_network_or_labels_not_both_or_neither(self):
        events = [_event(0, "a")]
        for network, labels in ((_network(), []), (None, None)):
            with pytest.raises(ValueError, match="not both or neither"):
                cc4.stream_pipeline(events, schema(), network, cc4.StreamConfig(),
                                    labels)

    def test_alert_json_includes_class_fields(self):
        events = [_event(0, "dev-2", proto="udp", packets=500.0)]
        config = cc4.StreamConfig()
        alerts, _, _ = cc4.stream_pipeline(events, schema(), _network(), config)
        obj = json.loads(alerts[0].to_json())
        assert obj["class"] == "Attack"
        assert obj["ambiguous"] is False

    def test_naive_stamps_stream_on_their_own_clock(self):
        # A trace without offsets streams to the UTC trace's alerts and
        # counts, each alert on the records' own (naive) clock. One device
        # also goes quiet, so rate alerts are stamped too.
        quiet = simulate.default_silence_config().attacks

        def stream(start):
            config = simulate.default_flood_config(seed=1)
            config = replace(config, start=start, attacks=config.attacks + quiet)
            trace = simulate.generate_trace(config)
            return cc4.stream_pipeline(
                trace.events, simulate.event_schema(), None,
                cc4.StreamConfig(interval_seconds=config.interval_seconds),
                trace.labels, 0)[:2]

        aware, aware_counts = stream(T0)
        naive, naive_counts = stream(T0.replace(tzinfo=None))
        assert {a.kind for a in aware} == {"Intrusion", "Dropout"}
        assert naive_counts == aware_counts
        assert naive == [replace(a, timestamp=a.timestamp.replace(tzinfo=None))
                         for a in aware]

    def test_every_alert_runs_on_one_clock(self, tmp_path):
        # The same log at UTC and at +01:00 streams to the same alert lines,
        # those `gatewatch stream` writes for it: each alert is stamped on the
        # intake's clock, which is UTC for aware stamps. One device also goes
        # quiet, so rate alerts are stamped too.
        config = simulate.default_flood_config(seed=1)
        config = replace(config, attacks=config.attacks
                         + simulate.default_silence_config().attacks)
        trace = simulate.generate_trace(config)
        paths = simulate.write_trace(trace, tmp_path / "trace")
        plus_one = timezone(timedelta(hours=1))

        def lines(events):
            alerts = cc4.stream_pipeline(
                events, simulate.event_schema(), None,
                cc4.StreamConfig(interval_seconds=config.interval_seconds),
                trace.labels, 0)[0]
            return [alert.to_json() for alert in alerts]

        assert cli.main(["stream", "--input", str(paths["events"]),
                         "--labels", str(paths["labels"]), "--radius", "0",
                         "--interval", repr(config.interval_seconds),
                         "--out", str(tmp_path / "out")]) == 0
        written = (tmp_path / "out" / "alerts.jsonl").read_text(encoding="utf-8")
        assert {json.loads(line)["kind"] for line in written.splitlines()} == \
            {"Intrusion", "Dropout"}
        assert lines([e._replace(timestamp=e.timestamp.astimezone(plus_one))
                      for e in trace.events]) == lines(trace.events) == written.splitlines()


def test_labelled_stream_keeps_each_row_with_its_record():
    # two sources at one stamp, out of name order: the classifier takes the
    # accepted records' rows from the training block, which must pair the
    # Attack row with b, as the network path does
    events = [_event(0, "b", proto="udp", packets=500.0), _event(0, "a")]
    config = cc4.StreamConfig()
    alerts, _, network = cc4.stream_pipeline(events, schema(), None, config,
                                             [(0, "b", "UdpFlood")], 0)
    assert [(a.source, a.packet_class) for a in alerts] == [("b", "Attack")]
    assert alerts == cc4.stream_pipeline(events, schema(), network, config)[0]


@pytest.mark.parametrize("labels", [None, [(0, "b", "UdpFlood")]],
                         ids=["network", "labels"])
def test_the_intake_sorts_once(labels):
    # one (stamp, source) order serves dedupe, training and acceptance, and
    # one symbolize_block call encodes the records for both
    events = [_event(i, "ab"[i % 2]) for i in range(12)]
    events += [events[10], _event(1, "b"), events[3]]    # duplicate, late, late
    network = None if labels is not None else _network()
    with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort, \
            mock.patch.object(cc4, "symbolize_block", wraps=cc4.symbolize_block) as encode:
        counts = cc4.stream_pipeline(events, schema(), network, cc4.StreamConfig(),
                                     labels)[1]
    assert (counts.dropped_duplicate, counts.dropped_late) == (1, 2)
    assert (lexsort.call_count, encode.call_count) == (1, 1)


def test_a_duplicate_keeps_its_first_copy_in_place():
    # records of one (stamp, source) stay in input order, a duplicate's first
    # copy kept, so the hidden neurons come in that order
    first, other = _event(0, "a"), _event(0, "a", proto="udp", packets=500.0)
    network = cc4.stream_pipeline([first, other, first], schema(), None,
                                  cc4.StreamConfig(), [], 0)[2]
    assert network.vectors.tolist() == [cc4.symbolize(event, schema())[0].tolist()
                                        for event in (first, other)]


def test_training_skips_records_the_stream_counts_malformed():
    # A record with a list field, stamped two intervals before the log, is
    # neither a hidden neuron nor the origin of the training grid.
    config = simulate.default_flood_config(seed=1)
    trace = simulate.generate_trace(config)
    first = trace.events[0]
    early = first._replace(fields={**first.fields, "status": ["ok"]},
                           timestamp=first.timestamp - timedelta(
                               seconds=2 * config.interval_seconds))

    def train(events):
        return cc4.stream_pipeline(
            events, simulate.event_schema(), None,
            cc4.StreamConfig(interval_seconds=config.interval_seconds),
            trace.labels, 0)[2].to_json_obj()

    assert train([early] + trace.events) == train(trace.events)
    with pytest.raises(EmptyTrainingSet):
        train([early])


def test_records_without_source_or_stamp_never_reach_training():
    # Either record, had it been trained on, would be a hidden neuron of its
    # own (a status no other record has); the sourceless one, two intervals
    # before the log, would also move the training grid's origin.
    config = simulate.default_flood_config(seed=1)
    trace = simulate.generate_trace(config)
    first = trace.events[0]
    odd = [first._replace(source_id="", fields={**first.fields, "status": "retry"},
                          timestamp=first.timestamp - timedelta(
                              seconds=2 * config.interval_seconds)),
           first._replace(timestamp=None, fields={**first.fields, "status": "overflow"})]

    def stream(events):
        alerts, counts, network = cc4.stream_pipeline(
            events, simulate.event_schema(), None,
            cc4.StreamConfig(interval_seconds=config.interval_seconds), trace.labels, 0)
        return alerts, counts, network.to_json_obj()

    alerts, counts, network = stream(trace.events)
    odd_alerts, odd_counts, odd_network = stream(odd + trace.events)
    assert odd_counts.records_in == counts.records_in + 2
    assert odd_counts.dropped_malformed == counts.dropped_malformed + 2
    assert (odd_alerts, odd_network) == (alerts, network)
    with pytest.raises(EmptyTrainingSet):
        stream(odd)


def test_event_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "cam-1", '
        '"proto": "udp", "packets": 12.0}\n', encoding="utf-8")
    events = cc4.read_events_jsonl(path)
    assert events == [cc4.EventLogRecord(timestamp=T0, source_id="cam-1",
                                         fields={"proto": "udp", "packets": 12.0})]


def test_event_jsonl_with_a_byte_order_mark(tmp_path):
    line = '{"ts": "2021-01-01T00:00:00+00:00", "src": "cam-1", "proto": "udp"}\n'
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
    plain.write_text(line * 2, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + (line * 2).encode("utf-8"))
    assert cc4.read_events_jsonl(marked) == cc4.read_events_jsonl(plain)


@pytest.mark.parametrize("line, message", [
    ('{"ts": "2021-01-01T25:00:00+00:00", "src": "b"}',
     "line 5: event ts '2021-01-01T25:00:00+00:00' is not an ISO 8601 stamp"),
    ('{"ts": "2021-01-01T00:00:00+00:00", "src": ""}',
     "line 5: event record requires nonempty ts and src"),
    ('{"ts": ["2021-01-01T00:00:00+00:00"], "src": "b"}',
     "line 5: event ts must be a string, not ['2021-01-01T00:00:00+00:00']"),
])
def test_a_bad_line_after_good_stamps_names_its_line(tmp_path, line, message):
    # the stamp text of lines 1-3 parsed fine, and line 5 still fails alone
    good = '{"ts": "2021-01-01T00:00:00+00:00", "src": "a", "proto": "udp"}'
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join([good, good, good, "", line, good]) + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaMismatch) as info:
        cc4.read_events_jsonl(path)
    assert str(info.value) == message


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_one_instant_spelled_three_ways_reads_and_dedupes_as_one(tmp_path, bom):
    spellings = ("2021-01-01T01:00:00+01:00", "2021-01-01T00:00:00+00:00",
                 "2021-01-01T00:00:00", "2021-01-01T01:00:00+01:00")
    lines = [json.dumps({"ts": ts, "src": "a", "proto": "udp", "packets": 3.0})
             for ts in spellings]
    path = tmp_path / "events.jsonl"
    path.write_bytes(bom + "\n".join(lines).encode("utf-8"))
    events = cc4.read_events_jsonl(path)
    assert events == [cc4.EventLogRecord(timestamp=T0, source_id="a",
                                         fields={"proto": "udp", "packets": 3.0})] * 4
    assert all(e.timestamp.tzinfo is timezone.utc for e in events)
    _, counts, _ = cc4.stream_pipeline(events, schema(), _network(), cc4.StreamConfig())
    assert (counts.emitted_classifications, counts.dropped_duplicate) == (1, 3)


@pytest.mark.parametrize("labels", [None, []], ids=["network", "labels"])
def test_naive_and_aware_stamps_in_one_stream_raise_type_error(labels):
    # Only well-formed records count: a naive record with a list field is
    # skipped before any stamp is compared.
    naive = T0.replace(tzinfo=None)
    odd = cc4.EventLogRecord(timestamp=naive, source_id="b",
                             fields={"proto": ["udp"], "packets": 3.0})
    aware = [_event(1, "a"), _event(2, "b")]
    network = None if labels is not None else _network()
    config = cc4.StreamConfig()
    assert cc4.stream_pipeline([odd] + aware, schema(), network, config, labels)[1] \
        .dropped_malformed == 1
    mixed = aware[0]._replace(timestamp=naive)
    for events in ([mixed] + aware, aware + [mixed]):
        with pytest.raises(TypeError) as info:
            cc4.stream_pipeline(events, schema(), network, config, labels)
        assert "naive" in str(info.value) and "aware" in str(info.value)


@pytest.mark.parametrize("labels", [None, []], ids=["network", "labels"])
@pytest.mark.parametrize("skew_intervals, interval_seconds", [(-1, 60.0), (2, -60.0)])
def test_a_negative_skew_window_is_refused(labels, skew_intervals, interval_seconds):
    network = None if labels is not None else _network()
    config = cc4.StreamConfig(interval_seconds=interval_seconds,
                              skew_intervals=skew_intervals)
    with pytest.raises(ValueError, match=r"skew window of -\d+\.0 s is negative"):
        cc4.stream_pipeline([_event(1, "a")], schema(), network, config, labels)


@pytest.mark.parametrize("labels", [None, []], ids=["network", "labels"])
@pytest.mark.parametrize("skew_intervals, interval_seconds",
                         [(5, 0.0), (0, -60.0), (5, float("nan")), (5, float("inf")),
                          (0, float("inf"))])
def test_an_interval_that_is_not_a_positive_number_is_refused(labels, skew_intervals,
                                                               interval_seconds):
    network = None if labels is not None else _network()
    config = cc4.StreamConfig(interval_seconds=interval_seconds,
                              skew_intervals=skew_intervals)
    with pytest.raises(ValueError, match=r"the interval of \S+ s is not a positive finite"):
        cc4.stream_pipeline([_event(1, "a")], schema(), network, config, labels)


def unread_log():
    """A log that fails the test if the stream reads a record of it."""
    raise AssertionError("the stream read the log before checking its config")
    yield


@pytest.mark.parametrize("labels", [None, []], ids=["network", "labels"])
@pytest.mark.parametrize("setting, error, message", [
    ({"confidence": 0.5}, UnsupportedConfidence, "0.5 not tabulated"),
    ({"surge_window": 0}, ValueError, "surge_window must be an int >= 1, not 0"),
    ({"surge_window": -3}, ValueError, "surge_window must be an int >= 1, not -3"),
    ({"surge_window": 2.5}, ValueError, "surge_window must be an int >= 1, not 2.5"),
    ({"surge_window": True}, ValueError, "surge_window must be an int >= 1, not True"),
    ({"gap_threshold": 0}, ValueError, "gap_threshold must be an int >= 1, not 0"),
    ({"gap_threshold": 2.5}, ValueError, "gap_threshold must be an int >= 1, not 2.5")],
    ids=["confidence", "window-0", "window-neg", "window-float", "window-bool", "gap-0",
         "gap-float"])
@pytest.mark.parametrize("log", ["unread", "empty", "short"])
def test_the_scoring_config_is_refused_before_any_record_is_read(labels, setting, error,
                                                                 message, log):
    # An empty log, or one no longer than the surge baseline, never reaches
    # the code that scores with these settings, so they are checked on entry;
    # past the baseline a window of 2.5 would fail inside numpy after the
    # whole log is read, and a gap threshold of 2.5 be taken.
    network = None if labels is not None else _network()
    records = {"unread": unread_log(), "empty": [],
               "short": [_event(minute, "a") for minute in range(5)]}[log]
    with pytest.raises(error, match=message):
        cc4.stream_pipeline(records, schema(), network,
                            cc4.StreamConfig(**setting), labels)


def test_parse_event_requires_ts_and_src():
    with pytest.raises(SchemaMismatch):
        cc4.parse_event_obj({"src": "x"})
    with pytest.raises(SchemaMismatch):
        cc4.parse_event_obj({"ts": "2021-01-01T00:00:00"})


@pytest.mark.parametrize("src, source_id", [
    ("x", "x"), (0, "0"), (7, "7"), (-3, "-3"), (10 ** 20, "100000000000000000000")])
def test_parse_event_takes_a_string_or_integer_source(src, source_id):
    record = cc4.parse_event_obj({"ts": "2021-01-01T00:00:00", "src": src})
    assert record.source_id == source_id


@pytest.mark.parametrize("src, message", [
    (False, "event src must be a string or an integer, not False"),
    (True, "event src must be a string or an integer, not True"),
    (1.5, "event src must be a string or an integer, not 1.5"),
    (1.0, "event src must be a string or an integer, not 1.0"),
    ([1], "event src must be a string or an integer, not [1]"),
    ({"a": 1}, "event src must be a string or an integer, not {'a': 1}"),
    ("", "event record requires nonempty ts and src"),
    (None, "event record requires nonempty ts and src"),
])
def test_parse_event_refuses_any_other_source(src, message):
    with pytest.raises(SchemaMismatch) as info:
        cc4.parse_event_obj({"ts": "2021-01-01T00:00:00", "src": src})
    assert str(info.value) == message


def test_parse_event_takes_every_stamp_to_utc():
    for ts in ("2021-01-01T00:00:00", "2021-01-01T00:00:00+00:00",
               "2021-01-01T05:00:00+05:00", "2020-12-31T19:00:00-05:00"):
        stamp = cc4.parse_event_obj({"ts": ts, "src": "x"}).timestamp
        assert stamp == T0 and stamp.tzinfo is timezone.utc


def test_new_id_counts():
    events = [_event(0, "a"), _event(0, "b"), _event(1, "a"), _event(2, "c")]
    series = cc4.new_id_counts(events, T0, 60.0, 4)
    assert series.values.tolist() == [2.0, 0.0, 1.0, 0.0]


def test_new_id_counts_skips_what_the_stream_counts_malformed():
    # a list or object field and an empty source are malformed to the stream,
    # so none of them is the first sighting of an identity
    events = [cc4.EventLogRecord(T0, "a", {"proto": ["udp"]}),
              cc4.EventLogRecord(T0, "b", {"proto": {"udp": 1}}),
              cc4.EventLogRecord(T0, "", {"proto": "udp"}),
              _event(1, "a"), _event(2, "c")]
    assert cc4.new_id_counts(events, T0, 60.0, 3).values.tolist() == [0.0, 1.0, 1.0]


@pytest.mark.parametrize("start", [datetime(2021, 1, 1), T0], ids=["naive", "utc"])
def test_new_id_counts_of_an_empty_log_is_zeros(start):
    series = cc4.new_id_counts([], start, 60.0, 3)
    assert series.values.tolist() == [0.0, 0.0, 0.0]
