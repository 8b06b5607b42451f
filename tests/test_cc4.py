import json
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatewatch import cc4, simulate
from gatewatch.errors import EmptyTrainingSet, SchemaMismatch, WidthMismatch

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)


def schema():
    return cc4.SymbolSchema(encoders=(
        cc4.FieldEncoder(name="proto", kind="one_hot",
                         vocabulary=("zigbee", "wifi", "udp")),
        cc4.FieldEncoder(name="packets", kind="thermometer",
                         bin_edges=(5.0, 20.0, 100.0)),
    ))


class TestEncoders:
    def test_one_hot(self):
        enc = cc4.FieldEncoder(name="proto", kind="one_hot",
                               vocabulary=("a", "b", "c"))
        bits, unknown = enc.encode("b")
        assert bits.tolist() == [0, 1, 0] and not unknown

    def test_one_hot_out_of_vocabulary(self):
        enc = cc4.FieldEncoder(name="proto", kind="one_hot",
                               vocabulary=("a", "b"))
        bits, unknown = enc.encode("z")
        assert bits.tolist() == [0, 0] and unknown

    def test_one_hot_matches_by_equality_first_word(self):
        # a value matches the first word equal to it, hashable or not
        enc = cc4.FieldEncoder(name="f", kind="one_hot",
                               vocabulary=({1}, 1.0, 1, frozenset({1})))
        assert enc.encode(frozenset({1}))[0].tolist() == [1, 0, 0, 0]
        assert enc.encode(1)[0].tolist() == [0, 1, 0, 0]
        assert enc.encode([1])[1]

    def test_thermometer_bins(self):
        enc = cc4.FieldEncoder(name="v", kind="thermometer",
                               bin_edges=(5.0, 20.0, 100.0))
        assert enc.width == 4
        assert enc.encode(0.0)[0].tolist() == [1, 0, 0, 0]
        assert enc.encode(5.0)[0].tolist() == [1, 1, 0, 0]
        assert enc.encode(19.9)[0].tolist() == [1, 1, 0, 0]
        assert enc.encode(20.0)[0].tolist() == [1, 1, 1, 0]
        assert enc.encode(1e9)[0].tolist() == [1, 1, 1, 1]

    def test_thermometer_is_monotone(self):
        enc = cc4.FieldEncoder(name="v", kind="thermometer",
                               bin_edges=(1.0, 2.0, 3.0))
        prev = -1
        for v in (0.5, 1.5, 2.5, 3.5):
            count = int(enc.encode(v)[0].sum())
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

    @settings(max_examples=30, deadline=None)
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
        alerts, counts = cc4.stream_pipeline(events, schema(), _network(), config)
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
        _, counts = cc4.stream_pipeline(events, schema(), _network(), config)
        assert counts.dropped_late == 1
        assert counts.emitted_classifications == 2

    def test_strict_unknown_raises_alerts(self):
        odd = [_event(0, "a", proto="wifi", packets=50.0)]
        lax = cc4.StreamConfig(strict_unknown=False)
        strict = cc4.StreamConfig(strict_unknown=True)
        quiet, _ = cc4.stream_pipeline(odd, schema(), _network(), lax)
        loud, _ = cc4.stream_pipeline(odd, schema(), _network(), strict)
        assert quiet == []
        assert len(loud) == 1 and loud[0].packet_class == "Unknown"
        assert loud[0].severity == "Warning"

    def test_pipeline_is_deterministic(self):
        events = [_event(i, f"dev-{i % 3}",
                         proto="udp" if i % 7 == 0 else "zigbee",
                         packets=float(3 + i)) for i in range(60)]
        config = cc4.StreamConfig()
        a1, c1 = cc4.stream_pipeline(events, schema(), _network(), config)
        a2, c2 = cc4.stream_pipeline(events, schema(), _network(), config)
        assert a1 == a2 and c1 == c2

    def test_alert_json_includes_class_fields(self):
        events = [_event(0, "dev-2", proto="udp", packets=500.0)]
        config = cc4.StreamConfig()
        alerts, _ = cc4.stream_pipeline(events, schema(), _network(), config)
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
            network = cc4.train_from_labels(trace.events, trace.labels,
                                            simulate.event_schema(),
                                            config.interval_seconds, 0)
            return cc4.stream_pipeline(
                trace.events, simulate.event_schema(), network,
                cc4.StreamConfig(interval_seconds=config.interval_seconds))

        aware, aware_counts = stream(T0)
        naive, naive_counts = stream(T0.replace(tzinfo=None))
        assert {a.kind for a in aware} == {"Intrusion", "Dropout"}
        assert naive_counts == aware_counts
        assert naive == [replace(a, timestamp=a.timestamp.replace(tzinfo=None))
                         for a in aware]


def test_event_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "cam-1", '
        '"proto": "udp", "packets": 12.0}\n', encoding="utf-8")
    events = cc4.read_events_jsonl(path)
    assert events == [cc4.EventLogRecord(timestamp=T0, source_id="cam-1",
                                         fields={"proto": "udp", "packets": 12.0})]


def test_parse_event_requires_ts_and_src():
    with pytest.raises(SchemaMismatch):
        cc4.parse_event_obj({"src": "x"})
    with pytest.raises(SchemaMismatch):
        cc4.parse_event_obj({"ts": "2021-01-01T00:00:00"})


def test_parse_event_takes_every_stamp_to_utc():
    for ts in ("2021-01-01T00:00:00", "2021-01-01T00:00:00+00:00",
               "2021-01-01T05:00:00+05:00", "2020-12-31T19:00:00-05:00"):
        stamp = cc4.parse_event_obj({"ts": ts, "src": "x"}).timestamp
        assert stamp == T0 and stamp.tzinfo is timezone.utc


def test_new_id_counts():
    events = [_event(0, "a"), _event(0, "b"), _event(1, "a"), _event(2, "c")]
    series = cc4.new_id_counts(events, T0, 60.0, 4)
    assert series.values.tolist() == [2.0, 0.0, 1.0, 0.0]
