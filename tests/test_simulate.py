import csv
import ipaddress
import json
import re
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, grid_step
from gatewatch import simulate as sim
from gatewatch.cc4 import (EventLogRecord, StreamConfig, cc4_classify, parse_event_obj,
                           stream_pipeline)
from gatewatch.detect import AnomalyAlert, detect_dropout
from gatewatch.errors import InvalidScript, TimeBaseMismatch
from gatewatch.ingest import format_timestamp, parse_flow_csv
from gatewatch.series import TimeSeries, slot_time, to_utc


def small_config(seed=1, attacks=()):
    return sim.SimConfig(seed=seed, duration=96, fleet=sim.default_fleet(),
                         attacks=list(attacks))


class TestValidation:
    def test_unknown_target(self):
        config = small_config(attacks=[sim.AttackScript(
            kind="UdpFlood", target_id="nope", start=0, end=5)])
        with pytest.raises(InvalidScript):
            config.validate()

    def test_out_of_range_window(self):
        config = small_config(attacks=[sim.AttackScript(
            kind="UdpFlood", target_id="camera-1", start=90, end=100)])
        with pytest.raises(InvalidScript):
            config.validate()

    def test_overlap_on_same_target(self):
        config = small_config(attacks=[
            sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                             start=10, end=30),
            sim.AttackScript(kind="SilenceAfterOverflow", target_id="camera-1",
                             start=20, end=40)])
        with pytest.raises(InvalidScript):
            config.validate()

    def test_duplicate_device_id(self):
        # A repeated id would overwrite one device's series and address while
        # both devices' events were still written.
        fleet = sim.default_fleet()
        config = sim.SimConfig(duration=96, fleet=fleet + [fleet[1]])
        with pytest.raises(ValueError, match="unique"):
            config.validate()

    def test_overlap_on_distinct_targets_is_fine(self):
        config = small_config(attacks=[
            sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                             start=10, end=30),
            sim.AttackScript(kind="Sybil", target_id="water-1",
                             start=10, end=30)])
        config.validate()

    # a day holds no whole number of 0-second intervals, a negative interval
    # would stamp the events backwards, and an infinite one has no second slot
    @pytest.mark.parametrize("interval", [0.0, -60.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("fleet", [[], sim.default_fleet()], ids=["empty", "stock"])
    def test_interval_must_be_positive(self, interval, fleet):
        config = sim.SimConfig(duration=4, interval_seconds=interval, fleet=fleet)
        with pytest.raises(ValueError, match="interval of .* s is not a positive finite"):
            config.validate()

    def test_fleet_size_keeps_flow_ports_in_range(self):
        # flow ports are 1000 + device index, at most 65535
        fleet = [sim.DeviceSpec(id=f"d{i}", kind="camera", base_rate=5.0,
                                diurnal_amplitude=1.0, noise_std=0.1)
                 for i in range(64537)]
        sim.SimConfig(duration=1, fleet=fleet[:-1]).validate()
        with pytest.raises(ValueError, match="at most 64536 devices, not 64537"):
            sim.SimConfig(duration=1, fleet=fleet).validate()

    # an infinite magnitude was taken here and refused only by generate_trace
    @pytest.mark.parametrize("magnitude", [0.0, -3.0, float("nan"), float("inf")])
    def test_flood_magnitude_must_be_positive(self, magnitude):
        message = f"^magnitude must be > 0 and finite, not {magnitude!r}$"
        with pytest.raises(ValueError, match=message):
            sim.check_magnitude(magnitude)
        with pytest.raises(ValueError, match=message):
            sim.AttackScript(kind="UdpFlood", target_id="camera-1", start=0, end=5,
                             magnitude=magnitude)

    # A NaN gave a device with no event and every point missing, unlabelled
    # and with no error; an infinite amplitude failed later, naming no device.
    @pytest.mark.parametrize("name", ["base_rate", "diurnal_amplitude", "noise_std"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_device_setting_must_be_finite(self, name, value):
        settings = {"base_rate": 5.0, "diurnal_amplitude": 1.0, "noise_std": 0.1,
                    name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, not {value!r}$"):
            sim.DeviceSpec(id="d", kind="camera", **settings)


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = sim.generate_trace(sim.default_flood_config(seed=9))
        b = sim.generate_trace(sim.default_flood_config(seed=9))
        for dev in a.device_series:
            assert np.array_equal(a.device_series[dev].values,
                                  b.device_series[dev].values,
                                  equal_nan=True)
        assert a.events == b.events and a.labels == b.labels

    def test_seeds_differ(self):
        a = sim.generate_trace(small_config(seed=1))
        b = sim.generate_trace(small_config(seed=2))
        assert not np.array_equal(a.device_series["camera-1"].values,
                                  b.device_series["camera-1"].values)

    def test_rates_nonnegative(self):
        trace = sim.generate_trace(small_config())
        for series in trace.device_series.values():
            vals = series.values[~series.missing]
            assert np.all(vals >= 0)

    def test_flood_scales_target_and_labels_window(self):
        script = sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                                  start=40, end=60, magnitude=10.0)
        trace = sim.generate_trace(small_config(attacks=[script]))
        clean = sim.generate_trace(small_config())
        attacked = trace.device_series["camera-1"].values
        baseline = clean.device_series["camera-1"].values
        assert np.allclose(attacked[40:60], baseline[40:60] * 10.0)
        assert np.allclose(attacked[:40], baseline[:40])
        assert [(i, d) for i, d, _ in trace.labels] == \
            [(i, "camera-1") for i in range(40, 60)]

    def test_flood_events_use_udp(self):
        script = sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                                  start=40, end=60)
        trace = sim.generate_trace(small_config(attacks=[script]))
        for event in trace.events:
            if event.source_id != "camera-1":
                continue
            idx = (event.timestamp - trace.start) // grid_step(trace.interval_seconds)
            expected = "udp" if 40 <= idx < 60 else "wifi"
            assert event.fields["proto"] == expected

    def test_silence_blanks_series_and_events(self):
        script = sim.AttackScript(kind="SilenceAfterOverflow",
                                  target_id="streetlight-1", start=30, end=50)
        trace = sim.generate_trace(small_config(attacks=[script]))
        series = trace.device_series["streetlight-1"]
        assert series.missing[30:50].all()
        assert not series.missing[:30].any()
        silent = [e for e in trace.events if e.source_id == "streetlight-1"
                  and 30 <= (e.timestamp - trace.start) // grid_step(trace.interval_seconds)
                  < 50]
        assert silent == []

    def test_sybil_injects_fresh_identities(self):
        script = sim.AttackScript(kind="Sybil", target_id="water-1",
                                  start=20, end=25, fake_id_count=7)
        trace = sim.generate_trace(small_config(attacks=[script]))
        fakes = {e.source_id for e in trace.events
                 if e.source_id.startswith("fake-")}
        assert len(fakes) == 7 * 5
        real_ids = {d.id for d in trace.config.fleet}
        assert fakes.isdisjoint(real_ids)

    def test_addresses_of_a_large_fleet(self):
        fleet = [sim.DeviceSpec(id=f"d{i}", kind="camera", base_rate=5.0,
                                diurnal_amplitude=1.0, noise_std=0.1)
                 for i in range(300)]
        ips = sim.generate_trace(sim.SimConfig(duration=2, fleet=fleet)).device_ips
        assert [ips[f"d{i}"] for i in range(253)] == \
            [f"10.0.0.{i + 1}" for i in range(253)]
        addresses = [ipaddress.IPv4Address(ip) for ip in ips.values()]
        assert len(set(addresses)) == 300
        assert ipaddress.IPv4Address(sim.GATEWAY_IP) not in addresses
        assert all(str(a) == ip for a, ip in zip(addresses, ips.values()))

    def test_event_lines_read_back(self):
        plus2 = timezone(timedelta(hours=2))
        configs = [sim.default_flood_config(), sim.default_silence_config(),
                   sim.default_sybil_config(),
                   sim.SimConfig(duration=30, fleet=sim.default_fleet(),
                                 start=datetime(2021, 6, 1, 3, tzinfo=plus2))]
        for config in configs:
            for event in sim.generate_trace(config).events:
                assert parse_event_obj(event.to_json_obj()) == event

    def test_events_sorted(self):
        trace = sim.generate_trace(small_config())
        keys = [(e.timestamp, e.source_id) for e in trace.events]
        assert keys == sorted(keys)


def test_training_samples_label_attack_cells():
    trace = sim.generate_trace(sim.default_flood_config(seed=3))
    net = stream_pipeline(trace.events, sim.event_schema(), None,
                          StreamConfig(interval_seconds=trace.interval_seconds),
                          trace.labels, 0)[2]
    assert set(net.classes) == {"Known", "Attack"}
    # one-shot training on the trace's own samples recalls them at radius 0
    for vector, cls in zip(net.vectors[:50], net.classes):
        got, _ = cc4_classify(net, vector)
        assert got == cls


class TestFiles:
    def test_write_and_read_back(self, tmp_path):
        trace = sim.generate_trace(small_config(attacks=[
            sim.AttackScript(kind="SilenceAfterOverflow",
                             target_id="streetlight-1", start=10, end=20)]))
        paths = sim.write_trace(trace, tmp_path)
        records, report = parse_flow_csv(paths["flow"], "Fwd Pkt Len Mean")
        non_missing = sum(int((~s.missing).sum())
                          for s in trace.device_series.values())
        assert report.rows_read == non_missing
        labels = sim.read_labels_csv(paths["labels"])
        assert labels == trace.labels

    def test_write_trace_writes_trace_files_byte_for_byte(self, tmp_path):
        trace = sim.generate_trace(sim.default_sybil_config(seed=5))
        files = sim.trace_files(trace)
        paths = sim.write_trace(trace, tmp_path)
        assert paths == {name.split(".")[0]: tmp_path / name for name in files}
        for name, text in files.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8")
        assert b"\r\n" in paths["flow"].read_bytes()   # csv's row ends are kept

    def test_byte_identical_across_runs(self, tmp_path):
        config = sim.default_sybil_config(seed=5)
        p1 = sim.write_trace(sim.generate_trace(config), tmp_path / "a")
        p2 = sim.write_trace(sim.generate_trace(
            sim.default_sybil_config(seed=5)), tmp_path / "b")
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()


class TestScoring:
    def _alert(self, trace, idx, kind, source):
        return AnomalyAlert(
            timestamp=trace.start + timedelta(
                seconds=idx * trace.interval_seconds),
            kind=kind, observed=1.0, expected=0.0, band=None,
            severity="Warning", source=source)

    def test_perfect_alert(self):
        trace = sim.generate_trace(small_config(attacks=[
            sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                             start=40, end=44)]))
        alerts = [self._alert(trace, i, "Surge", "camera-1")
                  for i in range(40, 44)]
        score = sim.score_detections(alerts, trace)
        assert score.precision == 1.0 and score.recall == 1.0
        assert score.false_positives == 0 and score.false_negatives == 0

    def test_false_positive_and_miss(self):
        trace = sim.generate_trace(small_config(attacks=[
            sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                             start=40, end=42)]))
        alerts = [self._alert(trace, 5, "Surge", "camera-1"),
                  self._alert(trace, 40, "Surge", "camera-1")]
        score = sim.score_detections(alerts, trace)
        assert score.true_positives == 1 and score.false_positives == 1
        assert score.precision == 0.5
        assert score.recall == 0.5  # interval 41 never covered

    def test_coverage_window(self):
        trace = sim.generate_trace(small_config(attacks=[
            sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                             start=40, end=44)]))
        score = sim.score_detections(
            [self._alert(trace, 40, "Surge", "camera-1")], trace, coverage=4)
        assert score.recall == 1.0

    def test_kind_compatibility(self):
        trace = sim.generate_trace(small_config(attacks=[
            sim.AttackScript(kind="SilenceAfterOverflow",
                             target_id="streetlight-1", start=40, end=44)]))
        wrong = sim.score_detections(
            [self._alert(trace, 40, "Surge", "streetlight-1")], trace)
        assert wrong.true_positives == 0
        right = sim.score_detections(
            [self._alert(trace, 40, "Dropout", "streetlight-1")], trace)
        assert right.true_positives == 1

    def test_off_grid_alert_rejected(self):
        trace = sim.generate_trace(small_config())
        alert = AnomalyAlert(
            timestamp=trace.start + timedelta(seconds=90), kind="Surge",
            observed=1.0, expected=0.0, band=None, severity="Warning",
            source="camera-1")
        with pytest.raises(TimeBaseMismatch):
            sim.score_detections([alert], trace)

    def test_no_alerts_no_labels(self):
        trace = sim.generate_trace(small_config())
        score = sim.score_detections([], trace)
        assert score.precision is None and score.recall == 1.0

    def test_a_naive_start_trace_scores_its_own_alerts(self):
        # A naive start is UTC: the trace's start, its series and the alerts
        # made from them run on one clock, so they score as the UTC trace's.
        scores = []
        for start in (datetime(2021, 1, 1), datetime(2021, 1, 1, tzinfo=timezone.utc)):
            trace = sim.generate_trace(replace(sim.default_silence_config(), start=start))
            assert trace.start == datetime(2021, 1, 1, tzinfo=timezone.utc)
            assert trace.events[0].timestamp - trace.start == timedelta(0)
            dropouts = detect_dropout(trace.device_series["streetlight-1"], 3, "streetlight-1")
            streamed = stream_pipeline(trace.events, sim.event_schema(), None,
                                       StreamConfig(interval_seconds=trace.interval_seconds),
                                       trace.labels, 0)[0]
            scores.append([sim.score_detections(alerts, trace).to_json_obj()
                           for alerts in (dropouts, streamed)])
        assert scores[0] == scores[1]
        assert scores[0][0]["precision"] == 1.0


# --- the rewrite against the per-kind generator it replaced ------------------


def ref_generate_trace(config):
    # The generator before the one pass over the scripts: per-kind script
    # dicts, an `attacked` dict choosing the proto, and a timedelta per event.
    config.validate()
    rng = np.random.default_rng(config.seed)
    period = 86400.0 / config.interval_seconds
    t = np.arange(config.duration)
    floods, silences, sybils = {}, {}, []
    for script in config.attacks:
        if script.kind == "UdpFlood":
            floods.setdefault(script.target_id, []).append(script)
        elif script.kind == "SilenceAfterOverflow":
            silences.setdefault(script.target_id, []).append(script)
        else:
            sybils.append(script)
    device_series, device_ips, labels, events, attacked = {}, {}, [], [], {}
    for index, dev in enumerate(config.fleet):
        device_ips[dev.id] = f"10.0.0.{index + 1}"
        rates = (dev.base_rate
                 + dev.diurnal_amplitude * np.sin(2 * np.pi * t / period)
                 + rng.normal(0.0, dev.noise_std, size=config.duration))
        rates = np.maximum(rates, 0.0)
        for script in floods.get(dev.id, []):
            rates[script.start:script.end] *= script.magnitude
            for i in range(script.start, script.end):
                labels.append((i, dev.id, "UdpFlood"))
                attacked[(i, dev.id)] = "UdpFlood"
        for script in silences.get(dev.id, []):
            rates[script.start:script.end] = np.nan
            for i in range(script.start, script.end):
                labels.append((i, dev.id, "SilenceAfterOverflow"))
                attacked[(i, dev.id)] = "SilenceAfterOverflow"
        series = device_series[dev.id] = TimeSeries(
            start=config.start, interval_seconds=config.interval_seconds, values=rates)
        for i in range(config.duration):
            if series.missing[i]:
                continue
            stamp = to_utc(config.start) + i * grid_step(config.interval_seconds)
            flooded = attacked.get((i, dev.id)) == "UdpFlood"
            events.append(EventLogRecord(
                timestamp=stamp, source_id=dev.id,
                fields={"proto": "udp" if flooded else sim.KIND_PROTO[dev.kind],
                        "packets": round(float(rates[i]), 3),
                        "status": "ok"}))
    for script in sybils:
        for i in range(script.start, script.end):
            stamp = to_utc(config.start) + i * grid_step(config.interval_seconds)
            labels.append((i, script.target_id, "Sybil"))
            for j in range(script.fake_id_count):
                events.append(EventLogRecord(
                    timestamp=stamp, source_id=f"fake-{script.target_id}-{i}-{j}",
                    fields={"proto": "wifi", "packets": 1.0, "status": "ok"}))
    events.sort(key=lambda e: (e.timestamp, e.source_id))
    labels.sort()
    return sim.LabeledTrace(config=config, device_series=device_series,
                            events=events, labels=labels, device_ips=device_ips)


def ref_write_trace(trace, outdir):
    # The writer before one CSV stamp per interval: a port found by a linear
    # search per row and the event line built here.
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"flow": outdir / "flow.csv", "events": outdir / "events.jsonl",
             "labels": outdir / "labels.csv"}
    rows = []
    for dev in trace.config.fleet:
        series = trace.device_series[dev.id]
        ip = trace.device_ips[dev.id]
        port = 1000 + list(trace.device_ips).index(dev.id)
        for i in range(len(series)):
            if series.missing[i]:
                continue
            rows.append((series.timestamp_at(i),
                         f"{ip}-{sim.GATEWAY_IP}-{port}-80-17",
                         float(series.values[i])))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(paths["flow"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sim.FLOW_COLUMNS)
        for stamp, flow_id, rate in rows:
            writer.writerow([flow_id, format_timestamp(stamp),
                             f"{rate:.6f}", f"{rate:.6f}", -1, 8192, 0])
    with open(paths["events"], "w", encoding="utf-8") as fh:
        for event in trace.events:
            obj = {"ts": event.timestamp.isoformat(), "src": event.source_id}
            obj.update(event.fields)
            fh.write(json.dumps(obj) + "\n")
    with open(paths["labels"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sim.LABEL_COLUMNS)
        for row in trace.labels:
            writer.writerow(row)
    return paths


STARTS = (datetime(2021, 1, 1, tzinfo=timezone.utc),
          datetime(2021, 3, 28, 0, 30, tzinfo=timezone(timedelta(hours=2))),
          datetime(2020, 2, 29, 23, 59, 59))


# Text that json must escape and csv must quote: quotes, a backslash, commas,
# line breaks, a control character and non-ASCII letters.
AWKWARD = 'abz-019",\\\n\r\t é€\u2028'


@st.composite
def sim_configs(draw):
    names = draw(st.lists(st.text(AWKWARD, min_size=1, max_size=5),
                          min_size=1, max_size=12, unique=True))
    fleet = [sim.DeviceSpec(
        id=name, kind=draw(st.sampled_from(sim.DEVICE_KINDS)),
        base_rate=draw(st.floats(0.5, 100.0)),
        diurnal_amplitude=draw(st.floats(0.0, 50.0)),
        noise_std=draw(st.floats(0.0, 20.0))) for name in names]
    duration = draw(st.integers(1, 60))
    attacks, busy = [], {}
    for _ in range(draw(st.integers(0, 6))):
        target = draw(st.sampled_from(names))
        start = draw(st.integers(0, duration - 1))
        end = draw(st.integers(start + 1, duration))
        if any(a < end and start < b for a, b in busy.get(target, [])):
            continue
        busy.setdefault(target, []).append((start, end))
        kind = draw(st.sampled_from(sim.ATTACK_KINDS))
        attacks.append(sim.AttackScript(
            kind=kind, target_id=target,
            start=start, end=end, magnitude=draw(st.floats(0.0, 50.0, exclude_min=True)),
            fake_id_count=draw(st.integers(1 if kind == "Sybil" else 0, 4))))
    return sim.SimConfig(seed=draw(st.integers(0, 2 ** 32 - 1)), duration=duration,
                         interval_seconds=draw(st.sampled_from([60.0, 900.0, 3600.0, 7.0])),
                         start=draw(st.sampled_from(STARTS)), fleet=fleet,
                         attacks=attacks)


@settings(max_examples=examples(80), deadline=None)
@given(sim_configs())
def test_trace_matches_the_per_kind_generator(config):
    got, want = sim.generate_trace(config), ref_generate_trace(config)
    assert got.events == want.events
    assert got.labels == want.labels
    assert got.device_ips == want.device_ips
    assert list(got.device_series) == list(want.device_series)
    for dev, series in want.device_series.items():
        assert got.device_series[dev].start == series.start
        assert np.array_equal(got.device_series[dev].values, series.values,
                              equal_nan=True)
    with tempfile.TemporaryDirectory() as tmp:
        got_paths = sim.write_trace(got, Path(tmp) / "got")
        want_paths = ref_write_trace(want, Path(tmp) / "want")
        assert got_paths.keys() == want_paths.keys()
        for key, path in want_paths.items():
            assert got_paths[key].read_bytes() == path.read_bytes(), key


# --- the event-line encoder against json.dumps --------------------------------


ZONES = st.one_of(st.none(), st.builds(
    timezone, st.timedeltas(timedelta(hours=-23, minutes=-59), timedelta(hours=23, minutes=59))))


@st.composite
def awkward_stamps(draw):
    # instants, each in one or more zones (one instant in two zones is one dict
    # key with two texts), or naive; the events reuse these objects in runs
    stamps = []
    for base in draw(st.lists(st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1)),
                              min_size=1, max_size=3)):
        for zone in draw(st.lists(ZONES, min_size=1, max_size=3)):
            stamps.append(base if zone is None else
                          base.replace(tzinfo=timezone.utc).astimezone(zone))
    return stamps


# 1, 1.0 and True are one dict key and three JSON texts; so are 0.0 and -0.0
AWKWARD_VALUES = st.one_of(
    st.text(AWKWARD, max_size=4), st.floats(), st.integers(-2, 2), st.booleans(), st.none(),
    st.sampled_from([-0.0, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]),
    st.lists(st.one_of(st.integers(), st.text(AWKWARD, max_size=2)), max_size=2))
AWKWARD_KEYS = st.one_of(st.sampled_from(["ts", "src", "proto", "packets", "status"]),
                         st.text(AWKWARD, max_size=3), st.sampled_from([1, 1.0, True, None]))


@settings(max_examples=examples(200), deadline=None)
@given(st.data())
def test_event_lines_are_json_dumps_lines(data):
    stamps = data.draw(awkward_stamps())
    sources = st.one_of(st.text(AWKWARD, max_size=4), st.sampled_from([1, 1.0, True]))
    events = data.draw(st.lists(st.builds(
        EventLogRecord, st.sampled_from(stamps), sources,
        st.dictionaries(AWKWARD_KEYS, AWKWARD_VALUES, max_size=4)), max_size=12))
    trace = sim.LabeledTrace(config=sim.SimConfig(duration=1), device_series={},
                             events=events, labels=[], device_ips={})
    assert sim.trace_files(trace)["events.jsonl"] == \
        "".join(json.dumps(event.to_json_obj()) + "\n" for event in events)


def test_event_lines_of_awkward_records():
    # equal dict keys with different JSON texts, as values, sources, keys and
    # stamps; a NaN; a field that overrides the source
    stamp = datetime(2021, 1, 1, tzinfo=timezone.utc)
    events = [EventLogRecord(stamp, src, fields) for src, fields in
              [("a", {"v": 0.0}), ("a", {"v": -0.0}), (1, {"v": 1}), (1.0, {"v": 1.0}),
               (True, {"v": True}), ("1", {"v": "1"}), ("a", {1: "1"}), ("a", {True: 1.0}),
               ("a", {"v": float("nan")}), ("a", {"src": "b"})]]
    # the same instant in another zone
    events.append(EventLogRecord(stamp.astimezone(timezone(timedelta(hours=2))), "a", {}))
    trace = sim.LabeledTrace(config=sim.SimConfig(duration=1), device_series={},
                             events=events, labels=[], device_ips={})
    assert sim.trace_files(trace)["events.jsonl"].splitlines() == [
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "a", "v": 0.0}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "a", "v": -0.0}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": 1, "v": 1}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": 1.0, "v": 1.0}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": true, "v": true}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "1", "v": "1"}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "a", "1": "1"}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "a", "true": 1.0}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "a", "v": NaN}',
        '{"ts": "2021-01-01T00:00:00+00:00", "src": "b"}',
        '{"ts": "2021-01-01T02:00:00+02:00", "src": "a"}']


# --- interval-indexed scoring against the label scan it replaced -------------


def ref_score_detections(alerts, trace, coverage=1):
    # Scans every label for every alert.
    label_set = set(trace.labels)
    covered = set()
    tp = fp = 0
    per_kind = {}
    for alert in alerts:
        start_idx, rest = divmod(alert.timestamp - trace.start,
                                 grid_step(trace.interval_seconds))
        if not 0 <= start_idx < trace.duration or rest:
            raise TimeBaseMismatch(
                f"alert at {alert.timestamp.isoformat()} is off the trace grid")
        compatible = sim.COMPATIBLE.get(alert.kind, set())
        hits = [
            (i, d, k) for (i, d, k) in label_set
            if start_idx <= i < start_idx + coverage and k in compatible
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
    return sim.DetectionScore(precision=precision, recall=recall,
                              true_positives=tp, false_positives=fp,
                              false_negatives=fn, per_kind=per_kind)


@pytest.mark.parametrize("interval", [0.1, 0.3, 0.7, 1.1, 1 / 3, 3600.0])
def test_scoring_takes_every_alert_stamped_on_the_trace_grid(interval):
    # slot_time's stamps are the grid score_detections reads, at intervals
    # that are no dyadic fraction of a second too: the silence trace's own
    # dropout alert and an alert on every grid line are on the grid
    trace = sim.generate_trace(replace(sim.default_silence_config(seed=42),
                                       interval_seconds=interval))
    dropouts = [a for dev, data in trace.device_series.items()
                for a in detect_dropout(data, 3, source=dev)]
    score = sim.score_detections(dropouts, trace)
    assert (len(dropouts), score.precision) == (1, 1.0)
    every = [AnomalyAlert(timestamp=slot_time(trace.start, interval, i), kind="Dropout",
                          observed=1.0, expected=0.0, band=None, severity="Warning",
                          source="streetlight-1") for i in range(trace.duration)]
    assert sim.score_detections(every, trace).recall == 1.0


@settings(max_examples=examples(200), deadline=None)
@given(st.data())
def test_scoring_by_interval_matches_the_label_scan(data):
    duration = data.draw(st.integers(1, 40))
    interval = data.draw(st.sampled_from([60.0, 3600.0, 7.5, 0.7, 0.1, 1.1]))
    trace = sim.LabeledTrace(
        config=sim.SimConfig(duration=duration, interval_seconds=interval),
        device_series={}, events=[], device_ips={},
        labels=data.draw(st.lists(st.tuples(
            st.integers(0, duration + 2), st.sampled_from(["a", "b", "fake-a-1"]),
            st.sampled_from(sim.ATTACK_KINDS)), max_size=30)))
    # mostly on the grid; a few before it, past it or between two slots
    seconds = st.one_of(
        st.integers(0, duration - 1).map(lambda i: i * interval),
        st.sampled_from([-interval, duration * interval, 0.5 * interval, 1.0]))
    alerts = data.draw(st.lists(st.builds(
        lambda offset, kind, source: AnomalyAlert(
            timestamp=trace.start + timedelta(seconds=offset), kind=kind,
            observed=1.0, expected=0.0, band=None, severity="Warning", source=source),
        seconds, st.sampled_from([*sim.COMPATIBLE, "Other"]),
        st.sampled_from(["", "a", "b", "z"])), max_size=20))
    for coverage in data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=3)):
        try:
            want = ref_score_detections(alerts, trace, coverage)
        except TimeBaseMismatch as exc:
            with pytest.raises(TimeBaseMismatch, match=re.escape(str(exc))):
                sim.score_detections(alerts, trace, coverage)
            continue
        got = sim.score_detections(alerts, trace, coverage)
        assert got == want
        assert list(got.per_kind) == list(want.per_kind)
