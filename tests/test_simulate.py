from datetime import timedelta

import numpy as np
import pytest

from gatewatch import simulate as sim
from gatewatch.cc4 import cc4_classify, cc4_train, training_samples
from gatewatch.detect import AnomalyAlert
from gatewatch.errors import InvalidScript, TimeBaseMismatch
from gatewatch.ingest import parse_flow_csv


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

    def test_overlap_on_distinct_targets_is_fine(self):
        config = small_config(attacks=[
            sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                             start=10, end=30),
            sim.AttackScript(kind="Sybil", target_id="water-1",
                             start=10, end=30)])
        config.validate()


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
        assert trace.labels_for("camera-1") == set(range(40, 60))
        assert trace.labels_for("streetlight-1") == set()

    def test_flood_events_use_udp(self):
        script = sim.AttackScript(kind="UdpFlood", target_id="camera-1",
                                  start=40, end=60)
        trace = sim.generate_trace(small_config(attacks=[script]))
        for event in trace.events:
            if event.source_id != "camera-1":
                continue
            idx = int((event.timestamp - trace.start).total_seconds()
                      // trace.interval_seconds)
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
                  and 30 <= (e.timestamp - trace.start).total_seconds()
                  // trace.interval_seconds < 50]
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

    def test_events_sorted(self):
        trace = sim.generate_trace(small_config())
        keys = [(e.timestamp, e.source_id) for e in trace.events]
        assert keys == sorted(keys)


def test_training_samples_label_attack_cells():
    trace = sim.generate_trace(sim.default_flood_config(seed=3))
    schema = sim.event_schema()
    attack_cells = {(i, d) for i, d, _ in trace.labels}
    samples = training_samples(trace.events, schema, attack_cells,
                               trace.start, trace.interval_seconds)
    classes = {cls for _, cls in samples}
    assert classes == {"Known", "Attack"}
    # one-shot training on the trace's own samples recalls them at radius 0
    net = cc4_train(samples, radius=0)
    for vector, cls in samples[:50]:
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
