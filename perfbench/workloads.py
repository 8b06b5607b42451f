"""Workloads of the gatewatch benchmark: seeded inputs, the timed jobs, their
output checks and detection scoring.

Each workload's inputs are generated from the run's seed by gatewatch's own
simulator and written to files; the timed job sees only those files (or, for
`forecast_compare`, the series loaded from one).
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from gatewatch import cli, detect, evaluate, forecast, ingest, series, simulate
from gatewatch.cc4 import StreamConfig
from gatewatch.detect import AnomalyAlert
from gatewatch.simulate import AttackScript, DeviceSpec, LabeledTrace, SimConfig

INTERVAL = 3600.0
VALUE_COLUMN = "Fwd Pkt Len Mean"
CONFIDENCE = 0.95
WINDOW = 24           # mean-shift window, the CLI's default for detect and stream
GAP_THRESHOLD = 3
SKEW_INTERVALS = StreamConfig().skew_intervals   # what `gatewatch stream` uses
DURATION = 480        # hourly intervals of every simulated fleet
SYBIL_LENGTH = 60     # intervals of one Sybil window
LSTM_UNITS = 10
LSTM_BATCH = 128


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                 # stream | fleet | compare
    why: str
    devices: int = 0
    floods: int = 0
    silences: int = 0
    sybil_windows: int = 0
    fake_ids: int = 0         # fake identities per interval of a Sybil window
    dup_share: float = 0.0    # duplicated event records, share of the trace
    late_share: float = 0.0   # records delivered later than the skew window
    points: int = 0           # forecast_compare series length
    lstm_timesteps: int = 1008

    def size(self) -> str:
        if self.kind == "compare":
            return (f"{self.points}-point diurnal series, LSTM T={self.lstm_timesteps} "
                    f"u={LSTM_UNITS} batch {LSTM_BATCH}")
        text = f"{self.devices} devices x {DURATION} intervals"
        if self.floods or self.silences:
            text += f", {self.floods} UdpFlood + {self.silences} SilenceAfterOverflow"
        if self.sybil_windows:
            text += (f", {self.sybil_windows} Sybil windows of {SYBIL_LENGTH}"
                     f" intervals x {self.fake_ids} fake ids")
        if self.dup_share or self.late_share:
            text += (f", {self.dup_share:.1%} duplicated and {self.late_share:.1%}"
                     f" over-skew late records")
        return text


WORKLOADS = {spec.name: spec for spec in (
    Spec("stream_fleet", "stream", devices=100, floods=10, silences=10,
         dup_share=0.01, late_share=0.005,
         why="gatewatch stream on a fleet with few long-lived keys: per-record "
             "symbolize and cc4_classify dominate"),
    Spec("stream_sybil", "stream", devices=20, sybil_windows=3, fake_ids=40,
         dup_share=0.01, late_share=0.005,
         why="gatewatch stream with thousands of one-shot Sybil keys: "
             "per-source dropout, surge, MA fit and split dominate"),
    Spec("fleet_detect", "fleet", devices=100, floods=10, silences=10,
         why="one flow CSV through parse, clean, series, HW fit and detectors "
             "per device; bypasses cc4"),
    Spec("forecast_compare", "compare", points=3000,
         why="compare_models over MA, HW, linear trend and LSTM: the only "
             "workload where LSTM forward/backward dominates"),
)}


# --- inputs -----------------------------------------------------------------


def make_fleet(n: int, rng: np.random.Generator) -> list[DeviceSpec]:
    """`n` devices with kinds cycled and base rates drawn from `rng`."""
    fleet = []
    for i in range(n):
        kind = simulate.DEVICE_KINDS[i % len(simulate.DEVICE_KINDS)]
        base = round(float(rng.uniform(5.0, 60.0)), 3)
        fleet.append(DeviceSpec(id=f"{kind}-{i}", kind=kind, base_rate=base,
                                diurnal_amplitude=round(0.25 * base, 3),
                                noise_std=round(0.05 * base, 3)))
    return fleet


def make_attacks(spec: Spec, fleet: list[DeviceSpec],
                 rng: np.random.Generator) -> list[AttackScript]:
    """One script per distinct target. Every window lies in the second half
    of the trace, the part detectors score, so each device's training split
    is complete and no Holt-Winters fit meets a gap."""
    kinds = (["UdpFlood"] * spec.floods + ["SilenceAfterOverflow"] * spec.silences
             + ["Sybil"] * spec.sybil_windows)
    targets = rng.choice(len(fleet), size=len(kinds), replace=False)
    lo, hi = DURATION // 2 + 10, DURATION - 10
    scripts = []
    for kind, target in zip(kinds, targets):
        if kind == "UdpFlood":
            length = int(rng.integers(24, 73))
        elif kind == "SilenceAfterOverflow":
            length = int(rng.integers(6, 31))
        else:
            length = SYBIL_LENGTH
        start = int(rng.integers(lo, hi - length + 1))
        scripts.append(AttackScript(kind=kind, target_id=fleet[int(target)].id,
                                    start=start, end=start + length,
                                    magnitude=10.0, fake_id_count=spec.fake_ids))
    return scripts


def inject_disorder(lines: list[str], trace: LabeledTrace, dup_share: float,
                    late_share: float, rng: np.random.Generator
                    ) -> tuple[list[str], int, list[int]]:
    """Duplicate some records in place and deliver others more than
    SKEW_INTERVALS late. `lines` are the trace's events.jsonl lines, in event
    order. Returns (new lines, duplicates inserted, indices of the late
    records)."""
    n = len(lines)
    idx = np.array([int((e.timestamp - trace.start).total_seconds() // INTERVAL)
                    for e in trace.events])
    # A late record is delivered right after the stream has reached interval
    # idx + SKEW_INTERVALS + 1, so it must have a record that far ahead.
    can_be_late = np.flatnonzero((idx >= 1) & (idx + SKEW_INTERVALS + 1 <= idx.max()))
    late = rng.choice(can_be_late, size=round(late_share * n), replace=False)
    others = np.setdiff1d(np.arange(n), late)
    dup = set(rng.choice(others, size=round(dup_share * n), replace=False).tolist())
    pending = sorted((int(idx[i]) + SKEW_INTERVALS + 1, int(i)) for i in late)
    late_set = {i for _, i in pending}
    out: list[str] = []
    p = 0
    for i in range(n):
        if i in late_set:
            continue
        out.append(lines[i])
        if i in dup:
            out.append(lines[i])   # adjacent copy: inside the skew window
        while p < len(pending) and pending[p][0] <= idx[i]:
            out.append(lines[pending[p][1]])
            p += 1
    if p != len(pending):
        raise RuntimeError("a late record found no later record to follow")
    return out, len(dup), sorted(late_set)


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def make_inputs(spec: Spec, seed: int, inputs: Path) -> dict:
    """Generate and write one workload's inputs; returns the reference data
    the checks and the scoring need."""
    rng = np.random.default_rng(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    if spec.kind == "compare":
        device = DeviceSpec(id="sensor-0", kind="water_sensor", base_rate=10.0,
                            diurnal_amplitude=1.0, noise_std=0.3)
        trace = simulate.generate_trace(SimConfig(seed=seed, duration=spec.points,
                                                  fleet=[device]))
        path = inputs / "series.json"
        path.write_text(trace.device_series[device.id].to_json(), encoding="utf-8")
        return {"inputs_sha256": sha256_files([path])}

    fleet = make_fleet(spec.devices, rng)
    config = SimConfig(seed=seed, duration=DURATION, interval_seconds=INTERVAL,
                       fleet=fleet, attacks=make_attacks(spec, fleet, rng))
    trace = simulate.generate_trace(config)
    paths = simulate.write_trace(trace, inputs)
    ref = {"start": trace.start.isoformat(), "duration": trace.duration}
    if spec.kind == "stream":
        lines = paths["events"].read_text(encoding="utf-8").splitlines(keepends=True)
        if len(lines) != len(trace.events):
            raise RuntimeError("events.jsonl does not hold one line per event")
        lines, ref["injected_duplicate"], late = inject_disorder(
            lines, trace, spec.dup_share, spec.late_share, rng)
        ref["injected_late"] = len(late)
        # Fake identities of each Sybil window whose one record is on time.
        late_ids = {trace.events[i].source_id for i in late}
        ref["sybil_sources"] = {}
        for event in trace.events:
            if event.source_id.startswith("fake-") and event.source_id not in late_ids:
                target = sybil_target(event.source_id)
                ref["sybil_sources"][target] = ref["sybil_sources"].get(target, 0) + 1
        paths["events"].write_text("".join(lines), encoding="utf-8")
        ref["events"] = len(lines)
        job_inputs = [paths["events"], paths["labels"]]
    else:
        # The simulator's series at CSV precision, keyed by reporting address.
        ref["devices"] = {
            trace.device_ips[dev_id]: {
                "id": dev_id, "start": data.start.isoformat(),
                "values": [None if m else round(float(v), 6)
                           for v, m in zip(data.values, data.missing)]}
            for dev_id, data in trace.device_series.items()}
        ref["rows"] = sum(int((~d.missing).sum()) for d in trace.device_series.values())
        job_inputs = [paths["flow"], paths["labels"]]
    ref["inputs_sha256"] = sha256_files(job_inputs)
    return ref


# --- output checks ----------------------------------------------------------


def read_alerts(path: Path) -> list[AnomalyAlert]:
    """The alerts of an alerts.jsonl file; the file holds no bands."""
    alerts = []
    for line in path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        alerts.append(AnomalyAlert(
            timestamp=datetime.fromisoformat(obj["ts"]), kind=obj["kind"],
            observed=obj["observed"], expected=obj["expected"], band=None,
            severity=obj["severity"], source=obj["source"]))
    return alerts


def check_alerts(alerts: list[AnomalyAlert], start: datetime, duration: int) -> list[str]:
    """Every alert lies on the trace grid and the alerts are in merge_alerts
    order."""
    problems = []
    span = INTERVAL * duration
    for alert in alerts:
        offset = (alert.timestamp - start).total_seconds()
        if not 0 <= offset < span or offset % INTERVAL != 0:
            problems.append(f"alert at {alert.timestamp.isoformat()} is off the trace grid")
    keys = [(a.timestamp, detect.KINDS.index(a.kind), a.source, a.observed) for a in alerts]
    if keys != sorted(keys):
        problems.append("alerts are not in merge_alerts order")
    return problems[:5]


# The alert kind each scripted attack must raise from its target, per job.
# A flood keeps one event per interval, so in the stream only cc4 sees it
# (Intrusion); the fleet job sees it as a packet-length surge. The stream's
# surge detector is gated on the Sybil windows instead (`missed_sybil`).
STREAM_DETECTS = {"UdpFlood": "Intrusion", "SilenceAfterOverflow": "Dropout"}
FLEET_DETECTS = {"UdpFlood": "Surge", "SilenceAfterOverflow": "Dropout"}


def missed_attacks(scored: list[tuple[AnomalyAlert, int]], detects: dict[str, str],
                   labels: list[tuple[int, str, str]], start: datetime) -> list[str]:
    """Scripted attacks that no alert of the kind `detects` names for them,
    from their target, covers; coverage as in `score`."""
    windows: dict[tuple[str, str], set[int]] = {}
    for i, device, kind in labels:
        if kind in detects:
            windows.setdefault((device, detects[kind]), set()).add(i)
    seen = set()
    for alert, coverage in scored:
        hit = windows.get((alert.source, alert.kind))
        first = int((alert.timestamp - start).total_seconds() // INTERVAL)
        if hit and not hit.isdisjoint(range(first, first + coverage)):
            seen.add((alert.source, alert.kind))
    return [f"no {kind} alert covers the attack on {device}"
            for device, kind in sorted(windows) if (device, kind) not in seen][:5]


def sybil_target(source: str) -> str:
    """The attacked device of a fake identity `fake-<target>-<interval>-<j>`."""
    return source[len("fake-"):].rsplit("-", 2)[0]


def missed_sybil(alerts: list[AnomalyAlert], want: dict[str, int]) -> list[str]:
    """Every on-time fake identity of a Sybil window has a Dropout alert (it
    is silent from the trace start until its one record), and some fake
    identity of each window has a Surge alert. `want` counts the on-time
    fake identities per attacked device."""
    dropout: dict[str, set[str]] = {}
    surge = set()
    for alert in alerts:
        if alert.source.startswith("fake-"):
            target = sybil_target(alert.source)
            if alert.kind == "Dropout":
                dropout.setdefault(target, set()).add(alert.source)
            elif alert.kind == "Surge":
                surge.add(target)
    problems = []
    for target, n in sorted(want.items()):
        got = len(dropout.get(target, ()))
        if got != n:
            problems.append(f"{got} of {n} fake identities of the Sybil on {target} "
                            f"have a Dropout alert")
        if target not in surge:
            problems.append(f"no Surge alert from a fake identity of the Sybil on {target}")
    return problems


def scoring_trace(ref: dict, labels_csv: Path) -> LabeledTrace:
    """The part of the simulated trace that score_detections reads."""
    config = SimConfig(duration=ref["duration"], interval_seconds=INTERVAL,
                       start=datetime.fromisoformat(ref["start"]))
    return LabeledTrace(config=config, device_series={}, events=[],
                        labels=simulate.read_labels_csv(labels_csv), device_ips={})


def score(scored: list[tuple[AnomalyAlert, int]], trace: LabeledTrace
          ) -> tuple[float | None, float]:
    """(precision, recall) with simulate.score_detections, each alert scored
    with the coverage its window implies. Recall is taken over the union of
    all detectors by splitting every alert into one-interval alerts; alerts
    of a kind that no label in the trace is compatible with cover nothing and
    are left out of that split."""
    groups: dict[int, list[AnomalyAlert]] = {}
    for alert, coverage in scored:
        groups.setdefault(coverage, []).append(alert)
    tp = fp = 0
    for coverage, alerts in groups.items():
        result = simulate.score_detections(alerts, trace, coverage=coverage)
        tp += result.true_positives
        fp += result.false_positives
    labelled = {kind for _, _, kind in trace.labels}
    unit = [replace(alert, timestamp=alert.timestamp + timedelta(seconds=INTERVAL * k))
            for alert, coverage in scored
            if simulate.COMPATIBLE.get(alert.kind, set()) & labelled
            for k in range(coverage)]
    recall = simulate.score_detections(unit, trace, coverage=1).recall
    return (tp / (tp + fp) if tp + fp else None), recall


# --- jobs -------------------------------------------------------------------


class StreamJob:
    """`gatewatch stream` in-process on the events/labels pair."""

    def __init__(self, spec: Spec, seed: int, ref: dict, inputs: Path, out: Path):
        self.ref, self.out = ref, out
        self.argv = ["stream", "--input", str(inputs / "events.jsonl"),
                     "--labels", str(inputs / "labels.csv"), "--out", str(out)]
        self.labels = inputs / "labels.csv"
        self.label_rows = simulate.read_labels_csv(self.labels)
        self.items, self.item_name = ref["events"], "events"

    def run(self):
        return cli.main(self.argv)

    def artifacts(self) -> list[Path]:
        return [self.out / "alerts.jsonl", self.out / "stream_counts.json",
                self.out / "network.json"]

    def counts(self) -> dict:
        return json.loads((self.out / "stream_counts.json").read_text(encoding="utf-8"))

    def check(self, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"gatewatch stream exited {exit_code}"]
        counts = self.counts()
        problems = []
        for key in ("duplicate", "late"):
            got, want = counts[f"dropped_{key}"], self.ref[f"injected_{key}"]
            if got != want:
                problems.append(f"dropped_{key} {got} != injected {want}")
        if counts["records_in"] != (counts["emitted_classifications"]
                                    + counts["dropped_malformed"] + counts["dropped_late"]):
            problems.append("records_in != emitted + dropped_malformed + dropped_late")
        start = datetime.fromisoformat(self.ref["start"])
        scored = self.scored_alerts()
        alerts = [alert for alert, _ in scored]
        return (problems + check_alerts(alerts, start, self.ref["duration"])
                + missed_attacks(scored, STREAM_DETECTS, self.label_rows, start)
                + missed_sybil(alerts, self.ref["sybil_sources"]))

    def scored_alerts(self) -> list[tuple[AnomalyAlert, int]]:
        """The stream's alerts, each with the coverage it is scored with: the
        stream's surges are window means over WINDOW intervals."""
        return [(alert, {"Surge": WINDOW, "Dropout": int(alert.observed)}.get(alert.kind, 1))
                for alert in read_alerts(self.out / "alerts.jsonl")]

    def layer_counts(self, exit_code) -> dict:
        counts = self.counts()
        return {"cc4.dropped_duplicate": counts["dropped_duplicate"],
                "cc4.dropped_late": counts["dropped_late"],
                "cc4.emitted": counts["emitted_classifications"],
                "cc4.records_in": counts["records_in"]}

    def latency_samples(self, exit_code) -> list[float]:
        return []

    def quality(self, exit_code) -> dict:
        precision, recall = score(self.scored_alerts(), scoring_trace(self.ref, self.labels))
        return {"alert_precision": precision, "alert_recall": recall}


@dataclass
class FleetResult:
    rows_read: int
    alerts: list[AnomalyAlert]
    device_series: dict[str, series.TimeSeries]
    device_s: list[float]


class FleetJob:
    """Parse one flow CSV, then per device: clean, bucket, split, impute, HW
    fit, mean-shift and residual surges, dropout; merge and write one JSONL."""

    HW = forecast.ForecasterConfig(variant="holt_winters", hw_period=WINDOW)
    unit_name = "device"     # latency samples: one per device, records to alerts

    def __init__(self, spec: Spec, seed: int, ref: dict, inputs: Path, out: Path):
        self.ref = ref
        self.flow_csv = inputs / "flow.csv"
        self.labels = inputs / "labels.csv"
        self.label_rows = simulate.read_labels_csv(self.labels)
        self.alerts_path = out / "alerts.jsonl"
        out.mkdir(parents=True, exist_ok=True)
        self.items, self.item_name = ref["rows"], "rows"

    def run(self) -> FleetResult:
        records, report = ingest.parse_flow_csv(self.flow_csv, VALUE_COLUMN)
        by_device: dict[str, list] = {}
        for rec in records:
            by_device.setdefault(rec.source_ip, []).append(rec)
        alerts: list[AnomalyAlert] = []
        device_series = {}
        device_s = []
        for ip, recs in by_device.items():
            t0 = time.perf_counter()
            kept, _, _ = ingest.clean(recs)
            data = ingest.to_series(kept, INTERVAL, "mean")
            train, test = series.split(data, 0.5)
            model = forecast.fit(self.HW, series.impute_short_gaps(train))
            alerts += detect.detect_surges(test, model, CONFIDENCE, mode="mean_shift",
                                           window=WINDOW, source=ip)
            alerts += detect.detect_surges(test, model, CONFIDENCE, mode="residual",
                                           source=ip)
            alerts += detect.detect_dropout(data, GAP_THRESHOLD, source=ip)
            device_s.append(time.perf_counter() - t0)
            device_series[ip] = data
        merged = detect.merge_alerts(alerts)
        detect.write_alerts_jsonl(merged, self.alerts_path)
        return FleetResult(report.rows_read, merged, device_series, device_s)

    def artifacts(self) -> list[Path]:
        return [self.alerts_path]

    def check(self, result: FleetResult) -> list[str]:
        problems = []
        if result.rows_read != self.ref["rows"]:
            problems.append(f"rows_read {result.rows_read} != {self.ref['rows']}")
        devices = self.ref["devices"]
        if set(result.device_series) != set(devices):
            problems.append("ingested devices differ from the simulated fleet")
        for ip, data in result.device_series.items():
            want = devices.get(ip)
            got = [None if m else float(v) for v, m in zip(data.values, data.missing)]
            if want is None or got != want["values"] or data.start.isoformat() != want["start"]:
                problems.append(f"series of {ip} differs from the simulator's")
        written = read_alerts(self.alerts_path)
        if ([(a.timestamp, a.kind, a.source, a.observed) for a in written]
                != [(a.timestamp, a.kind, a.source, a.observed) for a in result.alerts]):
            problems.append(f"{self.alerts_path.name} differs from the merged alerts")
        start = datetime.fromisoformat(self.ref["start"])
        return (problems[:5] + check_alerts(written, start, self.ref["duration"])
                + missed_attacks(self.scored_alerts(result), FLEET_DETECTS,
                                 self.label_rows, start))

    def scored_alerts(self, result: FleetResult) -> list[tuple[AnomalyAlert, int]]:
        """The alerts keyed by device id, each with the coverage it is scored
        with: mean-shift surges cover their window, residual ones one point,
        dropouts their run."""
        ids = {ip: d["id"] for ip, d in self.ref["devices"].items()}
        return [(replace(alert, source=ids[alert.source]),
                 int(alert.observed) if alert.kind == "Dropout" else alert.band.n)
                for alert in result.alerts]

    def layer_counts(self, result: FleetResult) -> dict:
        return {"ingest.rows_read": result.rows_read}

    def quality(self, result: FleetResult) -> dict:
        precision, recall = score(self.scored_alerts(result),
                                  scoring_trace(self.ref, self.labels))
        return {"alert_precision": precision, "alert_recall": recall}

    def latency_samples(self, result: FleetResult) -> list[float]:
        return result.device_s


class CompareJob:
    """evaluate.compare_models over MA, HW, linear trend and LSTM."""

    def __init__(self, spec: Spec, seed: int, ref: dict, inputs: Path, out: Path):
        self.data = series.TimeSeries.from_json(
            (inputs / "series.json").read_text(encoding="utf-8"))
        self.configs = [
            forecast.ForecasterConfig(variant="moving_average", ma_window=3),
            forecast.ForecasterConfig(variant="holt_winters", hw_period=WINDOW),
            forecast.ForecasterConfig(variant="linear_trend"),
            forecast.ForecasterConfig(variant="lstm", lstm_units=LSTM_UNITS,
                                      lstm_batch_size=LSTM_BATCH,
                                      lstm_num_timesteps=spec.lstm_timesteps,
                                      rng_seed=seed),
        ]
        self.report_path = out / "report.json"
        out.mkdir(parents=True, exist_ok=True)
        self.items, self.item_name = spec.points, "points"

    def run(self) -> evaluate.ModelReport:
        report = evaluate.compare_models(self.configs, self.data, 0.8)
        # Wall-clock fit times are not byte-stable; `gatewatch compare` zeroes
        # them the same way before writing its report.
        for row in report.rows:
            row.fit_seconds = 0.0
        self.report_path.write_text(json.dumps(report.to_json_obj(), indent=2) + "\n",
                                    encoding="utf-8")
        return report

    def artifacts(self) -> list[Path]:
        return [self.report_path]

    def check(self, report: evaluate.ModelReport) -> list[str]:
        problems = [f"{row.name}: {row.error}" for row in report.rows if row.error]
        if len(report.rows) != len(self.configs) + 1:
            problems.append(f"{len(report.rows)} report rows, want {len(self.configs) + 1}")
        return problems

    def layer_counts(self, report: evaluate.ModelReport) -> dict:
        return {}

    def latency_samples(self, report: evaluate.ModelReport) -> list[float]:
        return []

    def quality(self, report: evaluate.ModelReport) -> dict:
        return {"lstm_mse_vs_persistence":
                report.row("lstm").test_mse / report.row("persistence").test_mse}


JOBS = {"stream": StreamJob, "fleet": FleetJob, "compare": CompareJob}
