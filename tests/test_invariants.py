"""Invariants of the whole stream, pinned as relations of the program with
itself rather than against a copied reference loop, so they outlive a change
of rule (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

- A log cut short: every alert whose coverage ends before the cut's
  watermark is the alert the whole log gives. The watermark is the prefix's
  largest stamp less the skew window: a record after the cut is either late
  or stamped at or past it. Coverage is a surge window, a dropout run with the
  interval of the record that closes it, or an Intrusion alert's own
  interval. The rate grid starts at the first accepted record, so the traces
  start with their earliest record, as every simulated trace does.
- A log followed by itself: the same alerts and network; the second copy is
  late or dropped as duplicates, so only `records_in` and the late, duplicate
  and malformed counts grow. This pins the intake's skew and dedupe rules.

The traces are the simulator's, longer than the surge baseline, with
adjacent copies of some records and others delivered more than the skew
window late, as the benchmark's stream inputs have them.
"""
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from gatewatch import cc4, cli, simulate
from gatewatch.simulate import AttackScript, SimConfig

SCHEMA = simulate.event_schema()
TARGETS = {"UdpFlood": "camera-1", "SilenceAfterOverflow": "streetlight-1",
           "Sybil": "water-1"}


def disorder(records, interval, duplicated, delayed, skew_intervals):
    """`records`, in event order, with an adjacent copy of each record in
    `duplicated`, and each record in `delayed` moved to right after the first
    record `skew_intervals` + 1 intervals after its own, so it arrives late (a
    record in the first interval, or with no record that far ahead, stays in
    place)."""
    start = records[0].timestamp
    slot = [int((rec.timestamp - start).total_seconds() // interval) for rec in records]
    delayed = {i for i in delayed if 1 <= slot[i] <= slot[-1] - skew_intervals - 1}
    pending = sorted((slot[i] + skew_intervals + 1, i) for i in delayed)
    out = []
    for i, rec in enumerate(records):
        if i in delayed:
            continue
        out.append(rec)
        if i in duplicated:
            out.append(rec)
        while pending and pending[0][0] <= slot[i]:
            out.append(records[pending.pop(0)[1]])
    return out


@st.composite
def disordered_traces(draw):
    """(records, labels, config): the stock fleet for 300-400 intervals, past
    the surge baseline of 240, with one attack in the second half,
    duplicates and late records."""
    duration = draw(st.integers(300, 400))
    kind = draw(st.sampled_from(sorted(TARGETS)))
    first = draw(st.integers(duration // 2, duration - 1))
    attack = AttackScript(kind=kind, target_id=TARGETS[kind], start=first,
                          end=draw(st.integers(first + 1, min(duration, first + 40))),
                          fake_id_count=3)
    trace = simulate.generate_trace(SimConfig(
        seed=draw(st.integers(0, 2 ** 16)), duration=duration,
        fleet=simulate.default_fleet(), attacks=[attack]))
    config = cc4.StreamConfig(interval_seconds=trace.config.interval_seconds,
                              skew_intervals=draw(st.integers(0, 5)),
                              surge_window=draw(st.sampled_from([1, 2, 3, 6, 24])),
                              gap_threshold=draw(st.integers(1, 4)))
    indices = st.sets(st.integers(0, len(trace.events) - 1), max_size=30)
    records = disorder(trace.events, config.interval_seconds, draw(indices),
                       draw(indices), config.skew_intervals)
    return records, trace.labels, config


def coverage_end(alert, start, config):
    """The end of the intervals an alert reads, on the grid at `start`."""
    step = timedelta(seconds=config.interval_seconds)
    if alert.kind == "Surge":
        return alert.timestamp + config.surge_window * step
    if alert.kind == "Dropout":     # the run and the record that closes it
        return alert.timestamp + (int(alert.observed) + 1) * step
    assert alert.kind == "Intrusion"
    return start + ((alert.timestamp - start) // step + 1) * step


@settings(max_examples=examples(40), deadline=None)
@given(st.data())
def test_a_log_cut_short_gives_the_alerts_before_its_watermark(data):
    records, labels, config = data.draw(disordered_traces())
    network = cc4.stream_pipeline(records, SCHEMA, None, config, labels)[2]
    # a cut in the second half, where the surge windows are
    cut = data.draw(st.integers(len(records) // 2, len(records) - 1))
    watermark = (max(rec.timestamp for rec in records[:cut])
                 - timedelta(seconds=config.skew_intervals * config.interval_seconds))
    start = records[0].timestamp

    def settled(log):
        alerts = cc4.stream_pipeline(log, SCHEMA, network, config)[0]
        return [a for a in alerts if coverage_end(a, start, config) <= watermark]

    assert settled(records[:cut]) == settled(records)


def stream(args, out):
    assert cli.main(["stream", *map(str, args), "--out", str(out)]) == 0
    return {name: (out / name).read_bytes()
            for name in ("alerts.jsonl", "network.json", "stream_counts.json")}


def test_a_log_cut_short_keeps_no_alert_the_whole_log_takes_back(tmp_path):
    # The seed-42 silence trace, cut at 75% of its event lines, streamed with
    # the network the whole log trains. A baseline of half the log handed in
    # gave the prefix two more alerts than the whole log: Surges on
    # streetlight-1 at 01-08T14:00 and 01-09T14:00, with lower = upper = 1.0.
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", "silence", "--seed", "42",
                     "--out", str(sim)]) == 0
    events = sim / "events.jsonl"
    network = tmp_path / "trained" / "network.json"
    stream(["--input", events, "--labels", sim / "labels.csv"], network.parent)
    lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = int(0.75 * len(lines))
    assert lines[cut].startswith('{"ts": "2021-01-16T02:00:00+00:00"')
    prefix = tmp_path / "prefix.jsonl"
    prefix.write_text("".join(lines[:cut]), encoding="utf-8")
    cut_short = stream(["--input", prefix, "--network", network], tmp_path / "prefix")
    whole = stream(["--input", events, "--network", network], tmp_path / "whole")
    assert cut_short["alerts.jsonl"] == whole["alerts.jsonl"] == (
        b'{"ts": "2021-01-09T08:00:00+00:00", "kind": "Dropout", "observed": 30.0, '
        b'"expected": 3.0, "lower": null, "upper": null, "severity": "Critical", '
        b'"source": "streetlight-1"}\n')


def grows_only_by_the_second_copy(once, twice):
    """`twice` counts the log of `once` followed by itself: every record of
    the second copy is late or dropped, and nothing else moves."""
    assert twice.records_in == 2 * once.records_in
    assert twice.emitted_classifications == once.emitted_classifications
    assert twice.dropped_duplicate >= once.dropped_duplicate
    assert twice.dropped_late >= once.dropped_late
    assert (twice.dropped_late - once.dropped_late
            + twice.dropped_malformed - once.dropped_malformed) == once.records_in


@settings(max_examples=examples(30), deadline=None)
@given(disordered_traces())
def test_a_log_streamed_twice_gives_its_alerts_and_network(trace):
    records, labels, config = trace
    alerts, once, network = cc4.stream_pipeline(records, SCHEMA, None, config, labels)
    again, twice, retrained = cc4.stream_pipeline(records * 2, SCHEMA, None, config, labels)
    assert (again, retrained.to_json_obj()) == (alerts, network.to_json_obj())
    grows_only_by_the_second_copy(once, twice)
    alerts, once, _ = cc4.stream_pipeline(records, SCHEMA, network, config)
    again, twice, _ = cc4.stream_pipeline(records * 2, SCHEMA, network, config)
    assert again == alerts
    grows_only_by_the_second_copy(once, twice)


@pytest.mark.parametrize("scenario", ["flood", "silence", "sybil"])
def test_a_stock_log_streamed_twice_writes_its_alerts_and_network(tmp_path, scenario):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", scenario, "--seed", "42",
                     "--out", str(sim)]) == 0
    events = sim / "events.jsonl"
    doubled = tmp_path / "twice.jsonl"
    doubled.write_bytes(events.read_bytes() * 2)
    labels = ["--labels", sim / "labels.csv"]
    once = stream(["--input", events, *labels], tmp_path / "once")
    twice = stream(["--input", doubled, *labels], tmp_path / "twice")
    for name in ("alerts.jsonl", "network.json"):
        assert twice[name] == once[name], name
    grows_only_by_the_second_copy(
        *(cc4.StreamCounts(**json.loads(run["stream_counts.json"]))
          for run in (once, twice)))
