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
- Source ids renamed by an order-reversing injective map: the same alerts
  (as multisets, names mapped back), counts and network (as a multiset of
  (vector, class) pairs), but for the one rule that reads source order; see
  the test.
- Records reordered within each contiguous run of one stamp: the same bytes.
  Only contiguous runs: grouping equal stamps across the whole log moves
  late records back on time, which rightly changes the alerts.
- Every stamp a week later: the same alerts a week later, the same counts
  and network.
- Every stamp restamped as the same instant naive (a stamp with no offset is
  UTC), at one fixed offset, or on either clock or UTC record by record: the
  same bytes.
- A series scaled by 2**k through `gatewatch detect`, in both modes: the
  same alerts, every Surge number scaled exactly, or the same refusal.

The traces are the simulator's, longer than the surge baseline, with
adjacent copies of some records and others delivered more than the skew
window late, as the benchmark's stream inputs have them.
"""
import contextlib
import io
import json
import random
import tempfile
from collections import Counter
from dataclasses import replace
from datetime import timedelta, timezone
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import examples
from gatewatch import cc4, cli, detect, simulate
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
def attack_traces(draw):
    """The stock fleet for 300-400 intervals, past the surge baseline of 240,
    with one attack in the second half."""
    duration = draw(st.integers(300, 400))
    kind = draw(st.sampled_from(sorted(TARGETS)))
    first = draw(st.integers(duration // 2, duration - 1))
    attack = AttackScript(kind=kind, target_id=TARGETS[kind], start=first,
                          end=draw(st.integers(first + 1, min(duration, first + 40))),
                          fake_id_count=3)
    return simulate.generate_trace(SimConfig(
        seed=draw(st.integers(0, 2 ** 16)), duration=duration,
        fleet=simulate.default_fleet(), attacks=[attack]))


@st.composite
def disordered_traces(draw):
    """(records, labels, config): an attack trace with duplicates and late
    records."""
    trace = draw(attack_traces())
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


def alert_bag(alerts, source=None):
    """The alerts as a multiset of lines, each source mapped by `source`."""
    return Counter(replace(a, source=source[a.source] if source else a.source).to_json()
                   for a in alerts)


def held(network):
    """The network as {vector: class}: its vectors are distinct, so this is
    the multiset of its (vector, class) pairs."""
    pairs = network.to_json_obj()
    assert len(set(pairs["vectors"])) == len(pairs["vectors"])
    return dict(zip(pairs["vectors"], pairs["classes"]))


def renamed(records, labels):
    """The records and label rows with every source id mapped by an
    order-reversing injective map, and the map back."""
    names = sorted({rec.source_id for rec in records} | {d for _, d, _ in labels})
    new = {name: f"s{len(names) - i:05d}" for i, name in enumerate(names)}
    return ([rec._replace(source_id=new[rec.source_id]) for rec in records],
            [(i, new[d], kind) for i, d, kind in labels],
            {v: k for k, v in new.items()})


def contested(records, labels, config):
    """The vectors (as network.json writes them) that, at the first stamp that
    holds them, records of an attacked (interval, source) cell and of another
    cell share. Training keeps the label of whichever comes first in
    (stamp, source id) order, so a map that reorders source ids can keep the
    other one."""
    intake = cc4._intake(records, SCHEMA)
    vectors = cc4.symbolize_block(intake)[0]
    start, step = intake.micros.min(), round(config.interval_seconds * 1e6)
    attacked = {(i, d) for i, d, _ in labels}
    first, seen = {}, {}
    for k in np.argsort(intake.micros, kind="stable").tolist():
        vector, stamp = "".join(map(str, vectors[k].tolist())), intake.micros[k]
        if first.setdefault(vector, stamp) == stamp:
            cell = ((stamp - start) // step, intake.names[intake.ranks[k]])
            seen.setdefault(vector, set()).add(cell in attacked)
    return {vector for vector, classes in seen.items() if len(classes) == 2}


@settings(max_examples=examples(30), deadline=None)
@given(disordered_traces())
def test_renamed_sources_give_the_same_alerts_counts_and_network(trace):
    # The network's vectors come in (stamp, source id) order, so it is
    # compared as a multiset of (vector, class) pairs. A vector that two
    # records with different labels share at the first stamp that holds it
    # keeps the label of the one whose source id sorts first: there, and only
    # there, the renamed network may hold the other class, and then the
    # labelled path's Intrusion alerts may differ too; the network path
    # below, with one network for both logs, still pins them.
    records, labels, config = trace
    other, other_labels, back = renamed(records, labels)
    alerts, counts, network = cc4.stream_pipeline(records, SCHEMA, None, config, labels)
    again, recounts, renetwork = cc4.stream_pipeline(other, SCHEMA, None, config,
                                                     other_labels)
    assert recounts == counts
    classes, reclasses = held(network), held(renetwork)
    assert reclasses.keys() == classes.keys()
    moved = {vector for vector in classes if reclasses[vector] != classes[vector]}
    assert moved <= contested(records, labels, config)
    if moved:
        event("a vector held with two labels at its first stamp takes the other")
    else:
        assert alert_bag(again, back) == alert_bag(alerts)
    alerts, counts, _ = cc4.stream_pipeline(records, SCHEMA, network, config)
    again, recounts, _ = cc4.stream_pipeline(other, SCHEMA, network, config)
    assert (alert_bag(again, back), recounts) == (alert_bag(alerts), counts)


def permuted_runs(records, rng):
    """`records` with each contiguous run of one stamp shuffled by `rng`."""
    out = []
    for _, run in groupby(records, key=attrgetter("timestamp")):
        run = list(run)
        rng.shuffle(run)
        out.extend(run)
    return out


def artifacts(alerts, counts, network):
    """The bytes `gatewatch stream` writes for one run."""
    return (detect.alert_lines(alerts), json.dumps(counts.to_json_obj()),
            network.to_json())


@settings(max_examples=examples(30), deadline=None)
@given(disordered_traces(), st.integers(0, 2 ** 32 - 1))
def test_records_reordered_within_a_stamp_give_the_same_bytes(trace, seed):
    records, labels, config = trace
    shuffled = permuted_runs(records, random.Random(seed))
    assert shuffled != records
    once = cc4.stream_pipeline(records, SCHEMA, None, config, labels)
    assert artifacts(*cc4.stream_pipeline(shuffled, SCHEMA, None, config,
                                          labels)) == artifacts(*once)
    network = once[2]
    assert artifacts(*cc4.stream_pipeline(shuffled, SCHEMA, network, config)) == \
        artifacts(*cc4.stream_pipeline(records, SCHEMA, network, config))


WEEK = timedelta(days=7)


def week_earlier(alerts):
    return [replace(a, timestamp=a.timestamp - WEEK) for a in alerts]


@settings(max_examples=examples(30), deadline=None)
@given(disordered_traces())
def test_a_log_a_week_later_gives_the_same_alerts_a_week_later(trace):
    records, labels, config = trace
    later = [rec._replace(timestamp=rec.timestamp + WEEK) for rec in records]
    alerts, counts, network = cc4.stream_pipeline(records, SCHEMA, None, config, labels)
    again, recounts, renetwork = cc4.stream_pipeline(later, SCHEMA, None, config, labels)
    assert (week_earlier(again), recounts, renetwork.to_json()) == \
        (alerts, counts, network.to_json())
    alerts, counts, _ = cc4.stream_pipeline(records, SCHEMA, network, config)
    again, recounts, _ = cc4.stream_pipeline(later, SCHEMA, network, config)
    assert (week_earlier(again), recounts) == (alerts, counts)


def restamped(records, clocks):
    """`records` with record k's stamp the same instant on clocks[k]: naive
    (its UTC wall time), or in the zone clocks[k]."""
    return [rec._replace(timestamp=rec.timestamp.replace(tzinfo=None) if clock is None
                         else rec.timestamp.astimezone(clock))
            for rec, clock in zip(records, clocks)]


@settings(max_examples=examples(30), deadline=None)
@given(disordered_traces(), st.integers(-1439, 1439), st.integers(0, 2 ** 32 - 1))
def test_a_log_restamped_naive_or_at_an_offset_gives_the_same_bytes(trace, minutes, seed):
    records, labels, config = trace
    offset = timezone(timedelta(minutes=minutes))
    rng = random.Random(seed)
    logs = {"naive": restamped(records, [None] * len(records)),
            "offset": restamped(records, [offset] * len(records)),
            "mixed": restamped(records, [rng.choice([None, offset, timezone.utc])
                                         for _ in records])}
    once = cc4.stream_pipeline(records, SCHEMA, None, config, labels)
    network = once[2]
    for name, log in logs.items():
        assert artifacts(*cc4.stream_pipeline(log, SCHEMA, None, config, labels)) == \
            artifacts(*once), name
        assert artifacts(*cc4.stream_pipeline(log, SCHEMA, network, config)) == \
            artifacts(*cc4.stream_pipeline(records, SCHEMA, network, config)), name


def detect_run(series, mode, window, confidence):
    """How `gatewatch detect` ends on `series`: its exit code, its stderr and
    the alert objects it wrote (none when it refused)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.json"
        path.write_text(series.to_json(), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["detect", "--input", str(path), "--mode", mode,
                             "--window", str(window), "--confidence", str(confidence),
                             "--out", tmp])
        text = (Path(tmp) / "alerts.jsonl").read_text(encoding="utf-8") if code == 0 else ""
    return code, err.getvalue(), [json.loads(line) for line in text.splitlines()]


SCALED = ("observed", "expected", "lower", "upper")
# a silence on the last training point of `gatewatch detect`'s default split
SILENT_AT_THE_CUT = simulate.generate_trace(SimConfig(
    seed=0, duration=327, fleet=simulate.default_fleet(),
    attacks=[AttackScript(kind="SilenceAfterOverflow", target_id="streetlight-1",
                          start=163, end=164, fake_id_count=3)]))


@settings(max_examples=examples(30), deadline=None)
@example(SILENT_AT_THE_CUT, "streetlight-1", 7, "residual", 1, 0.8)
@given(attack_traces(), st.sampled_from(sorted(TARGETS.values())),
       st.one_of(st.integers(-200, -1), st.integers(1, 200)), st.sampled_from(["mean_shift", "residual"]),
       st.sampled_from([1, 3, 24]), st.sampled_from(sorted(detect.Z_TABLE)))
def test_a_series_scaled_by_a_power_of_two_gives_its_alerts_scaled(
        trace, device, k, mode, window, confidence):
    # Floating point multiplies by 2**k without rounding, so every band,
    # mean, forecast and residual scales exactly and every comparison keeps
    # its side: the same alerts, each Surge number scaled. A Dropout's
    # numbers are run lengths and stay. For |k| <= 200 no intermediate, a
    # squared residual included, overflows or turns subnormal, and an
    # absolute epsilon of any size in a band is seen. A refusal is the same
    # refusal, line for line: residual mode refuses a training part that
    # ends in a missing point, which a silence starting on the last training
    # interval of an odd-length trace gives.
    series = trace.device_series[device]
    scaled = replace(series, values=series.values * 2.0 ** k)
    code, err, alerts = detect_run(series, mode, window, confidence)
    again = detect_run(scaled, mode, window, confidence)
    event(f"exit {code}")
    assert again[:2] == (code, err)
    assert len(again[2]) == len(alerts)
    for got, want in zip(again[2], alerts):
        if want["kind"] == "Surge":
            want.update({key: want[key] * 2.0 ** k for key in SCALED})
        assert got == want
