import csv
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gatewatch import ingest
from gatewatch.errors import (
    EmptyInput,
    MalformedHeader,
    MissingColumn,
    TimestampParseError,
)

HEADER = "Flow ID,Timestamp,Fwd Pkt Len Mean,Fwd Seg Size Avg,Init Fwd Win Byts,Init Bwd Win Byts,Fwd Seg Size Min\n"

ROW0 = "172.31.69.28-18.216.200.189-80-52169-6,22/02/2018 12:27:57 AM,233.750000,233.750000,-1,32768,0\n"


def write(tmp_path, body, name="flow.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def test_parse_known_row(tmp_path):
    records, report = ingest.parse_flow_csv(write(tmp_path, ROW0), "Fwd Pkt Len Mean")
    assert report.rows_read == 1
    rec = records[0]
    assert rec.flow_id == "172.31.69.28-18.216.200.189-80-52169-6"
    assert rec.timestamp == datetime(2018, 2, 22, 0, 27, 57, tzinfo=timezone.utc)
    assert rec.value == 233.75
    assert rec.source_ip == "172.31.69.28"


def test_header_only_gives_empty(tmp_path):
    records, report = ingest.parse_flow_csv(write(tmp_path, ""), "Fwd Pkt Len Mean")
    assert records == []
    assert report.rows_read == 0


def test_non_numeric_value_marked_missing(tmp_path):
    body = ROW0 + "f2,22/02/2018 12:28:57 AM,abc,1.0,-1,1,0\n"
    records, _ = ingest.parse_flow_csv(write(tmp_path, body), "Fwd Pkt Len Mean")
    assert len(records) == 2
    assert records[1].value is None
    kept, dropped_missing, _ = ingest.clean(records)
    assert len(kept) == 1
    assert dropped_missing == 1


def test_day_first_dates():
    ts = ingest.parse_timestamp("03/07/2017 05:25:58 PM")
    assert (ts.year, ts.month, ts.day, ts.hour) == (2017, 7, 3, 17)


def test_bad_timestamp_is_a_failure(tmp_path):
    body = "f1,2018-02-22 00:27:57,1.0,1.0,-1,1,0\n"
    with pytest.raises(TimestampParseError):
        ingest.parse_flow_csv(write(tmp_path, body), "Fwd Pkt Len Mean")


def test_missing_column(tmp_path):
    with pytest.raises(MissingColumn):
        ingest.parse_flow_csv(write(tmp_path, ROW0), "No Such Column")


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(MalformedHeader):
        ingest.parse_flow_csv(path, "c")
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(MalformedHeader):
        ingest.parse_flow_csv(empty, "c")


def test_io_failure(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest.parse_flow_csv(tmp_path / "nope.csv", "Fwd Pkt Len Mean")


READ_COLUMNS = ("Flow ID", "Timestamp", "Fwd Pkt Len Mean")
OTHER_COLUMNS = ("Fwd Seg Size Avg", "Init Fwd Win Byts", "Init Bwd Win Byts",
                 "Fwd Seg Size Min", "Label")


@given(rows=st.lists(st.tuples(
           st.from_regex(r"[0-9a-f.-]{1,24}", fullmatch=True),
           st.datetimes(datetime(2000, 1, 1), datetime(2030, 1, 1)),
           st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))),
       min_size=1, max_size=8),
       others=st.lists(st.sampled_from(OTHER_COLUMNS), unique=True),
       data=st.data())
def test_parse_reads_only_id_timestamp_and_value(tmp_path_factory, rows, others, data):
    # Whatever the other columns hold (junk, empty, or cut off the end of a
    # short row) and in whatever order the columns come, a row parses to
    # the same record; a row cut short before its value cell is missing.
    header = data.draw(st.permutations(list(READ_COLUMNS) + others))
    junk = st.text(alphabet='ab1.-e, "\n', max_size=6)
    lines, want = [header], []
    for flow_id, stamp, value in rows:
        stamp = stamp.replace(microsecond=0, tzinfo=timezone.utc)
        cells = {"Flow ID": flow_id, "Timestamp": ingest.format_timestamp(stamp),
                 "Fwd Pkt Len Mean": "" if value is None else repr(value)}
        row = [cells[name] if name in cells else data.draw(junk) for name in header]
        cut = data.draw(st.integers(max(header.index("Flow ID"),
                                        header.index("Timestamp")) + 1, len(header)))
        lines.append(row[:cut])
        if header.index("Fwd Pkt Len Mean") >= cut:
            value = None
        want.append(ingest.FlowRecord(flow_id=flow_id, timestamp=stamp, value=value))
    path = tmp_path_factory.mktemp("flows") / "flow.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(lines)
    records, report = ingest.parse_flow_csv(path, "Fwd Pkt Len Mean")
    assert records == want
    assert report.rows_read == len(rows)


def _record(flow_id, ts_text, value):
    return ingest.FlowRecord(
        flow_id=flow_id, timestamp=ingest.parse_timestamp(ts_text), value=value)


def test_clean_drops_missing_and_duplicates():
    recs = [
        _record("a", "01/01/2020 01:00:00 AM", 1.0),
        _record("a", "01/01/2020 01:00:00 AM", 1.0),  # byte-identical duplicate
        _record("b", "01/01/2020 01:00:01 AM", None),
        _record("c", "01/01/2020 01:00:02 AM", None),
        _record("d", "01/01/2020 01:00:03 AM", 2.0),
    ]
    kept, dropped_missing, dropped_dupe = ingest.clean(recs)
    assert [r.flow_id for r in kept] == ["a", "d"]
    assert dropped_missing == 2
    assert dropped_dupe == 1


def test_clean_keeps_repeated_measurements_at_distinct_flows():
    recs = [_record("a", "01/01/2020 01:00:00 AM", 5.0),
            _record("b", "01/01/2020 01:00:00 AM", 5.0)]
    kept, _, dupes = ingest.clean(recs)
    assert len(kept) == 2 and dupes == 0


def test_clean_is_idempotent():
    recs = [_record("a", "01/01/2020 01:00:00 AM", 1.0),
            _record("a", "01/01/2020 01:00:00 AM", 1.0),
            _record("b", "01/01/2020 01:00:05 AM", None)]
    once, *_ = ingest.clean(recs)
    twice, dm, dd = ingest.clean(once)
    assert twice == once and dm == 0 and dd == 0


def test_to_series_mean_buckets():
    recs = [_record("a", "01/01/2020 01:00:00 AM", 1.0),
            _record("b", "01/01/2020 01:00:30 AM", 3.0),
            _record("c", "01/01/2020 01:01:30 AM", 5.0)]
    series = ingest.to_series(recs, 60.0, "mean")
    assert series.values.tolist() == [2.0, 5.0]
    assert not series.missing.any()


def test_to_series_single_record():
    series = ingest.to_series([_record("a", "01/01/2020 01:00:00 AM", 7.0)], 60.0)
    assert len(series) == 1 and series.values[0] == 7.0


def test_to_series_gap_bucket_missing():
    recs = [_record("a", "01/01/2020 01:00:00 AM", 1.0),
            _record("b", "01/01/2020 01:02:00 AM", 3.0)]
    series = ingest.to_series(recs, 60.0, "mean")
    assert len(series) == 3
    assert series.missing.tolist() == [False, True, False]


def test_to_series_bucket_count_rule():
    recs = [_record("a", "01/01/2020 01:00:00 AM", 1.0),
            _record("b", "01/01/2020 01:03:10 AM", 3.0)]
    series = ingest.to_series(recs, 60.0, "count")
    first, last = recs[0].timestamp, recs[1].timestamp
    expected = int((last - first).total_seconds() // 60) + 1
    assert len(series) == expected


def ref_to_series(records, interval_seconds, aggregator):
    """The list-of-lists bucketing loop that np.bincount replaced."""
    usable = sorted((r for r in records if r.is_clean), key=lambda r: r.timestamp)
    first = usable[0].timestamp
    last = usable[-1].timestamp
    n_buckets = int((last - first).total_seconds() // interval_seconds) + 1
    buckets = [[] for _ in range(n_buckets)]
    for rec in usable:
        idx = int((rec.timestamp - first).total_seconds() // interval_seconds)
        buckets[idx].append(rec.value)
    values = np.full(n_buckets, np.nan)
    missing = np.ones(n_buckets, dtype=bool)
    for i, bucket in enumerate(buckets):
        if not bucket:
            continue
        missing[i] = False
        if aggregator == "mean":
            values[i] = sum(bucket) / len(bucket)
        elif aggregator == "sum":
            values[i] = sum(bucket)
        else:
            values[i] = len(bucket)
    return first, values, missing


T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


@given(rows=st.lists(st.tuples(st.integers(0, 5_000_000_000),
                               st.one_of(st.none(), st.floats(-1e9, 1e9))),
                     min_size=1, max_size=40),
       repeats=st.lists(st.integers(0, 39), max_size=5),
       interval=st.sampled_from([60.0, 3600.0, 0.7, 1234.5]))
def test_to_series_matches_bucket_loop(rows, repeats, interval):
    # microsecond stamps up to ~83 minutes apart, some repeated exactly
    rows = rows + [rows[i] for i in repeats if i < len(rows)]
    records = [ingest.FlowRecord(
        flow_id=f"f{k}", timestamp=T0 + timedelta(microseconds=us), value=v)
        for k, (us, v) in enumerate(rows)]
    for aggregator in ("mean", "sum", "count"):
        if not any(r.is_clean for r in records):
            with pytest.raises(EmptyInput):
                ingest.to_series(records, interval, aggregator)
            continue
        series = ingest.to_series(records, interval, aggregator)
        first, values, missing = ref_to_series(records, interval, aggregator)
        assert series.start == first
        assert series.values.tobytes() == values.tobytes()
        assert series.missing.tolist() == missing.tolist()


def test_to_series_empty_input():
    with pytest.raises(EmptyInput):
        ingest.to_series([], 60.0)

