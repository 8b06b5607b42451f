import csv
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
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



def test_bom_prefixed_csv_parses(tmp_path):
    # Spreadsheet exports often start with a UTF-8 byte-order mark.
    path = tmp_path / "flow.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (HEADER + ROW0).encode("utf-8"))
    records, report = ingest.parse_flow_csv(path, "Fwd Pkt Len Mean")
    assert records == ingest.parse_flow_csv(write(tmp_path, ROW0, "plain.csv"),
                                            "Fwd Pkt Len Mean")[0]
    assert report.rows_read == 1


def test_bad_timestamp_names_the_file_and_line(tmp_path):
    # The header is line 1 and a blank line still counts.
    body = ROW0 + "\n" + ROW0 + "f1,22/02/2018 13:27:57 PM,1.0,1.0,-1,1,0\n"
    path = write(tmp_path, body)
    with pytest.raises(TimestampParseError) as info:
        ingest.parse_flow_csv(path, "Fwd Pkt Len Mean")
    assert str(info.value) == f"{path}: line 5: bad timestamp '22/02/2018 13:27:57 PM'"


def ref_parse_flow_csv(path, value_column):
    """The per-row strptime loop that the stamp memo replaced. Returns
    (records, report, None), or (None, None, (stamp text, line)) for the
    first row whose stamp does not parse."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        i_id, i_ts, i_value = (header.index(name)
                               for name in ("Flow ID", "Timestamp", value_column))
        records = []
        report = ingest.IngestReport()
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            report.rows_read += 1
            n = len(row)
            text = row[i_ts] if i_ts < n else ""
            try:
                stamp = datetime.strptime(text.strip(), "%d/%m/%Y %I:%M:%S %p")
            except ValueError:
                return None, None, (text, reader.line_num)
            value = None
            if i_value < n:
                try:
                    value = float(row[i_value])
                except ValueError:
                    pass
                if value is not None and not np.isfinite(value):
                    value = None
            records.append(ingest.FlowRecord(
                flow_id=row[i_id].strip() if i_id < n else "",
                timestamp=stamp.replace(tzinfo=timezone.utc), value=value))
    if records:
        report.series_start = min(r.timestamp for r in records)
        report.series_end = max(r.timestamp for r in records)
    return records, report, None


def _stamp_texts(stamp):
    """Spellings of one instant that parse, padded or in lower case."""
    text = ingest.format_timestamp(stamp)
    return [text, f"  {text} ", text.lower(), text.replace(" ", "  ", 1)]


BAD_STAMPS = ["", "2018-02-22 00:27:57", "31/02/2018 01:00:00 AM",
              "22/02/2018 13:00:00 PM", "22/02/2018 01:00:00", "x"]


@settings(max_examples=examples(80), deadline=None)
@given(instants=st.lists(st.datetimes(datetime(2000, 1, 1), datetime(2030, 1, 1)),
                         min_size=1, max_size=4),
       rows=st.lists(st.tuples(st.integers(0, 15), st.sampled_from(
           ["full", "full", "full", "no-value", "blank", "commas", "bad"]),
           st.sampled_from(["1.5", "", "nan", "abc", "-3"])), max_size=30))
def test_memoized_parse_matches_per_row_strptime(tmp_path_factory, instants, rows):
    # Repeated, padded and lower-case stamps, bad ones, and short and blank
    # rows: the same records and report, or the same error on the same line.
    good = [t for i in instants for t in _stamp_texts(i.replace(microsecond=0))]
    lines = [["Flow ID", "Timestamp", "Fwd Pkt Len Mean"]]
    for k, (pick, shape, value) in enumerate(rows):
        pool = BAD_STAMPS if shape == "bad" else good
        row = [f"10.0.0.{k % 3}-x", pool[pick % len(pool)], value]
        lines.append({"no-value": row[:2], "blank": [],
                      "commas": ["", " ", ""]}.get(shape, row))
    path = tmp_path_factory.mktemp("flows") / "flow.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(lines)
    want_records, want_report, failure = ref_parse_flow_csv(path, "Fwd Pkt Len Mean")
    if failure is not None:
        text, line = failure
        with pytest.raises(TimestampParseError) as info:
            ingest.parse_flow_csv(path, "Fwd Pkt Len Mean")
        assert str(info.value) == f"{path}: line {line}: bad timestamp {text!r}"
        return
    records, report = ingest.parse_flow_csv(path, "Fwd Pkt Len Mean")
    assert records == want_records
    assert report == want_report
    assert report.to_json_obj() == want_report.to_json_obj()
