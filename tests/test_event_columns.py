"""`gatewatch stream` reads its log straight into the intake's columns.

The line decoder must give what `json.loads` gives, object for object and
error for error; the columns must be those the record intake builds from
`read_events_jsonl`; and on the CLI path no `EventLogRecord` may outlive the
reading, and the intake builder must run once.
"""
import contextlib
import gc
import io
import json
from unittest import mock

import pytest

from gatewatch import cc4, cli, simulate
from gatewatch.errors import SchemaMismatch

GOOD = ('{"ts": "2021-01-01T00:00:00+00:00", "src": "a", "proto": "udp", '
        '"packets": 3.0, "status": "ok"}')
STAMP = '"ts": "2021-01-01T00:00:00+00:00"'

# Lines json.loads takes: each must decode to the same object.
GOOD_LINES = {
    "nan": '{%s, "src": "a", "proto": "udp", "packets": NaN, "status": "ok"}' % STAMP,
    "infinity": '{%s, "src": "a", "packets": Infinity, "status": -Infinity}' % STAMP,
    "negative-zero": '{%s, "src": "a", "proto": "udp", "packets": -0.0, "status": "ok"}'
                     % STAMP,
    "big-integer": '{%s, "src": "a", "proto": "udp", "packets": %d, "status": "ok"}'
                   % (STAMP, 10 ** 40),
    "escapes": '{%s, "src": "\\u00e9t\\u00e9", "proto": "\\u0075dp", '
               '"packets": 3, "status": "\\"ok\\"\\n"}' % STAMP,
    "lone-surrogates": '{%s, "src": "\\ud800", "proto": "\\udc00", "packets": 3, '
                       '"status": "ok"}' % STAMP,
    "duplicate-keys": '{"ts": 5, "src": "b", "proto": "wifi", "proto": "udp", %s, '
                      '"src": "a", "packets": 3, "status": "ok"}' % STAMP,
    "nested-objects": '{%s, "src": "a", "proto": "udp", "packets": 3, '
                      '"status": {"a": [1, {"b": null}], "c": {}}}' % STAMP,
    "spaces": ' \t{ "ts" :"2021-01-01T05:00:00+05:00" ,"src":"a","proto" : "udp",'
              '"packets":true,"status":"ok"}  \t',
}

# Lines that are not event records, each with the error text the reader of
# the parent commit (json.loads per line) printed, as
# `gatewatch stream --input <GOOD, blank, line, GOOD> --labels <no rows>`.
BAD_LINES = {
    "trailing-data": (GOOD + " " + GOOD,
                      "line 3: not JSON: Extra data: line 1 column 97 (char 96)"),
    "bom-in-mid-file": ("\ufeff" + GOOD,
                        "line 3: not JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                        "line 1 column 1 (char 0)"),
    "cut-off": ('{"ts": "2021-01-01T00:00:00+00:00", "src": ',
                "line 3: not JSON: Expecting value: line 1 column 43 (char 42)"),
    "bad-escape": ('{"ts": "2021-01-01T00:00:00+00:00", "src": "\\x"}',
                   "line 3: not JSON: Invalid \\escape: line 1 column 45 (char 44)"),
    "non-object": ("[1, 2]", "line 3: event record must be a JSON object"),
    "bare-nan": ("NaN", "line 3: event record must be a JSON object"),
    "missing-ts": ('{"src": "a", "proto": "udp"}',
                   "line 3: event record requires nonempty ts and src"),
    "missing-src": ('{"ts": "2021-01-01T00:00:00+00:00", "proto": "udp"}',
                    "line 3: event record requires nonempty ts and src"),
    "non-string-ts": ('{"ts": 1609459200, "src": "a"}',
                      "line 3: event ts must be a string, not 1609459200"),
    "non-iso-ts": ('{"ts": "2021-13-01T00:00:00", "src": "a"}',
                   "line 3: event ts '2021-13-01T00:00:00' is not an ISO 8601 stamp"),
    "surrogate-ts": ('{"ts": "\\ud800", "src": "a"}',
                     "line 3: event ts '\\ud800' is not an ISO 8601 stamp"),
}


def plain(columns):
    """Every column as plain Python values, for comparison by repr (which
    tells NaN, -0.0 and a naive clock from UTC apart)."""
    return (columns.schema, columns.records_in, columns.epoch, columns.micros.tolist(),
            columns.ranks.tolist(), columns.names, [list(v) for v in columns.values],
            columns.matched.tolist(), columns.unmatched)


def write_log(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("line", GOOD_LINES.values(), ids=GOOD_LINES)
def test_a_line_decodes_to_the_object_json_loads_gives(tmp_path, line):
    assert repr(cc4._decode(line.strip())) == repr(json.loads(line))
    path = write_log(tmp_path / "events.jsonl", [GOOD, "", line, GOOD])
    records = [cc4.parse_event_obj(json.loads(text)) for text in (GOOD, line, GOOD)]
    assert repr(cc4.read_events_jsonl(path)) == repr(records)
    schema = simulate.event_schema()
    assert repr(plain(cc4._intake(cc4.read_events(path), schema))) == \
        repr(plain(cc4._intake(records, schema)))


@pytest.mark.parametrize("line, message", BAD_LINES.values(), ids=BAD_LINES)
def test_a_bad_line_raises_the_parse_error_of_json_loads(tmp_path, line, message):
    path = write_log(tmp_path / "events.jsonl", [GOOD, "", line, GOOD])
    for read in (cc4.read_events_jsonl,
                 lambda p: cc4._intake(cc4.read_events(p), simulate.event_schema())):
        with pytest.raises(SchemaMismatch) as info:
            read(path)
        assert str(info.value) == message
    labels = tmp_path / "labels.csv"
    labels.write_text(",".join(simulate.LABEL_COLUMNS) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["stream", "--input", str(path), "--labels", str(labels),
                         "--out", str(tmp_path / "o")])
    assert (code, err.getvalue()) == (2, f"error: data: SchemaMismatch: {message}\n")


@pytest.fixture
def trace_dir(tmp_path):
    out = tmp_path / "trace"
    assert cli.main(["simulate", "--scenario", "flood", "--seed", "7",
                     "--out", str(out)]) == 0
    return out


def alive_records():
    """The EventLogRecords still reachable: garbage that earlier tests left in
    reference cycles is collected first, so it cannot leave mid-count."""
    gc.collect()
    return sum(isinstance(obj, cc4.EventLogRecord) for obj in gc.get_objects())


def test_the_stream_reads_its_log_into_columns_once(trace_dir, tmp_path):
    # no EventLogRecord alive once the log is read, on either path, and one
    # intake pass per run
    before = alive_records()
    intake, alive = cc4._intake, []

    def intake_and_count(*args):
        columns = intake(*args)
        alive.append(alive_records() - before)
        return columns

    events = str(trace_dir / "events.jsonl")
    runs = [["--labels", str(trace_dir / "labels.csv"), "--out", str(tmp_path / "a")],
            ["--network", str(tmp_path / "a" / "network.json"), "--out", str(tmp_path / "b")]]
    for flags in runs:
        with mock.patch.object(cc4, "_intake", intake_and_count):
            assert cli.main(["stream", "--input", events, *flags]) == 0
        assert alive == [0]
        alive.clear()
    # the count sees the records the library reader makes
    records = cc4.read_events_jsonl(events)
    assert alive_records() - before == len(records) > 0
