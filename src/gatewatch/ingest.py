"""Flow-log CSV ingestion: parse, clean, de-duplicate, roll up to a series.

Input files are RFC-4180 CSV with a header row. Timestamps are day-first
12-hour clock with AM/PM ("dd/MM/yyyy hh:mm:ss AM/PM"); anything else is a
parse failure, never a guess. All instants are treated as UTC.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import (
    EmptyInput,
    MalformedHeader,
    MissingColumn,
    TimestampParseError,
)
from .series import MICROSECOND, TimeSeries, check_interval, slots, to_utc

TIMESTAMP_FORMAT = "%d/%m/%Y %I:%M:%S %p"


def parse_timestamp(text: str) -> datetime:
    try:
        return to_utc(datetime.strptime(text.strip(), TIMESTAMP_FORMAT))
    except ValueError as exc:
        raise TimestampParseError(f"bad timestamp {text!r}") from exc


def format_timestamp(dt: datetime) -> str:
    return dt.strftime(TIMESTAMP_FORMAT)


def _coerce_float(text: str) -> float | None:
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


@dataclass(frozen=True)
class FlowRecord:
    """The columns of one flow-log row that the pipeline reads."""

    flow_id: str
    timestamp: datetime
    value: float | None  # the selected value column, None when missing

    @property
    def is_clean(self) -> bool:
        return self.value is not None and math.isfinite(self.value)

    @property
    def source_ip(self) -> str:
        """Leading address of the flow tuple (the reporting device)."""
        return self.flow_id.split("-", 1)[0]


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_dropped_missing: int = 0
    rows_dropped_duplicate: int = 0
    series_start: datetime | None = None
    series_end: datetime | None = None

    def to_json_obj(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_dropped_missing": self.rows_dropped_missing,
            "rows_dropped_duplicate": self.rows_dropped_duplicate,
            "series_start": self.series_start.isoformat() if self.series_start else None,
            "series_end": self.series_end.isoformat() if self.series_end else None,
        }


def parse_flow_csv(path, value_column: str) -> tuple[list[FlowRecord], IngestReport]:
    """Parse the Flow ID, Timestamp and value columns of a flow CSV; other
    columns are not read. Rows whose value cell is absent or fails numeric
    coercion are retained but marked missing; clean() drops them later. The
    report counts the rows read; its series range is left to the caller."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedHeader(f"{path}: no header row")
        header = [h.strip() for h in header]
        if "Flow ID" not in header or "Timestamp" not in header:
            raise MalformedHeader(f"{path}: header lacks Flow ID/Timestamp columns")
        if value_column not in header:
            raise MissingColumn(f"{value_column!r} not in header")
        i_id, i_ts, i_value = (header.index(name)
                               for name in ("Flow ID", "Timestamp", value_column))

        records: list[FlowRecord] = []
        report = IngestReport()
        # A flow log repeats each interval's stamp once per flow, so each
        # distinct stamp text is parsed once; only parsed stamps are kept.
        stamps: dict[str, datetime] = {}
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            report.rows_read += 1
            n = len(row)   # a short row lacks its trailing cells
            text = row[i_ts] if i_ts < n else ""
            stamp = stamps.get(text)
            if stamp is None:
                try:
                    stamp = stamps[text] = parse_timestamp(text)
                except TimestampParseError as exc:
                    raise TimestampParseError(
                        f"{path}: line {reader.line_num}: {exc}") from None
            records.append(FlowRecord(
                flow_id=row[i_id].strip() if i_id < n else "",
                timestamp=stamp,
                value=_coerce_float(row[i_value]) if i_value < n else None,
            ))
    return records, report


def clean(records: list[FlowRecord]) -> tuple[list[FlowRecord], int, int]:
    """Drop value-missing rows, de-duplicate, sort by timestamp.

    A duplicate is an identical (flow_id, timestamp, value) triple, so
    repeated measurements at distinct flows survive.
    Returns (clean records, dropped_missing, dropped_duplicate).
    """
    dropped_missing = 0
    dropped_duplicate = 0
    seen: set[tuple] = set()
    kept: list[FlowRecord] = []
    for rec in records:
        if not rec.is_clean:
            dropped_missing += 1
            continue
        key = (rec.flow_id, rec.timestamp, rec.value)
        if key in seen:
            dropped_duplicate += 1
            continue
        seen.add(key)
        kept.append(rec)
    kept.sort(key=lambda r: r.timestamp)
    return kept, dropped_missing, dropped_duplicate


def to_series(records: list[FlowRecord], interval_seconds: float,
              aggregator: str = "mean") -> TimeSeries:
    """Roll clean records up into one bucket per interval; empty buckets are missing."""
    if aggregator not in ("mean", "sum", "count"):
        raise ValueError(f"unknown aggregator {aggregator!r}")
    check_interval(interval_seconds)
    usable = [r for r in records if r.is_clean]
    if not usable:
        raise EmptyInput("no clean records to bucket")
    # Sorted by time, so bincount adds each bucket's values in the same
    # left-to-right order as summing the bucket.
    usable.sort(key=lambda r: r.timestamp)
    first = usable[0].timestamp
    index = slots([(r.timestamp - first) // MICROSECOND for r in usable], interval_seconds)
    counts = np.bincount(index)
    if aggregator == "count":
        values = counts.astype(float)
    else:
        values = np.bincount(index, weights=[r.value for r in usable])
        if aggregator == "mean":
            values /= np.maximum(counts, 1)
    values[counts == 0] = np.nan
    return TimeSeries(start=first, interval_seconds=interval_seconds, values=values)
