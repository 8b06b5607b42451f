#!/usr/bin/env python3
"""Event-log streaming demo: flood trace -> CC4 classifier -> alert stream.

Generates the stock UDP-flood trace, one-shot-trains the corner-classification
network from the trace's own labels, runs the streaming pipeline, and prints
the throughput counters plus the first few alerts.
"""
import argparse

from gatewatch import StreamConfig, stream_pipeline
from gatewatch.cc4 import train_from_labels
from gatewatch.simulate import default_flood_config, event_schema, generate_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--radius", type=int, default=0)
    parser.add_argument("--show", type=int, default=8,
                        help="number of alerts to print")
    args = parser.parse_args()

    trace = generate_trace(default_flood_config(seed=args.seed))
    schema = event_schema()
    network = train_from_labels(trace.events, trace.labels, schema,
                                trace.interval_seconds, args.radius)
    config = StreamConfig(interval_seconds=trace.interval_seconds)
    alerts, counts = stream_pipeline(trace.events, schema, network, config)

    for key, value in counts.to_json_obj().items():
        print(f"{key}: {value}")
    print(f"alerts: {len(alerts)}")
    for alert in alerts[:args.show]:
        print(alert.to_json())


if __name__ == "__main__":
    main()
