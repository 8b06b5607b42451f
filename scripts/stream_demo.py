#!/usr/bin/env python3
"""Event-log streaming demo: flood trace -> CC4 classifier -> alert stream.

Generates the stock UDP-flood trace, one-shot-trains the corner-classification
network from the trace's own labels, runs the streaming pipeline, and prints
the throughput counters plus the first few alerts.
"""
import argparse

from gatewatch import StreamConfig, stream_pipeline
from gatewatch.simulate import default_flood_config, event_schema, generate_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--radius", type=int, default=0)
    parser.add_argument("--show", type=int, default=8,
                        help="number of alerts to print")
    args = parser.parse_args()

    trace = generate_trace(default_flood_config(seed=args.seed))
    config = StreamConfig(interval_seconds=trace.interval_seconds)
    alerts, counts, _ = stream_pipeline(trace.events, event_schema(), None, config,
                                        trace.labels, args.radius)

    for key, value in counts.to_json_obj().items():
        print(f"{key}: {value}")
    print(f"alerts: {len(alerts)}")
    for alert in alerts[:args.show]:
        print(alert.to_json())


if __name__ == "__main__":
    main()
