#!/usr/bin/env python3
"""Run the three stock attack scenarios end to end and score the detectors.

For each scenario the script generates a labeled trace, runs the matching
detector (windowed mean-shift surges, dropout runs, identity-flood counts),
and prints precision/recall against the scripted ground truth.
"""
import argparse

from gatewatch import (
    detect_dropout,
    detect_identity_flood,
    generate_trace,
    mean_shift_alerts,
    score_detections,
    split,
    z_score,
)
from gatewatch.cc4 import new_id_counts
from gatewatch.simulate import (
    default_flood_config,
    default_silence_config,
    default_sybil_config,
)


def flood(seed: int):
    trace = generate_trace(default_flood_config(seed=seed))
    series = trace.device_series["camera-1"]
    train, test = split(series, 0.5)
    alerts = mean_shift_alerts(test, train.clean_values(), z_score(0.95), 24,
                               "Surge", "camera-1")
    return score_detections(alerts, trace, coverage=24), len(alerts)


def silence(seed: int):
    trace = generate_trace(default_silence_config(seed=seed))
    series = trace.device_series["streetlight-1"]
    alerts = detect_dropout(series, gap_threshold=3, source="streetlight-1")
    return score_detections(alerts, trace, coverage=30), len(alerts)


def sybil(seed: int):
    trace = generate_trace(default_sybil_config(seed=seed))
    counts = new_id_counts(trace.events, trace.start, trace.interval_seconds,
                           trace.duration)
    alerts = detect_identity_flood(counts, 0.95, train_fraction=0.5, window=1)
    return score_detections(alerts, trace), len(alerts)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(f"{'scenario':<22}{'alerts':>7}{'precision':>11}{'recall':>8}")
    for name, runner in (("UdpFlood", flood),
                         ("SilenceAfterOverflow", silence),
                         ("Sybil", sybil)):
        score, n_alerts = runner(args.seed)
        precision = "-" if score.precision is None else f"{score.precision:.3f}"
        print(f"{name:<22}{n_alerts:>7}{precision:>11}{score.recall:>8.3f}")


if __name__ == "__main__":
    main()
