"""Command-line entry point wiring every module.

Subcommands: ingest | inspect | forecast | compare | detect | simulate | stream.
Exit codes: 0 success, 1 usage error, 2 data error, 3 model error. Errors are
emitted as a single machine-parsable line on stderr. All outputs land under
--out; inputs are never mutated, and seeded runs are byte-reproducible.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import cc4, detect, evaluate, ingest, series as ts, simulate
from .errors import EmptyTrainingSet, GatewatchError, NonFiniteLoss
from .forecast import ForecasterConfig, fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

# Keys a --config file may carry; mirrors the flag set. Unknown keys reject.
CONFIG_KEYS = {
    "value_col", "interval", "aggregator", "model", "period", "confidence",
    "mode", "train_frac", "seed", "horizon", "window", "gap_threshold",
    "radius", "strict_unknown", "scenario", "magnitude", "source_ip",
    "ma_window", "lstm_epochs", "lstm_num_timesteps", "lstm_num_chunks",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="gatewatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", help="input file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file; flags win on conflict")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("ingest", help="flow CSV -> series JSON + ingest report")
    common(p)
    p.add_argument("--value-col", default="Fwd Pkt Len Mean")
    p.add_argument("--interval", type=float, default=3600.0,
                   help="bucket width in seconds")
    p.add_argument("--aggregator", choices=["mean", "sum", "count"], default="mean")
    p.add_argument("--source-ip", default=None,
                   help="keep only flows originating at this address")

    p = sub.add_parser("inspect", help="series JSON -> diagnostics JSON")
    common(p)
    p.add_argument("--period", type=int, action="append", default=None,
                   help="candidate seasonal period (repeatable)")

    p = sub.add_parser("forecast", help="fit one model, emit forecasts + band CSV")
    common(p)
    _model_flags(p)
    p.add_argument("--horizon", type=int, default=24)
    p.add_argument("--confidence", type=float, default=0.95)

    p = sub.add_parser("compare", help="model comparison report")
    common(p)
    p.add_argument("--models", default="moving_average,holt_winters",
                   help="comma-separated variants")
    p.add_argument("--train-frac", type=float, default=0.8)
    _model_flags(p, with_variant=False)

    p = sub.add_parser("detect", help="surge/dropout detection -> alert JSONL")
    common(p)
    _model_flags(p)
    p.add_argument("--value-col", default="Fwd Pkt Len Mean")
    p.add_argument("--interval", type=float, default=3600.0)
    p.add_argument("--source-ip", default=None)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--mode", choices=["mean_shift", "residual"], default="mean_shift")
    p.add_argument("--train-frac", type=float, default=0.5)
    p.add_argument("--window", type=int, default=24)
    p.add_argument("--gap-threshold", type=int, default=3)

    p = sub.add_parser("simulate", help="generate a labeled attack trace")
    common(p)
    p.add_argument("--scenario", choices=["flood", "silence", "sybil", "clean"],
                   default="flood")
    p.add_argument("--magnitude", type=float, default=10.0)

    p = sub.add_parser("stream", help="event-log pipeline -> alert JSONL")
    common(p)
    p.add_argument("--labels", help="labels.csv used to train the classifier")
    p.add_argument("--network", help="pre-trained network JSON")
    p.add_argument("--interval", type=float, default=3600.0)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--window", type=int, default=24)
    p.add_argument("--gap-threshold", type=int, default=3)
    p.add_argument("--strict-unknown", action="store_true")
    return parser


def _model_flags(p, with_variant: bool = True):
    if with_variant:
        p.add_argument("--model", default="holt_winters",
                       choices=["moving_average", "holt_winters",
                                "linear_trend", "lstm"])
    p.add_argument("--period", type=int, default=24)
    p.add_argument("--ma-window", type=int, default=3)
    p.add_argument("--lstm-num-timesteps", type=int, default=1008)
    p.add_argument("--lstm-epochs", type=int, default=1)
    p.add_argument("--lstm-num-chunks", type=int, default=1)


def _apply_config_file(args) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    unknown = set(overrides) - CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    # File fills in only what the command line left at its default.
    defaults = build_parser().parse_args([args.command, "--out", "_"])
    for key, value in overrides.items():
        attr = key
        if hasattr(args, attr) and getattr(args, attr) == getattr(defaults, attr, None):
            setattr(args, attr, value)


def _forecaster_config(args) -> ForecasterConfig:
    return ForecasterConfig(
        variant=getattr(args, "model", "holt_winters"),
        ma_window=getattr(args, "ma_window", 3),
        hw_period=getattr(args, "period", 24),
        lstm_num_timesteps=getattr(args, "lstm_num_timesteps", 1008),
        lstm_epochs=getattr(args, "lstm_epochs", 1),
        lstm_num_chunks=getattr(args, "lstm_num_chunks", 1),
        rng_seed=args.seed if args.seed is not None else 0,
    )


def _series_from_csv(args) -> tuple[ts.TimeSeries, ingest.IngestReport]:
    records, report = ingest.parse_flow_csv(args.input, getattr(
        args, "value_col", "Fwd Pkt Len Mean"))
    if getattr(args, "source_ip", None):
        records = [r for r in records if r.source_ip == args.source_ip]
    records, report.rows_dropped_missing, report.rows_dropped_duplicate = \
        ingest.clean(records)
    series = ingest.to_series(records, getattr(args, "interval", 3600.0),
                              getattr(args, "aggregator", "mean"))
    return series, report


def _load_series(args) -> ts.TimeSeries:
    path = Path(args.input)
    if path.suffix == ".json":
        return ts.TimeSeries.from_json(path.read_text(encoding="utf-8"))
    return _series_from_csv(args)[0]


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


# --- subcommand bodies ------------------------------------------------------


def cmd_ingest(args) -> int:
    result, report = _series_from_csv(args)
    out = _outdir(args)
    _write_json(out / "series.json", result.to_json_obj())
    _write_json(out / "ingest_report.json", report.to_json_obj())
    return EXIT_OK


def cmd_inspect(args) -> int:
    data = _load_series(args)
    periods = args.period or [24]
    report = ts.diagnose(data, periods)
    _write_json(_outdir(args) / "diagnostics.json", report.to_json_obj())
    return EXIT_OK


def cmd_forecast(args) -> int:
    data = _load_series(args)
    config = _forecaster_config(args)
    model = fit(config, data)
    preds = model.forecast(args.horizon)
    z = detect.z_score(args.confidence)
    sigma = model.residual_std
    out = _outdir(args)
    obj = model.result.to_json_obj()
    obj["forecasts"] = preds
    _write_json(out / "forecast.json", obj)
    _write_json(out / "model.json", model.to_json_obj())
    lines = ["t,actual,predicted,lower,upper"]
    warm = model.result.warmup
    for i, fitted in enumerate(model.result.fitted):
        t = warm + i
        lines.append(f"{t},{data.values[t]!r},{fitted!r},"
                     f"{fitted - z * sigma!r},{fitted + z * sigma!r}")
    for h, pred in enumerate(preds, start=1):
        t = len(data) + h - 1
        lines.append(f"{t},,{pred!r},{pred - z * sigma!r},{pred + z * sigma!r}")
    (out / "forecast.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_compare(args) -> int:
    data = _load_series(args)
    configs = []
    for name in args.models.split(","):
        name = name.strip()
        if not name:
            continue
        config = _forecaster_config(args)
        config = ForecasterConfig(**{**config.__dict__, "variant": name})
        configs.append(config)
    report = evaluate.compare_models(configs, data, args.train_frac)
    # Persisted reports must be byte-reproducible; wall-clock timing is not.
    for row in report.rows:
        row.fit_seconds = 0.0
    out = _outdir(args)
    _write_json(out / "report.json", report.to_json_obj())
    (out / "report.txt").write_text(report.to_text_table() + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_detect(args) -> int:
    data = _load_series(args)
    train, test = ts.split(data, args.train_frac)
    train = ts.impute_short_gaps(train)
    source = args.source_ip or ""
    if args.mode == "residual":
        alerts = detect.detect_surges(
            test, fit(_forecaster_config(args), train), args.confidence,
            mode="residual", source=source)
    else:
        # The band needs only the observed training points: nothing is fitted.
        alerts = detect.mean_shift_alerts(
            test, 0, train.clean_values(), detect.z_score(args.confidence),
            args.window, "Surge", source)
    alerts.extend(detect.detect_dropout(data, args.gap_threshold, source=source))
    merged = detect.merge_alerts(alerts)
    out = _outdir(args)
    detect.write_alerts_jsonl(merged, out / "alerts.jsonl")
    return EXIT_OK


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else 42
    if args.scenario == "flood":
        config = simulate.default_flood_config(seed=seed, magnitude=args.magnitude)
    elif args.scenario == "silence":
        config = simulate.default_silence_config(seed=seed)
    elif args.scenario == "sybil":
        config = simulate.default_sybil_config(seed=seed)
    else:
        config = simulate.SimConfig(seed=seed, fleet=simulate.default_fleet())
    trace = simulate.generate_trace(config)
    simulate.write_trace(trace, _outdir(args))
    return EXIT_OK


def cmd_stream(args) -> int:
    events = cc4.read_events_jsonl(args.input)
    schema = simulate.event_schema()
    if args.network:
        network = cc4.CC4Network.from_json(
            Path(args.network).read_text(encoding="utf-8"))
    else:
        if not args.labels:
            raise UsageError("stream requires --network or --labels")
        network = _train_from_labels(events, args.labels, schema,
                                     args.interval, args.radius)
    config = cc4.StreamConfig(interval_seconds=args.interval,
                              strict_unknown=args.strict_unknown,
                              confidence=args.confidence,
                              surge_window=args.window,
                              gap_threshold=args.gap_threshold)
    alerts, stats = cc4.stream_pipeline(events, schema, network, config)
    out = _outdir(args)
    detect.write_alerts_jsonl(alerts, out / "alerts.jsonl")
    _write_json(out / "stream_counts.json", stats.to_json_obj())
    _write_json(out / "network.json", network.to_json_obj())
    return EXIT_OK


def _train_from_labels(events, labels_path, schema, interval_seconds,
                       radius) -> cc4.CC4Network:
    if not events:
        raise EmptyTrainingSet("no event in the input to train on")
    labels = simulate.read_labels_csv(labels_path)
    attack_cells = {(i, d) for i, d, _ in labels}
    start = min(e.timestamp for e in events)
    ordered = sorted(events, key=lambda e: (e.timestamp, e.source_id))
    samples = cc4.training_samples(ordered, schema, attack_cells, start,
                                   interval_seconds)
    return cc4.cc4_train(samples, radius)


COMMANDS = {
    "ingest": cmd_ingest,
    "inspect": cmd_inspect,
    "forecast": cmd_forecast,
    "compare": cmd_compare,
    "detect": cmd_detect,
    "simulate": cmd_simulate,
    "stream": cmd_stream,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        if getattr(args, "input", None) is None and args.command != "simulate":
            raise UsageError(f"{args.command} requires --input")
        for name in ("window", "gap_threshold"):
            if getattr(args, name, 1) < 1:
                raise UsageError(f"--{name.replace('_', '-')} must be >= 1")
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteLoss as exc:
        print(f"error: model: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except GatewatchError as exc:
        print(f"error: data: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: data: IoFailure: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
