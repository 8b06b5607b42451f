"""Command-line entry point wiring every module.

Subcommands: ingest | inspect | forecast | compare | detect | simulate | stream.
Exit codes: 0 success, 1 usage error, 2 data error, 3 model error. Errors are
emitted as a single machine-parsable line on stderr. All outputs land under
--out; inputs are never mutated, and seeded runs are byte-reproducible.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import cc4, detect, evaluate, ingest, series as ts, simulate
from .errors import GatewatchError, NonFiniteLoss
from .forecast import VARIANTS, ForecasterConfig, fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

# How `detect` buckets a flow CSV; it has no --aggregator flag.
DETECT_AGGREGATOR = "mean"

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _between(kind, low, high=math.inf):
    """An argparse type: a `kind` strictly between low and high, NaN refused.
    It keeps kind's name, so argparse still says "invalid int value: 'x'"."""
    def parse(text):
        value = kind(text)
        if not low < value < high:
            bound = f">= {low + 1}" if kind is int else f"> {low} and < {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, not {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="gatewatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reads_input=True):
        if reads_input:
            p.add_argument("--input", help="input file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file; flags win on conflict")
        p.add_argument("--seed", type=_between(int, -1), default=None)

    p = sub.add_parser("ingest", help="flow CSV -> series JSON + ingest report")
    common(p)
    p.add_argument("--value-col", default="Fwd Pkt Len Mean")
    p.add_argument("--interval", type=_between(float, 0), default=3600.0,
                   help="bucket width in seconds")
    p.add_argument("--aggregator", choices=["mean", "sum", "count"], default="mean")
    p.add_argument("--source-ip", default=None,
                   help="keep only flows originating at this address")

    p = sub.add_parser("inspect", help="series JSON -> diagnostics JSON")
    common(p)
    p.add_argument("--period", type=_between(int, 1), action="append", default=None,
                   help="candidate seasonal period (repeatable)")

    p = sub.add_parser("forecast", help="series JSON -> forecasts + band CSV")
    common(p)
    _model_flags(p)
    p.add_argument("--horizon", type=_between(int, 0), default=24)
    p.add_argument("--confidence", type=float, default=0.95)

    p = sub.add_parser("compare", help="series JSON -> model comparison report")
    common(p)
    p.add_argument("--models", default="moving_average,holt_winters",
                   help="comma-separated variants")
    p.add_argument("--train-frac", type=_between(float, 0, 1), default=0.8)
    _model_flags(p, with_variant=False)

    p = sub.add_parser("detect", help="surge/dropout detection -> alert JSONL")
    common(p)
    _model_flags(p)
    p.add_argument("--value-col", default="Fwd Pkt Len Mean")
    p.add_argument("--interval", type=_between(float, 0), default=3600.0)
    p.add_argument("--source-ip", default=None)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--mode", choices=["mean_shift", "residual"], default="mean_shift")
    p.add_argument("--train-frac", type=_between(float, 0, 1), default=0.5)
    p.add_argument("--window", type=_between(int, 0), default=24)
    p.add_argument("--gap-threshold", type=_between(int, 0), default=3)

    p = sub.add_parser("simulate", help="generate a labeled attack trace")
    common(p, reads_input=False)
    p.add_argument("--scenario", choices=["flood", "silence", "sybil", "clean"],
                   default="flood")
    p.add_argument("--magnitude", type=_between(float, 0), default=10.0)

    p = sub.add_parser("stream", help="event-log pipeline -> alert JSONL")
    common(p)
    p.add_argument("--labels", help="labels.csv used to train the classifier")
    p.add_argument("--network", help="pre-trained network JSON")
    p.add_argument("--interval", type=_between(float, 0), default=3600.0)
    p.add_argument("--radius", type=_between(int, -1), default=1)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--window", type=_between(int, 0), default=24)
    p.add_argument("--gap-threshold", type=_between(int, 0), default=3)
    p.add_argument("--strict-unknown", action="store_true")
    return parser


def _model_flags(p, with_variant: bool = True):
    if with_variant:
        p.add_argument("--model", default="holt_winters", choices=VARIANTS)
    p.add_argument("--period", type=_between(int, 1), default=24)
    p.add_argument("--ma-window", type=_between(int, 0), default=3)
    p.add_argument("--lstm-num-timesteps", type=_between(int, 0), default=1008)
    p.add_argument("--lstm-epochs", type=_between(int, 0), default=1)
    p.add_argument("--lstm-num-chunks", type=_between(int, 0), default=1)


def _config_argv(parser: _Parser, args) -> list[str]:
    """The --config file as flags of args.command. Its keys are the long flag
    names of any subcommand, `config` aside; keys the command lacks are
    skipped, and a repeatable flag given on the command line drops the file's."""
    text = Path(args.config).read_text(encoding="utf-8-sig")
    try:
        overrides = json.loads(text)
    except ValueError as exc:   # not JSON, or a number past int's digit limit
        raise UsageError(f"--config: {exc}") from None
    if not isinstance(overrides, dict):
        raise UsageError("--config must hold a JSON object")
    subs = next(a for a in parser._actions if a.dest == "command").choices
    keys = {a.dest for p in subs.values() for a in p._actions} - {"help", "config"}
    unknown = set(overrides) - keys
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    sub = subs[args.command]
    argv = []
    for action in sub._actions:
        value, flag = overrides.get(action.dest), action.option_strings[0]
        if isinstance(action, argparse._AppendAction) and isinstance(value, list):
            items = value if getattr(args, action.dest) is None else []
        else:
            items = [] if value is None else [value]
        for item in items:
            if action.nargs == 0 and isinstance(item, bool):  # a switch
                argv += [flag] if item else []
            else:  # a JSON string is a word only for a text flag: "24" is no int
                text = action.type is None and isinstance(item, str)
                argv += [flag, item if text else json.dumps(item)]
    return argv


def _forecaster_config(args, variant: str) -> ForecasterConfig:
    return ForecasterConfig(
        variant=variant,
        ma_window=args.ma_window,
        hw_period=args.period,
        lstm_num_timesteps=args.lstm_num_timesteps,
        lstm_epochs=args.lstm_epochs,
        lstm_num_chunks=args.lstm_num_chunks,
        rng_seed=args.seed if args.seed is not None else 0,
    )


def _series_from_csv(args, aggregator: str) -> tuple[ts.TimeSeries, ingest.IngestReport]:
    records, report = ingest.parse_flow_csv(args.input, args.value_col)
    if args.source_ip:
        records = [r for r in records if r.source_ip == args.source_ip]
    records, report.rows_dropped_missing, report.rows_dropped_duplicate = \
        ingest.clean(records)
    return ingest.to_series(records, args.interval, aggregator), report


def _series_from_json(args) -> ts.TimeSeries:
    path = Path(args.input)
    if path.suffix != ".json":
        raise UsageError(f"{args.command} reads a series JSON, not {path.name!r}; "
                         "`gatewatch ingest` turns a flow CSV into one")
    return ts.TimeSeries.from_json(path.read_text(encoding="utf-8-sig"))


def _write(path: Path, content) -> None:
    """One artifact: text as it is, else alerts or JSON as its file name says."""
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8", newline="")
    elif path.suffix == ".jsonl":
        detect.write_alerts_jsonl(content, path)
    else:
        path.write_text(json.dumps(content, indent=2) + "\n", encoding="utf-8")


# --- subcommand bodies ------------------------------------------------------
# Each returns its artifacts, {file name: content}, for main to write under
# --out.


def cmd_ingest(args) -> dict:
    result, report = _series_from_csv(args, args.aggregator)
    return {"series.json": result.to_json_obj(),
            "ingest_report.json": report.to_json_obj()}


def cmd_inspect(args) -> dict:
    data = _series_from_json(args)
    periods = args.period or [24]
    return {"diagnostics.json": ts.diagnose(data, periods).to_json_obj()}


def cmd_forecast(args) -> dict:
    data = _series_from_json(args)
    model = fit(_forecaster_config(args, args.model), data)
    preds = model.forecast(args.horizon)
    z = detect.z_score(args.confidence)
    sigma = model.residual_std
    warm = len(data) - len(model.fitted)
    lines = ["t,actual,predicted,lower,upper"]
    for i, fitted in enumerate(model.fitted.tolist()):
        t = warm + i
        lines.append(f"{t},{data.values[t]!r},{fitted!r},"
                     f"{fitted - z * sigma!r},{fitted + z * sigma!r}")
    for h, pred in enumerate(preds, start=1):
        t = len(data) + h - 1
        lines.append(f"{t},,{pred!r},{pred - z * sigma!r},{pred + z * sigma!r}")
    return {"forecast.json": {"fitted": model.fitted.tolist(), "warmup": warm,
                              "forecasts": preds,
                              "residuals": (data.values[warm:] - model.fitted).tolist(),
                              "residual_std": sigma},
            "model.json": model.to_json_obj(),
            "forecast.csv": "\n".join(lines) + "\n"}


def cmd_compare(args) -> dict:
    names = [name.strip() for name in args.models.split(",") if name.strip()]
    unknown = [name for name in names if name not in VARIANTS]
    if unknown:
        raise UsageError(f"unknown --models {unknown}; choose from {list(VARIANTS)}")
    data = _series_from_json(args)
    configs = [_forecaster_config(args, name) for name in names]
    report = evaluate.compare_models(configs, data, args.train_frac)
    # Persisted reports must be byte-reproducible; wall-clock timing is not.
    for row in report.rows:
        row.fit_seconds = 0.0
    return {"report.json": report.to_json_obj(),
            "report.txt": report.to_text_table() + "\n"}


def cmd_detect(args) -> dict:
    if Path(args.input).suffix == ".json":
        data = _series_from_json(args)
    else:
        data = _series_from_csv(args, DETECT_AGGREGATOR)[0]
    train, test = ts.split(data, args.train_frac)
    source = args.source_ip or ""
    if args.mode == "residual":
        model = fit(_forecaster_config(args, args.model), ts.impute_short_gaps(train))
        alerts = detect.detect_surges(test, model, args.confidence,
                                      mode="residual", source=source)
    else:
        # The band needs only the observed training points: nothing is fitted.
        alerts = detect.mean_shift_alerts(
            test, train.clean_values(), detect.z_score(args.confidence),
            args.window, "Surge", source)
    alerts.extend(detect.detect_dropout(data, args.gap_threshold, source=source))
    return {"alerts.jsonl": detect.merge_alerts(alerts)}


def cmd_simulate(args) -> dict:
    seed = args.seed if args.seed is not None else 42
    if args.scenario == "flood":
        config = simulate.default_flood_config(seed=seed, magnitude=args.magnitude)
    elif args.scenario == "silence":
        config = simulate.default_silence_config(seed=seed)
    elif args.scenario == "sybil":
        config = simulate.default_sybil_config(seed=seed)
    else:
        config = simulate.SimConfig(seed=seed, fleet=simulate.default_fleet())
    return simulate.trace_files(simulate.generate_trace(config))


def cmd_stream(args) -> dict:
    if not (args.network or args.labels):
        raise UsageError("stream requires --network or --labels")
    network = labels = None
    if args.network:
        network = cc4.CC4Network.from_json(
            Path(args.network).read_text(encoding="utf-8-sig"))
    else:
        labels = simulate.read_labels_csv(args.labels)
    config = cc4.StreamConfig(interval_seconds=args.interval,
                              strict_unknown=args.strict_unknown,
                              confidence=args.confidence,
                              surge_window=args.window,
                              gap_threshold=args.gap_threshold)
    alerts, stats, network = cc4.stream_pipeline(cc4.read_events(args.input),
                                                 simulate.event_schema(), network, config,
                                                 labels, args.radius)
    return {"alerts.jsonl": alerts,
            "stream_counts.json": stats.to_json_obj(),
            "network.json": network.to_json_obj()}


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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file's flags go first, so the command line's win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(parser, args) + argv[at:])
        if "input" in args and args.input is None:
            raise UsageError(f"{args.command} requires --input")
        if "confidence" in args:  # refused before any input is read
            detect.z_score(args.confidence)
        artifacts = COMMANDS[args.command](args)
        out = Path(args.out)
        given = [vars(args).get(key) for key in ("input", "labels", "network", "config")]
        inputs = {Path(path).resolve() for path in given if path}
        clash = [out / name for name in artifacts if (out / name).resolve() in inputs]
        if clash:
            raise UsageError(f"{clash[0]} is an input; choose another --out")
        out.mkdir(parents=True, exist_ok=True)
        for name, content in artifacts.items():
            _write(out / name, content)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteLoss as exc:
        print(f"error: model: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except GatewatchError as exc:
        print(f"error: data: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, MemoryError, OverflowError) as exc:  # the last two: input asks too much
        kind = ("IoFailure" if isinstance(exc, OSError)
                else "MemoryError" if isinstance(exc, MemoryError) else "OverflowError")
        print(f"error: data: {kind}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
