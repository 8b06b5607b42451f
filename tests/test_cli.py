import json
import sys
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest

from gatewatch import cc4, cli, detect, lstm, simulate
from gatewatch import series as ts
from gatewatch.errors import NonFiniteLoss
from gatewatch.forecast import ForecasterConfig, fit
from gatewatch.series import TimeSeries


# Python's limit on the digits of an int read from text; 0 where there is none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def trace_dir(tmp_path):
    out = tmp_path / "trace"
    assert run("simulate", "--scenario", "flood", "--seed", "7",
               "--out", str(out)) == 0
    return out


def series_file(tmp_path, values, name="series.json"):
    path = tmp_path / name
    path.write_text(TimeSeries.from_values(
        values, interval_seconds=3600.0).to_json(), encoding="utf-8")
    return path


def grid_series(tmp_path, **changes):
    """s.json: 200 hourly points, with `changes` written over its fields."""
    obj = TimeSeries.from_values(seasonal_values(200), interval_seconds=3600.0).to_json_obj()
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**obj, **changes}), encoding="utf-8")
    return path


def with_bom(source, target):
    """A copy of `source` that starts with a UTF-8 byte-order mark."""
    target.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    return target


def seasonal_values(n=480, seed=0):
    t = np.arange(n)
    rng = np.random.default_rng(seed)
    return (10.0 + np.sin(2 * np.pi * t / 24)
            + rng.normal(0, 0.1, n)).tolist()


# The library call each numeric flag's value meets downstream, by flag name,
# or by (command, flag name) where the command hands it to another call. A
# ValueError from it is a refusal; any other outcome takes the value.
AGREEMENT_SERIES = TimeSeries.from_values(seasonal_values(48), interval_seconds=3600.0)
AGREEMENT_WINDOWS = np.arange(20, dtype=float).reshape(10, 2) / 20
AGREEMENT_SCHEMA = cc4.SymbolSchema(encoders=(
    cc4.FieldEncoder(name="packets", kind="thermometer", bin_edges=(5.0,)),))


def _agreement_fit(**setting):
    return fit(ForecasterConfig(**setting), AGREEMENT_SERIES)


def _agreement_stream(**setting):
    network = cc4.CC4Network(radius=0, vectors=np.array([[1, 0]]), classes=["Known"])
    return cc4.stream_pipeline([], AGREEMENT_SCHEMA, network, cc4.StreamConfig(**setting))


LIBRARY_RULES = {
    "seed": np.random.default_rng,
    "interval": lambda v: TimeSeries.from_values([1.0], interval_seconds=v),
    ("stream", "interval"): lambda v: _agreement_stream(interval_seconds=v),
    "period": lambda v: _agreement_fit(variant="holt_winters", hw_period=v),
    ("inspect", "period"): lambda v: ts.diagnose(AGREEMENT_SERIES, [v]),
    "ma_window": lambda v: _agreement_fit(variant="moving_average", ma_window=v),
    "lstm_num_timesteps": lambda v: _agreement_fit(variant="lstm", lstm_units=2,
                                                   lstm_num_timesteps=v),
    "lstm_epochs": lambda v: lstm.train_chunked(AGREEMENT_WINDOWS, AGREEMENT_WINDOWS[:, 0],
                                                2, epochs=v),
    "lstm_num_chunks": lambda v: lstm.train_chunked(AGREEMENT_WINDOWS,
                                                    AGREEMENT_WINDOWS[:, 0], 2, num_chunks=v),
    "horizon": lambda v: _agreement_fit(variant="moving_average").forecast(v),
    "confidence": detect.z_score,
    ("stream", "confidence"): lambda v: _agreement_stream(confidence=v),
    "train_frac": lambda v: ts.split(AGREEMENT_SERIES, v),
    "window": lambda v: detect.mean_shift_alerts(AGREEMENT_SERIES, [1.0, 2.0], 1.96, v,
                                                 "Surge"),
    ("stream", "window"): lambda v: _agreement_stream(surge_window=v),
    "gap_threshold": lambda v: detect.detect_dropout(AGREEMENT_SERIES, v),
    ("stream", "gap_threshold"): lambda v: _agreement_stream(gap_threshold=v),
    "magnitude": lambda v: simulate.AttackScript(kind="UdpFlood", target_id="d", start=0,
                                                 end=1, magnitude=v),
    "radius": lambda v: cc4.cc4_train([([0, 1], "Known")], v),
}
AGREEMENT_TEXTS = ["-1", "0", "1", "2", "0.5", "0.97", "1e-9", "1e13", "nan", "inf", "-inf"]


def numeric_flags():
    """(command, action) for every flag of every subcommand that has a type."""
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return [(command, action) for command, sub in subparsers.choices.items()
            for action in sub._actions if action.type is not None]


class TestUsageErrors:
    def test_unknown_flag(self, tmp_path, capsys):
        assert run("ingest", "--out", str(tmp_path), "--bogus") == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_unknown_subcommand(self, tmp_path):
        assert run("frobnicate", "--out", str(tmp_path)) == 1

    def test_missing_input(self, tmp_path, capsys):
        assert run("forecast", "--out", str(tmp_path)) == 1
        assert "requires --input" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"warp_factor": 9}', encoding="utf-8")
        path = series_file(tmp_path, [1.0, 2.0, 3.0])
        assert run("inspect", "--input", str(path), "--out", str(tmp_path / "o"),
                   "--config", str(config)) == 1
        assert "warp_factor" in capsys.readouterr().err

    def test_every_config_key_is_a_flag(self, tmp_path):
        # The keys are the long flag names of every subcommand; inspect skips
        # those it lacks, and a null value supplies nothing.
        subparsers = next(a for a in cli.build_parser()._actions
                          if a.dest == "command")
        dests = {action.dest for sub in subparsers.choices.values()
                 for action in sub._actions} - {"help", "config"}
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict.fromkeys(dests)), encoding="utf-8")
        path = series_file(tmp_path, seasonal_values())
        assert run("inspect", "--input", str(path), "--out", str(tmp_path / "o"),
                   "--config", str(config)) == 0

    # Each flag's type refuses a value out of its range, from the command line
    # and from --config alike, before the run starts.
    @pytest.mark.parametrize("name, command, value, extra", [
        pytest.param(name, command, 0, [], id=f"{name}-{command}")
        for command in ("detect", "stream") for name in ("window", "gap_threshold")
    ] + [
        pytest.param(name, command, value, extra, id=f"{name}-{command}-{value}")
        for name, command, value, extra in [
            ("horizon", "forecast", 0, []),
            ("period", "forecast", 1, []),
            ("period", "detect", 1, ["--mode", "residual"]),
            ("period", "inspect", 1, []),
            ("ma_window", "forecast", 0, ["--model", "moving_average"]),
            ("train_frac", "compare", 1.5, []),
            ("train_frac", "compare", 0, []),
            ("train_frac", "detect", 1.5, []),
            ("lstm_num_chunks", "forecast", 0, ["--model", "lstm"]),
            ("lstm_num_timesteps", "forecast", 0, ["--model", "lstm"]),
            ("lstm_epochs", "forecast", 0, ["--model", "lstm"]),
            ("lstm_epochs", "forecast", -1, ["--model", "lstm"]),
            ("interval", "ingest", 0, []),
            ("interval", "ingest", -5, []),
            ("interval", "detect", 0, []),
            ("interval", "detect", -5, []),
            ("interval", "stream", 0, []),
            ("radius", "stream", -1, []),
            ("magnitude", "simulate", -3, []),
            ("seed", "simulate", -1, []),
            ("seed", "forecast", -1, ["--model", "lstm"]),
            ("models", "compare", "bogus", []),
        ]])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_window_and_gap_threshold_below_one(self, trace_dir, tmp_path, capsys,
                                                name, command, value, extra, via):
        flow = ["--input", str(trace_dir / "flow.csv")]
        inputs = {
            "ingest": flow,
            "detect": flow + ["--source-ip", "10.0.0.2"],
            "stream": ["--input", str(trace_dir / "events.jsonl"),
                       "--labels", str(trace_dir / "labels.csv")],
            "simulate": [],
        }
        series = ["--input", str(series_file(tmp_path, seasonal_values(100)))]
        argv = [command, *inputs.get(command, series), *extra,
                "--out", str(tmp_path / "o")]
        if via == "flag":
            argv += ["--" + name.replace("_", "-"), str(value)]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({name: value}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    # The command line refuses a value exactly when the library call that
    # takes it downstream does: one rule per setting. It took --magnitude inf,
    # which generate_trace alone refused, and refused --confidence 0.97 only
    # after the flags were read, with a data error.
    @pytest.mark.parametrize("command, action", [
        pytest.param(command, action, id=f"{command}-{action.dest}")
        for command, action in numeric_flags()])
    def test_a_flag_refuses_a_value_exactly_when_the_library_does(self, command, action):
        rule = LIBRARY_RULES.get((command, action.dest)) or LIBRARY_RULES[action.dest]
        kind = {"int": int, "float": float}[action.type.__name__]
        disagree = []
        for text in AGREEMENT_TEXTS:
            try:
                value = kind(text)
            except ValueError:
                continue   # argparse says "invalid int value"
            try:
                rule(value)
                library = "takes"
            except ValueError:
                library = "refuses"
            try:
                # "--flag=-inf", as "-inf" alone is read as a flag
                cli.build_parser().parse_args(
                    [command, "--out", "o", f"{action.option_strings[0]}={text}"])
                flag = "takes"
            except cli.UsageError:
                flag = "refuses"
            if flag != library:
                disagree.append(f"{action.option_strings[0]} {text}: the flag {flag} it, "
                                f"the library {library} it")
        assert disagree == []

    # An untabulated confidence is refused as the flags are read, like every
    # other value out of its range, so before any input is read (this one
    # does not exist): one usage line, with the Z table's own message.
    @pytest.mark.parametrize("command, extra", [
        ("forecast", ["--model", "lstm"]),
        ("detect", []),
        ("stream", ["--labels", "labels.csv"]),
        ("stream", ["--network", "network.json"]),
    ])
    @pytest.mark.parametrize("confidence", [0.97, 7, 0.5])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_untabulated_confidence(self, tmp_path, capsys, command, extra, confidence,
                                    via):
        argv = [command, "--input", str(tmp_path / "nope"), *extra,
                "--out", str(tmp_path / "o")]
        if via == "flag":
            argv += ["--confidence", str(confidence)]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"confidence": confidence}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: usage: argument --confidence: {float(confidence)} not tabulated; "
            f"supported: {sorted(detect.Z_TABLE)}\n")
        assert not (tmp_path / "o").exists()

    # --config values go through argparse: each bad value is one usage line
    @pytest.mark.parametrize("command, text", [
        ("inspect", '{"period": '),                          # truncated file
        ("ingest", '{"interval": "abc"}'),                   # not a number
        ("detect", '{"window": "24"}'),                      # a string for an int
        ("detect", '{"model": "bogus", "mode": "residual"}'),  # not a choice
        ("detect", '[12]'),                                  # not an object
        pytest.param("detect", '{"window": ' + "1" * (DIGIT_LIMIT + 1) + "}",
                     marks=pytest.mark.skipif(not DIGIT_LIMIT,
                                              reason="integers have no digit limit")),
    ], ids=["truncated", "interval_abc", "window_string", "bogus_model", "list",
            "past_the_digit_limit"])
    def test_bad_config_value_is_a_usage_error(self, trace_dir, tmp_path, capsys,
                                               command, text):
        config = tmp_path / "c.json"
        config.write_text(text, encoding="utf-8")
        inputs = {"ingest": trace_dir / "flow.csv",
                  "inspect": series_file(tmp_path, seasonal_values(100)),
                  "detect": series_file(tmp_path, seasonal_values(100))}
        assert run(command, "--input", str(inputs[command]),
                   "--out", str(tmp_path / "o"), "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and err.count("\n") == 1

    def test_explicit_flag_at_its_default_beats_the_config(self, tmp_path):
        path = series_file(tmp_path, seasonal_values())
        config = tmp_path / "c.json"
        config.write_text('{"window": 12}', encoding="utf-8")

        def alerts(name, *extra):
            out = tmp_path / name
            assert run("detect", "--input", str(path), "--out", str(out),
                       "--train-frac", "0.3", *extra) == 0
            return (out / "alerts.jsonl").read_text(encoding="utf-8")

        flagged = alerts("flag", "--window", "24", "--config", str(config))
        assert flagged == alerts("w24", "--window", "24")
        assert flagged != alerts("w12", "--window", "12")

    def test_config_period_list(self, tmp_path):
        # inspect's repeatable --period takes a list from the file, and a
        # --period on the command line replaces that list
        path = series_file(tmp_path, seasonal_values())
        config = tmp_path / "c.json"
        config.write_text('{"period": [12, 24]}', encoding="utf-8")

        def diagnostics(name, *extra):
            out = tmp_path / name
            assert run("inspect", "--input", str(path), "--out", str(out), *extra) == 0
            return (out / "diagnostics.json").read_text(encoding="utf-8")

        assert diagnostics("cfg", "--config", str(config)) == \
            diagnostics("flags", "--period", "12", "--period", "24")
        assert diagnostics("both", "--config", str(config), "--period", "24") == \
            diagnostics("one", "--period", "24")


class TestConfigKeys:
    """Each flag that once had no config key, given by --config instead."""

    @staticmethod
    def config(tmp_path, **keys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(keys), encoding="utf-8")
        return str(path)

    def test_models(self, tmp_path):
        path = str(series_file(tmp_path, seasonal_values()))
        assert run("compare", "--input", path, "--out", str(tmp_path / "cfg"),
                   "--config", self.config(tmp_path, models="holt_winters")) == 0
        assert run("compare", "--input", path, "--out", str(tmp_path / "flag"),
                   "--models", "holt_winters") == 0
        assert (tmp_path / "cfg" / "report.json").read_bytes() == \
            (tmp_path / "flag" / "report.json").read_bytes()

    def test_labels(self, trace_dir, tmp_path):
        events = str(trace_dir / "events.jsonl")
        labels = str(trace_dir / "labels.csv")
        assert run("stream", "--input", events, "--out", str(tmp_path / "cfg"),
                   "--config", self.config(tmp_path, labels=labels)) == 0
        assert run("stream", "--input", events, "--out", str(tmp_path / "flag"),
                   "--labels", labels) == 0
        assert (tmp_path / "cfg" / "alerts.jsonl").read_bytes() == \
            (tmp_path / "flag" / "alerts.jsonl").read_bytes()

    def test_network(self, trace_dir, tmp_path):
        events = str(trace_dir / "events.jsonl")
        assert run("stream", "--input", events, "--out", str(tmp_path / "train"),
                   "--labels", str(trace_dir / "labels.csv")) == 0
        network = str(tmp_path / "train" / "network.json")
        assert run("stream", "--input", events, "--out", str(tmp_path / "cfg"),
                   "--config", self.config(tmp_path, network=network)) == 0
        assert (tmp_path / "cfg" / "alerts.jsonl").read_bytes() == \
            (tmp_path / "train" / "alerts.jsonl").read_bytes()

    def test_strict_unknown(self, trace_dir, tmp_path):
        # a record far from every training vector classifies Unknown, which
        # only --strict-unknown, from the flag or the file, reports
        assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                   "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(tmp_path / "train")) == 0
        lines = (trace_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
        odd = {**json.loads(lines[-1]), "proto": "bluetooth", "status": "retry"}
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines + [json.dumps(odd)]) + "\n", encoding="utf-8")

        def alerts(name, *extra):
            out = tmp_path / name
            assert run("stream", "--input", str(events), "--out", str(out),
                       "--network", str(tmp_path / "train" / "network.json"),
                       *extra) == 0
            return (out / "alerts.jsonl").read_text(encoding="utf-8")

        configured = alerts("cfg", "--config", self.config(tmp_path, strict_unknown=True))
        assert configured == alerts("flag", "--strict-unknown")
        assert configured != alerts("lax")
        assert '"class": "Unknown"' in configured

    def test_input(self, tmp_path):
        path = str(series_file(tmp_path, seasonal_values()))
        assert run("inspect", "--out", str(tmp_path / "cfg"),
                   "--config", self.config(tmp_path, input=path)) == 0
        assert run("inspect", "--input", path, "--out", str(tmp_path / "flag")) == 0
        assert (tmp_path / "cfg" / "diagnostics.json").read_bytes() == \
            (tmp_path / "flag" / "diagnostics.json").read_bytes()

    def test_out(self, tmp_path):
        # --out is required on the command line, so it always wins
        path = str(series_file(tmp_path, seasonal_values()))
        assert run("inspect", "--input", path, "--out", str(tmp_path / "flag"),
                   "--config", self.config(tmp_path, out=str(tmp_path / "cfg"))) == 0
        assert (tmp_path / "flag" / "diagnostics.json").exists()
        assert not (tmp_path / "cfg").exists()


class TestDataErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        # a series JSON, a flow CSV and an events log: one line, one format.
        # The stream reads its labels first, so they exist.
        labels = tmp_path / "labels.csv"
        labels.write_text(",".join(simulate.LABEL_COLUMNS) + "\n", encoding="utf-8")
        for command, name, extra in [
                ("inspect", "nope.json", []),
                ("ingest", "nope.csv", []),
                ("detect", "nope.csv", []),
                ("stream", "nope.jsonl", ["--labels", str(labels)])]:
            path = tmp_path / name
            assert run(command, "--input", str(path), *extra,
                       "--out", str(tmp_path / "o")) == 2, command
            assert capsys.readouterr().err == \
                f"error: data: IoFailure: [Errno 2] No such file or directory: '{path}'\n"

    def test_simulate_a_flood_whose_rates_overflow(self, tmp_path, capsys):
        # a finite magnitude whose scaled rates are not: one error line, no
        # numpy overflow warning and no file
        assert run("simulate", "--scenario", "flood", "--magnitude", "1e308",
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: OverflowError: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_series_too_short(self, tmp_path, capsys):
        path = series_file(tmp_path, [1.0, 2.0, 3.0])
        assert run("forecast", "--input", str(path), "--out",
                   str(tmp_path / "o"), "--model", "holt_winters") == 2
        assert "SeriesTooShort" in capsys.readouterr().err

    def test_inspect_a_series_with_no_observed_point(self, tmp_path, capsys):
        path = series_file(tmp_path, [None] * 72)
        assert run("inspect", "--input", str(path), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: data: AllMissing: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, files, extra", [
        ("ingest", {"--input": "flow.csv"}, []),
        ("detect", {"--input": "flow.csv"}, ["--source-ip", "10.0.0.2"]),
        ("stream", {"--input": "events.jsonl", "--labels": "labels.csv"}, []),
    ])
    def test_an_interval_too_fine_to_count_is_a_data_error(self, trace_dir, tmp_path,
                                                           capsys, command, files, extra):
        # 1 µs intervals over the trace's 20 days: a count per interval asks
        # for 12.6 TiB, more than any machine's memory, so it fails at once
        paths = [arg for flag, name in files.items() for arg in (flag, str(trace_dir / name))]
        assert run(command, *paths, *extra, "--interval", "1e-6",
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: MemoryError: Unable to allocate")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    # half a µs or less rounds to no whole µs; 1e308 s has no finite µs count
    @pytest.mark.parametrize("interval", [4e-7, 1e-9, 1e-12, 1e-300, 1e308])
    @pytest.mark.parametrize("command", ["ingest", "detect", "stream"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_an_interval_of_no_whole_microsecond_is_a_usage_error(
            self, tmp_path, capsys, command, interval, via):
        argv = [command, "--input", str(tmp_path / "unread"), "--out", str(tmp_path / "o")]
        if via == "flag":
            argv += ["--interval", repr(interval)]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"interval": interval}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: usage: argument --interval: the interval of {interval!r} s "
                       "is not a finite µs count >= 1\n")
        assert not (tmp_path / "o").exists()

    # past int64 µs, the unit the grid's offsets are counted in: 1e13 s ended
    # in numpy's OverflowError, exit 2, naming no interval
    @pytest.mark.parametrize("interval", [1e13, 1e17, 9.3e12])
    @pytest.mark.parametrize("command", ["ingest", "detect", "stream"])
    def test_an_interval_past_int64_microseconds_is_a_usage_error(self, trace_dir, tmp_path,
                                                                  capsys, command, interval):
        flow = ["--input", str(trace_dir / "flow.csv")]
        inputs = {"ingest": flow, "detect": flow + ["--source-ip", "10.0.0.2"],
                  "stream": ["--input", str(trace_dir / "events.jsonl"),
                             "--labels", str(trace_dir / "labels.csv")]}
        assert run(command, *inputs[command], "--interval", repr(interval),
                   "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (f"error: usage: argument --interval: the interval "
                                           f"of {interval!r} s is past int64 µs\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["inspect", "detect"])
    @pytest.mark.parametrize("interval", [4e-7, 1e308])
    def test_a_series_whose_interval_is_no_whole_microsecond(self, tmp_path, capsys,
                                                             command, interval):
        path = grid_series(tmp_path, interval_seconds=interval)
        assert run(command, "--input", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err == ("error: data: MalformedSeries: not a series JSON: ValueError: the "
                       f"interval of {interval!r} s is not a finite µs count >= 1\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["inspect", "forecast", "detect", "compare"])
    @pytest.mark.parametrize("interval", ["NaN", "Infinity"])
    def test_a_series_whose_interval_is_not_positive_and_finite(self, tmp_path, capsys,
                                                                command, interval):
        path = grid_series(tmp_path, interval_seconds=float(interval))
        assert interval in path.read_text(encoding="utf-8")
        assert run(command, "--input", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: MalformedSeries: ") and err.count("\n") == 1
        assert "is not a positive finite number" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["inspect", "forecast", "detect", "compare"])
    @pytest.mark.parametrize("interval", [True, "3600"])
    def test_a_series_whose_interval_is_not_a_number(self, tmp_path, capsys, command,
                                                     interval):
        # true is no 1 s grid, and "3600" no 3600 s one
        path = grid_series(tmp_path, interval_seconds=interval)
        assert run(command, "--input", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: MalformedSeries: ") and err.count("\n") == 1
        assert f"interval_seconds {interval!r} is not a number" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["detect", "compare"])
    @pytest.mark.parametrize("changes, error", [
        # an interval with no finite µs count is refused as the series loads
        ({"interval_seconds": 1e308}, "MalformedSeries"),
        # the test half starts past datetime's range
        ({"start": "9999-12-31T00:00:00+00:00"}, "OverflowError")],
        ids=["interval-1e308", "year-9999"])
    def test_a_split_past_the_calendar_is_a_data_error(self, tmp_path, capsys, command,
                                                       changes, error):
        path = grid_series(tmp_path, **changes)
        assert run(command, "--input", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {error}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_a_skew_window_past_timedelta_is_a_data_error(self, trace_dir, tmp_path,
                                                          capsys):
        # 2e12 s is 2e18 µs, inside int64, but five intervals of it are not
        # (nor in timedelta's range)
        assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                   "--labels", str(trace_dir / "labels.csv"), "--interval", "2e12",
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: OverflowError: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["inspect", "forecast", "compare"])
    def test_series_commands_reject_a_flow_csv(self, trace_dir, tmp_path, capsys,
                                               command):
        assert run(command, "--input", str(trace_dir / "flow.csv"),
                   "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "gatewatch ingest" in err

    @pytest.mark.parametrize("command", ["inspect", "forecast", "compare", "detect"])
    @pytest.mark.parametrize("text", [
        '{"start": "2000-01-01T00:00:00+00:00", "interval_seconds": 3600.0, "val',
        '{"interval_seconds": 3600.0, "values": [1.0, 2.0]}',
    ], ids=["truncated", "no-start"])
    def test_malformed_series_file(self, tmp_path, capsys, command, text):
        path = tmp_path / "series.json"
        path.write_text(text, encoding="utf-8")
        assert run(command, "--input", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: data: MalformedSeries: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:3] + [["x3", *rows[3][1:]]] + rows[4:],
         "line 4: interval_index 'x3' is not an integer"),
        (lambda rows: [row[:2] for row in rows], "line 2: "),
    ], ids=["non-integer-index", "missing-column"])
    def test_stream_malformed_labels(self, trace_dir, tmp_path, capsys, edit,
                                     message):
        rows = [line.split(",") for line in
                (trace_dir / "labels.csv").read_text(encoding="utf-8").splitlines()]
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(",".join(row) + "\n" for row in edit(rows)),
                          encoding="utf-8")
        assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                   "--labels", str(labels), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: data: MalformedLabels: ") and message in err

    @pytest.mark.parametrize("line, message", [
        ('{"ts": "2021-01-01T00:00:00+00:00", "src": "a"', "line 3: not JSON"),
        ('{"src": "a", "proto": "udp"}', "line 3: event record requires nonempty ts"),
        ('{"ts": 1609459200, "src": "a"}', "line 3: event ts must be a string"),
        ('{"ts": "yesterday", "src": "a"}', "line 3: event ts 'yesterday' is not"),
        ('["2021-01-01T00:00:00+00:00", "a"]', "line 3: event record must be a JSON object"),
        ('{"ts": "2021-01-01T00:00:00+00:00", "src": ""}', "line 3: event record requires"),
        ('{"ts": "2021-01-01T00:00:00+00:00", "src": null}', "line 3: event record requires"),
    ], ids=["not-json", "no-ts", "numeric-ts", "unparseable-ts", "not-an-object", "empty-src",
            "null-src"])
    def test_stream_malformed_event_line(self, trace_dir, tmp_path, capsys,
                                         line, message):
        lines = (trace_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n",
                          encoding="utf-8")
        assert run("stream", "--input", str(events),
                   "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: SchemaMismatch: ") and message in err

    def test_stream_labels_on_empty_input(self, trace_dir, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("\n", encoding="utf-8")
        assert run("stream", "--input", str(events),
                   "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: data: EmptyTrainingSet")

    def test_stream_labels_on_only_malformed_records(self, trace_dir, tmp_path, capsys):
        # training skips what the stream counts malformed, leaving nothing
        events = tmp_path / "events.jsonl"
        events.write_text('{"ts": "2021-01-01T00:00:00+00:00", "src": "a", "proto": "udp", '
                          '"packets": 3.0, "status": ["ok"]}\n', encoding="utf-8")
        assert run("stream", "--input", str(events),
                   "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: EmptyTrainingSet") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    # a network for the simulator's 12-bit event schema, then one flaw each
    NETWORK = {"radius": 0, "vectors": ["000110000100"], "classes": ["Known"]}

    @pytest.mark.parametrize("text", [
        json.dumps(NETWORK)[:-10],
        json.dumps([NETWORK]),
        json.dumps({"radius": 0, "classes": ["Known"]}),
        json.dumps({**NETWORK, "vectors": [], "classes": []}),
        json.dumps({**NETWORK, "vectors": ["000110000100", "00011000010"],
                    "classes": ["Known", "Known"]}),
        json.dumps({**NETWORK, "vectors": ["000110000100", "000111000100"]}),
        json.dumps({**NETWORK, "vectors": ["000120000100"]}),
        json.dumps({**NETWORK, "classes": ["Benign"]}),
        json.dumps({**NETWORK, "radius": -1}),
        json.dumps({**NETWORK, "radius": True}),
    ], ids=["truncated", "list", "no-vectors", "no-rows", "ragged", "fewer-classes",
            "bit-2", "unknown-class", "negative-radius", "bool-radius"])
    def test_stream_malformed_network(self, tmp_path, capsys, text):
        events = tmp_path / "events.jsonl"
        events.write_text('{"ts": "2021-01-01T00:00:00+00:00", "src": "a", '
                          '"proto": "udp", "packets": 3.0, "status": "ok"}\n',
                          encoding="utf-8")
        network = tmp_path / "network.json"
        network.write_text(text, encoding="utf-8")
        assert run("stream", "--input", str(events), "--network", str(network),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: data: MalformedNetwork: ")

    def test_stream_checks_a_late_records_values(self, tmp_path, capsys):
        # the stream encodes every record its intake keeps, so a value that
        # is not a number stops it whether the record is on time or late
        lines = [json.dumps({"ts": (datetime(2021, 1, 1, 10, tzinfo=timezone.utc)
                                    + timedelta(minutes=k)).isoformat(),
                             "src": "a", "proto": "udp", "packets": 3.0,
                             "status": "ok"}) for k in range(12)]
        lines.append('{"ts": "2021-01-01T00:00:00+00:00", "src": "a", '
                     '"proto": "udp", "packets": "many", "status": "ok"}')
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        network = tmp_path / "network.json"
        network.write_text(json.dumps(self.NETWORK), encoding="utf-8")
        assert run("stream", "--input", str(events), "--network", str(network),
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == \
            "error: data: NonNumericValue: field 'packets' holds 'many', not a number\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="integers have no digit limit")
    def test_stream_number_past_the_digit_limit(self, tmp_path, capsys):
        digits = "1" * (DIGIT_LIMIT + 1)
        events = tmp_path / "events.jsonl"
        events.write_text('{"ts": "2021-01-01T00:00:00+00:00", "src": "a", '
                          f'"proto": "udp", "packets": {digits}, "status": "ok"}}\n',
                          encoding="utf-8")
        network = tmp_path / "network.json"
        network.write_text(json.dumps(self.NETWORK), encoding="utf-8")
        assert run("stream", "--input", str(events), "--network", str(network),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: SchemaMismatch: line 1: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("src, source", [
        ("0", "0"), ("1", "1"), ("-12", "-12"), ('"camera-1"', "camera-1"),
        ("false", None), ("true", None), ("1.5", None), ("[1]", None), ('{"a": 1}', None),
    ])
    def test_stream_source_id_rule(self, tmp_path, capsys, src, source):
        # a source is a nonempty string or an integer, taken as its decimal
        # text; any other value refuses the log, naming the line and the value
        events = tmp_path / "events.jsonl"
        events.write_text('{"ts": "2021-01-01T00:00:00+00:00", "src": ' + src +
                          ', "proto": "udp", "packets": 3.0, "status": "ok"}\n',
                          encoding="utf-8")
        network = tmp_path / "network.json"
        network.write_text(json.dumps({**self.NETWORK, "classes": ["Attack"]}),
                           encoding="utf-8")
        code = run("stream", "--input", str(events), "--network", str(network),
                   "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        if source is None:
            assert code == 2
            assert err == ("error: data: SchemaMismatch: line 1: event src must be a "
                           f"string or an integer, not {json.loads(src)!r}\n")
            assert not (tmp_path / "o").exists()
        else:
            assert (code, err) == (0, "")
            alert = json.loads((tmp_path / "o" / "alerts.jsonl").read_text(encoding="utf-8"))
            assert (alert["kind"], alert["source"]) == ("Intrusion", source)

    def test_compare_refuses_a_test_split_with_a_missing_point(self, tmp_path, capsys):
        # its scores were NaN, written as bare NaN tokens, and its ranking
        # was the input order
        values = np.sin(2 * np.pi * np.arange(200) / 24).tolist()
        values[190] = None
        path = series_file(tmp_path, values)
        assert run("compare", "--input", str(path), "--models",
                   "moving_average,holt_winters,linear_trend",
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == ("error: data: MissingValuesPresent: test "
                                           "series must not contain missing values\n")
        assert not (tmp_path / "o").exists()


class TestByteOrderMark:
    """An input that starts with a UTF-8 byte-order mark reads as one without."""

    def test_labels(self, trace_dir, tmp_path):
        marked = with_bom(trace_dir / "labels.csv", tmp_path / "labels.csv")
        for name, labels in (("plain", trace_dir / "labels.csv"), ("marked", marked)):
            assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                       "--labels", str(labels), "--out", str(tmp_path / name)) == 0
        for name in ("alerts.jsonl", "stream_counts.json", "network.json"):
            assert (tmp_path / "marked" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

    def test_series(self, tmp_path):
        plain = series_file(tmp_path, seasonal_values())
        marked = with_bom(plain, tmp_path / "marked.json")
        for name, path in (("plain", plain), ("marked", marked)):
            assert run("inspect", "--input", str(path),
                       "--out", str(tmp_path / f"{name}-out")) == 0
        assert (tmp_path / "marked-out" / "diagnostics.json").read_bytes() == \
            (tmp_path / "plain-out" / "diagnostics.json").read_bytes()

    def test_network(self, trace_dir, tmp_path):
        events = str(trace_dir / "events.jsonl")
        assert run("stream", "--input", events, "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(tmp_path / "train")) == 0
        marked = with_bom(tmp_path / "train" / "network.json", tmp_path / "network.json")
        assert run("stream", "--input", events, "--network", str(marked),
                   "--out", str(tmp_path / "marked")) == 0
        for name in ("alerts.jsonl", "network.json"):
            assert (tmp_path / "marked" / name).read_bytes() == \
                (tmp_path / "train" / name).read_bytes()

    def test_config(self, tmp_path):
        path = str(series_file(tmp_path, seasonal_values()))
        config = tmp_path / "c.json"
        config.write_bytes(b"\xef\xbb\xbf" + b'{"period": [12]}')
        assert run("inspect", "--input", path, "--out", str(tmp_path / "cfg"),
                   "--config", str(config)) == 0
        assert run("inspect", "--input", path, "--out", str(tmp_path / "flag"),
                   "--period", "12") == 0
        assert (tmp_path / "cfg" / "diagnostics.json").read_bytes() == \
            (tmp_path / "flag" / "diagnostics.json").read_bytes()


class TestArtifacts:
    """Commands return their artifacts; main alone writes them under --out."""

    ARTIFACTS = {
        "ingest": {"series.json", "ingest_report.json"},
        "inspect": {"diagnostics.json"},
        "forecast": {"forecast.json", "model.json", "forecast.csv"},
        "compare": {"report.json", "report.txt"},
        "detect": {"alerts.jsonl"},
        "stream": {"alerts.jsonl", "stream_counts.json", "network.json"},
        "simulate": {"flow.csv", "events.jsonl", "labels.csv"},
    }

    @pytest.mark.parametrize("command", ARTIFACTS)
    def test_commands_return_artifacts_and_write_nothing(self, trace_dir, tmp_path,
                                                         command):
        inputs = {"ingest": ["--input", str(trace_dir / "flow.csv")],
                  "stream": ["--input", str(trace_dir / "events.jsonl"),
                             "--labels", str(trace_dir / "labels.csv")],
                  "simulate": []}
        series = ["--input", str(series_file(tmp_path, seasonal_values()))]
        out = tmp_path / "o"
        args = cli.build_parser().parse_args(
            [command, *inputs.get(command, series), "--out", str(out)])
        assert set(cli.COMMANDS[command](args)) == self.ARTIFACTS[command]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--network", "--input"])
    def test_an_artifact_that_is_an_input_refuses_the_run(self, trace_dir, tmp_path,
                                                          capsys, flag):
        # The run stops before anything is written: the input keeps its
        # bytes (a compact network file is not rewritten indented) and no
        # other artifact appears beside it.
        d = tmp_path / "d"
        d.mkdir()
        events = str(trace_dir / "events.jsonl")
        if flag == "--network":
            assert run("stream", "--input", events, "--labels",
                       str(trace_dir / "labels.csv"), "--out", str(tmp_path / "t")) == 0
            target = d / "network.json"
            target.write_text(json.dumps(json.loads(
                (tmp_path / "t" / "network.json").read_text(encoding="utf-8"))),
                encoding="utf-8")
            argv = ["--input", events, "--network", str(target)]
        else:
            target = d / "alerts.jsonl"
            target.write_bytes((trace_dir / "events.jsonl").read_bytes())
            argv = ["--input", str(target), "--labels", str(trace_dir / "labels.csv")]
        before = target.read_bytes()
        assert run("stream", *argv, "--out", str(d)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ") and err.count("\n") == 1
        assert str(target) in err
        assert target.read_bytes() == before
        assert [path.name for path in d.iterdir()] == [target.name]

    def test_simulate_refuses_to_overwrite_its_config(self, tmp_path, capsys):
        d = tmp_path / "d"
        d.mkdir()
        config = d / "labels.csv"
        config.write_text('{"seed": 7}', encoding="utf-8")
        assert run("simulate", "--out", str(d), "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err == f"error: usage: {config} is an input; choose another --out\n"
        assert config.read_text(encoding="utf-8") == '{"seed": 7}'
        assert [path.name for path in d.iterdir()] == [config.name]

    def test_simulate_takes_no_input(self, tmp_path, capsys):
        assert run("simulate", "--input", "x", "--out", str(tmp_path / "d")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ") and err.count("\n") == 1
        assert "--input" in err
        assert not (tmp_path / "d").exists()

    def test_simulate_skips_an_input_key_in_its_config(self, trace_dir, tmp_path):
        # the key names one of the run's own artifacts, and still no clash
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 7, "input": str(tmp_path / "d" / "flow.csv")}),
                          encoding="utf-8")
        assert run("simulate", "--config", str(config), "--out", str(tmp_path / "d")) == 0
        for name in self.ARTIFACTS["simulate"]:
            assert (tmp_path / "d" / name).read_bytes() == (trace_dir / name).read_bytes()


class TestSimulateAndIngest:
    def test_simulate_writes_trace(self, trace_dir):
        assert (trace_dir / "flow.csv").exists()
        assert (trace_dir / "events.jsonl").exists()
        assert (trace_dir / "labels.csv").exists()

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--scenario", "sybil", "--seed", "3",
                   "--out", str(a)) == 0
        assert run("simulate", "--scenario", "sybil", "--seed", "3",
                   "--out", str(b)) == 0
        for name in ("flow.csv", "events.jsonl", "labels.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_ingest_round_trip(self, trace_dir, tmp_path):
        out = tmp_path / "ingested"
        assert run("ingest", "--input", str(trace_dir / "flow.csv"),
                   "--out", str(out)) == 0
        obj = json.loads((out / "series.json").read_text(encoding="utf-8"))
        assert len(obj["values"]) == 480
        report = json.loads((out / "ingest_report.json").read_text(
            encoding="utf-8"))
        assert report["rows_read"] > 0

    # Rows at 01:00 and 04:00 have no value, and 10.0.0.2 reports from 03:00:
    # the report's range is that of the series written, the first and last
    # kept record, while rows_read stays the file's count. The range was
    # every parsed row's, 01:00-05:00 for each.
    @pytest.mark.parametrize("source, kept, points, missing", [
        (None, ("02:00", "05:00"), 4, 2),
        ("10.0.0.1", ("02:00", "03:00"), 2, 2),
        ("10.0.0.2", ("03:00", "05:00"), 3, 0)])
    def test_the_ingest_report_spans_the_series_written(self, tmp_path, source, kept,
                                                        points, missing):
        rows = [("1", "01", ""), ("1", "02", "1.0"), ("2", "03", "2.0"), ("1", "03", "3.0"),
                ("2", "05", "4.0"), ("1", "04", "abc")]
        flow = tmp_path / "flow.csv"
        flow.write_text("Flow ID,Timestamp,Fwd Pkt Len Mean\n" + "".join(
            f"10.0.0.{ip}-10.0.0.254-1000-53-17,01/02/2021 {hour}:00:00 AM,{value}\n"
            for ip, hour, value in rows), encoding="utf-8")
        out = tmp_path / "o"
        flags = ["--source-ip", source] if source else []
        assert run("ingest", "--input", str(flow), "--out", str(out), *flags) == 0
        series = json.loads((out / "series.json").read_text(encoding="utf-8"))
        report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
        first, last = (f"2021-02-01T{hour}:00+00:00" for hour in kept)
        assert (series["start"], len(series["values"])) == (first, points)
        assert report == {"rows_read": 6, "rows_dropped_missing": missing,
                          "rows_dropped_duplicate": 0, "series_start": first,
                          "series_end": last}

    def test_ingest_source_ip_filter(self, trace_dir, tmp_path):
        out = tmp_path / "one-device"
        assert run("ingest", "--input", str(trace_dir / "flow.csv"),
                   "--out", str(out), "--source-ip", "10.0.0.2",
                   "--aggregator", "sum") == 0
        obj = json.loads((out / "series.json").read_text(encoding="utf-8"))
        assert len(obj["values"]) == 480


class TestInspectForecastCompare:
    def test_inspect(self, tmp_path):
        path = series_file(tmp_path, seasonal_values())
        out = tmp_path / "diag"
        assert run("inspect", "--input", str(path), "--out", str(out),
                   "--period", "24") == 0
        obj = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        assert obj["seasonal"] is True
        assert obj["dominant_period"] == 24

    def test_forecast_outputs(self, tmp_path):
        path = series_file(tmp_path, seasonal_values())
        out = tmp_path / "fc"
        assert run("forecast", "--input", str(path), "--out", str(out),
                   "--model", "holt_winters", "--period", "24",
                   "--horizon", "12") == 0
        obj = json.loads((out / "forecast.json").read_text(encoding="utf-8"))
        assert len(obj["forecasts"]) == 12
        assert (out / "model.json").exists()
        header = (out / "forecast.csv").read_text(
            encoding="utf-8").splitlines()[0]
        assert header == "t,actual,predicted,lower,upper"

    def test_forecast_runs_are_byte_identical(self, tmp_path):
        path = series_file(tmp_path, seasonal_values(300, seed=2))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("forecast", "--input", str(path), "--out", str(out),
                       "--model", "lstm", "--lstm-num-timesteps", "24",
                       "--seed", "11") == 0
            outs.append(out)
        for fname in ("forecast.json", "model.json", "forecast.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_forecast_non_finite_loss_is_a_model_error(self, tmp_path, capsys,
                                                        monkeypatch):
        def diverge(*args, **kwargs):
            raise NonFiniteLoss("loss diverged to nan")

        monkeypatch.setattr(lstm, "train_chunked", diverge)
        path = series_file(tmp_path, seasonal_values(100))
        assert run("forecast", "--input", str(path), "--out", str(tmp_path / "o"),
                   "--model", "lstm", "--lstm-num-timesteps", "24") == 3
        assert capsys.readouterr().err == \
            "error: model: NonFiniteLoss: loss diverged to nan\n"
        assert not (tmp_path / "o").exists()

    def test_compare(self, tmp_path):
        path = series_file(tmp_path, seasonal_values())
        out = tmp_path / "cmp"
        assert run("compare", "--input", str(path), "--out", str(out),
                   "--models", "moving_average,holt_winters",
                   "--train-frac", "0.8") == 0
        obj = json.loads((out / "report.json").read_text(encoding="utf-8"))
        names = {r["name"] for r in obj["rows"]}
        assert "persistence" in names
        assert "holt_winters(m=24)" in names
        assert obj["ranking"][0] == "holt_winters(m=24)"
        assert "ranking:" in (out / "report.txt").read_text(encoding="utf-8")

    def test_compare_refuses_a_training_split_with_a_missing_point(self, tmp_path,
                                                                   capsys):
        # as forecast does on the same file; compare once wrote a report with
        # no score for any model, the persistence baseline included
        values = seasonal_values(100)
        values[10] = float("nan")
        path = series_file(tmp_path, values)
        for command in ("forecast", "compare"):
            assert run(command, "--input", str(path), "--out", str(tmp_path / command)) == 2
            assert capsys.readouterr().err == ("error: data: MissingValuesPresent: "
                                               "training series must not contain "
                                               "missing values\n")
            assert not (tmp_path / command).exists()

    def test_config_file_fills_defaults_flags_win(self, tmp_path):
        path = series_file(tmp_path, seasonal_values())
        config = tmp_path / "c.json"
        config.write_text('{"horizon": 5, "model": "moving_average"}',
                          encoding="utf-8")
        out = tmp_path / "cfg"
        assert run("forecast", "--input", str(path), "--out", str(out),
                   "--config", str(config), "--model", "linear_trend") == 0
        obj = json.loads((out / "forecast.json").read_text(encoding="utf-8"))
        assert len(obj["forecasts"]) == 5          # filled from file
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert model["variant"] == "linear_trend"  # flag beats file


class TestDetectAndStream:
    def test_detect_flags_flood(self, trace_dir, tmp_path):
        ingested = tmp_path / "ing"
        assert run("ingest", "--input", str(trace_dir / "flow.csv"),
                   "--out", str(ingested), "--source-ip", "10.0.0.2",
                   "--aggregator", "sum") == 0
        out = tmp_path / "det"
        assert run("detect", "--input", str(ingested / "series.json"),
                   "--out", str(out), "--model", "holt_winters",
                   "--period", "24", "--train-frac", "0.5",
                   "--confidence", "0.95") == 0
        alerts = [json.loads(line) for line in
                  (out / "alerts.jsonl").read_text(encoding="utf-8").splitlines()]
        assert any(a["kind"] == "Surge" for a in alerts)
        stamps = [a["ts"] for a in alerts]
        assert stamps == sorted(stamps)

    def test_detect_mean_shift_fits_no_model(self, tmp_path):
        # 30 points are too few for a Holt-Winters fit (2 x 24), but the
        # mean-shift band needs only the training points.
        path = series_file(tmp_path, seasonal_values(30))
        assert run("detect", "--input", str(path), "--out", str(tmp_path / "o"),
                   "--window", "5") == 0
        assert (tmp_path / "o" / "alerts.jsonl").exists()

    def test_detect_mean_shift_band_takes_the_observed_points(self, tmp_path):
        # gaps in the training split are left out of the band, not imputed
        # into it: the alerts are the mean-shift core's on the unimputed split
        t = np.arange(96)
        values = (20.0 + 10 * np.sin(2 * np.pi * t / 24)).tolist()
        for k in (10, 11, 30):
            values[k] = float("nan")
        path = series_file(tmp_path, values)
        assert run("detect", "--input", str(path), "--out", str(tmp_path / "o"),
                   "--train-frac", "0.5", "--window", "4") == 0
        data = TimeSeries.from_values(values, interval_seconds=3600.0)
        train, test = ts.split(data, 0.5)
        want = detect.merge_alerts(
            detect.mean_shift_alerts(test, train.clean_values(),
                                     detect.z_score(0.95), 4, "Surge", ""),
            detect.detect_dropout(data, 3, source=""))
        assert (tmp_path / "o" / "alerts.jsonl").read_text(encoding="utf-8") == \
            detect.alert_lines(want)

    def test_detect_residual_rejects_unimputable_training_gap(self, tmp_path,
                                                              capsys):
        values = seasonal_values()
        values[100:105] = [None] * 5
        path = series_file(tmp_path, values)
        assert run("detect", "--input", str(path), "--out", str(tmp_path / "o"),
                   "--mode", "residual") == 2
        assert "MissingValuesPresent" in capsys.readouterr().err

    def test_detect_residual_moving_average_flags_a_spike_on_a_ramp(self, tmp_path):
        # The residuals of a moving average on a ramp are all but constant; a
        # NaN sigma would blind residual mode, and the bias in sigma must not
        # hide the spike.
        values = 0.1 * 399 * np.arange(120) + 3.7
        values[100] += 5000.0
        path = series_file(tmp_path, values.tolist())
        out = tmp_path / "o"
        assert run("detect", "--input", str(path), "--out", str(out),
                   "--mode", "residual", "--model", "moving_average") == 0
        alerts = [json.loads(line) for line in
                  (out / "alerts.jsonl").read_text(encoding="utf-8").splitlines()]
        spike = TimeSeries.from_values(values, interval_seconds=3600.0).timestamp_at(100)
        assert spike.isoformat() in {a["ts"] for a in alerts if a["kind"] == "Surge"}

    def test_detect_mean_shift_refuses_a_window_longer_than_the_scored_part(
            self, tmp_path, capsys):
        # The seed-42 flood's camera-1 scores 240 points: a window of 240
        # scores one, and one of 241 used to score none and exit 0, silently.
        trace = tmp_path / "trace"
        assert run("simulate", "--scenario", "flood", "--seed", "42",
                   "--out", str(trace)) == 0
        argv = ["detect", "--input", str(trace / "flow.csv"), "--source-ip", "10.0.0.2",
                "--mode", "mean_shift", "--window"]
        assert run(*argv, "240", "--out", str(tmp_path / "o")) == 0
        assert run(*argv, "241", "--out", str(tmp_path / "refused")) == 2
        assert capsys.readouterr().err == ("error: data: SeriesTooShort: window 241 "
                                           "is longer than the 240 points it scores\n")
        assert not (tmp_path / "refused").exists()

    def test_detect_mean_shift_needs_an_observed_training_point(self, tmp_path,
                                                                capsys):
        path = series_file(tmp_path, [None] * 10 + [1.0] * 10)
        assert run("detect", "--input", str(path), "--out", str(tmp_path / "o"),
                   "--window", "2") == 2
        assert "AllMissing" in capsys.readouterr().err

    def test_stream_from_labels(self, trace_dir, tmp_path):
        out = tmp_path / "stream"
        assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                   "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(out), "--radius", "0") == 0
        counts = json.loads((out / "stream_counts.json").read_text(
            encoding="utf-8"))
        assert counts["records_in"] == (counts["emitted_classifications"]
                                        + counts["dropped_malformed"]
                                        + counts["dropped_late"])
        alerts = [json.loads(line) for line in
                  (out / "alerts.jsonl").read_text(encoding="utf-8").splitlines()]
        assert any(a["kind"] == "Intrusion" for a in alerts)
        assert (out / "network.json").exists()

    def test_stream_labels_takes_each_record_in_once(self, trace_dir, tmp_path):
        # training reads the stream's own intake: one intake_key call per
        # record, a late copy and a duplicate included
        lines = (trace_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
        lines += [lines[0], lines[-1]]
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch.object(cc4, "intake_key", wraps=cc4.intake_key) as key:
            assert run("stream", "--input", str(events),
                       "--labels", str(trace_dir / "labels.csv"),
                       "--out", str(tmp_path / "o")) == 0
        assert key.call_count == len(lines)
        counts = json.loads((tmp_path / "o" / "stream_counts.json").read_text(
            encoding="utf-8"))
        assert (counts["dropped_late"], counts["dropped_duplicate"]) == (1, 1)

    def test_stream_requires_network_or_labels(self, trace_dir, tmp_path,
                                               capsys):
        assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                   "--out", str(tmp_path / "o")) == 1
        assert "--network or --labels" in capsys.readouterr().err

    def test_stream_checks_its_flags_before_reading_the_log(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("not json\n", encoding="utf-8")
        assert run("stream", "--input", str(events), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == \
            "error: usage: stream requires --network or --labels\n"

    def test_stream_with_saved_network(self, trace_dir, tmp_path):
        first = tmp_path / "first"
        assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                   "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(first), "--radius", "0") == 0
        second = tmp_path / "second"
        assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                   "--network", str(first / "network.json"),
                   "--out", str(second), "--radius", "0") == 0
        assert (first / "alerts.jsonl").read_bytes() == \
            (second / "alerts.jsonl").read_bytes()

    def test_stream_mismatched_record(self, trace_dir, tmp_path, capsys):
        # A record whose field set does not match the schema fails training
        # with a data error, and is counted malformed by a trained network.
        events = tmp_path / "events.jsonl"
        lines = (trace_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        del record["status"]
        events.write_text("\n".join(lines + [json.dumps(record)]) + "\n",
                          encoding="utf-8")
        assert run("stream", "--input", str(events),
                   "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(tmp_path / "trained")) == 2
        assert "SchemaMismatch" in capsys.readouterr().err
        first = tmp_path / "first"
        assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                   "--labels", str(trace_dir / "labels.csv"),
                   "--out", str(first)) == 0
        out = tmp_path / "saved"
        assert run("stream", "--input", str(events),
                   "--network", str(first / "network.json"),
                   "--out", str(out)) == 0
        counts = json.loads((out / "stream_counts.json").read_text(encoding="utf-8"))
        assert counts["dropped_malformed"] == 1
        assert counts["dropped_duplicate"] == 0

    def test_stream_counts_list_and_object_fields_malformed(self, trace_dir, tmp_path):
        # Fields holding a JSON list or object are dropped as malformed, even
        # one stamped a day ahead: it moves no skew window, so every other
        # record streams as it does without them.
        lines = (trace_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
        listed = json.loads(lines[-1])
        listed["status"] = ["ok"]
        ahead = json.loads(lines[len(lines) // 2])
        ahead["proto"] = {"name": "udp"}
        ahead["ts"] = (datetime.fromisoformat(ahead["ts"]) + timedelta(days=1)).isoformat()
        events = tmp_path / "events.jsonl"
        mixed = lines[:len(lines) // 2] + [json.dumps(ahead)] + lines[len(lines) // 2:]
        events.write_text("\n".join(mixed + [json.dumps(listed)]) + "\n", encoding="utf-8")
        outs = {}
        for name, path in (("clean", trace_dir / "events.jsonl"), ("odd", events)):
            outs[name] = tmp_path / name
            assert run("stream", "--input", str(path),
                       "--labels", str(trace_dir / "labels.csv"),
                       "--out", str(outs[name])) == 0
        clean, odd = (json.loads((out / "stream_counts.json").read_text(encoding="utf-8"))
                      for out in outs.values())
        assert odd["records_in"] == clean["records_in"] + 2
        assert odd["dropped_malformed"] == clean["dropped_malformed"] + 2
        for name in ("emitted_classifications", "dropped_duplicate", "dropped_late"):
            assert odd[name] == clean[name], name
        for name in ("alerts.jsonl", "network.json"):
            assert (outs["odd"] / name).read_bytes() == (outs["clean"] / name).read_bytes()

    @pytest.mark.parametrize("fields", [{"proto": "udp"},
                                        {"proto": "udp", "packets": 3.0, "status": "ok"}],
                             ids=["malformed", "matching"])
    def test_stream_network_of_the_wrong_width(self, tmp_path, capsys, fields):
        # a valid 3-bit network against the 12-bit event schema, whether or
        # not a record reaches the classifier
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"ts": "2021-01-01T00:00:00+00:00", "src": "a",
                                      **fields}) + "\n", encoding="utf-8")
        network = tmp_path / "network.json"
        network.write_text(json.dumps({"radius": 0, "vectors": ["010"],
                                       "classes": ["Known"]}), encoding="utf-8")
        assert run("stream", "--input", str(events), "--network", str(network),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data: WidthMismatch: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["many", None])
    @pytest.mark.parametrize("path", ["labels", "network"])
    def test_stream_rejects_non_numeric_thermometer_value(self, trace_dir, tmp_path,
                                                          capsys, value, path):
        # A packets value that is not a number stops the stream with a data
        # error naming the field and the value, when training on the labels
        # and when classifying with a given network.
        lines = (trace_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
        odd = json.loads(lines[-1])
        odd["packets"] = value
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines + [json.dumps(odd)]) + "\n", encoding="utf-8")
        if path == "labels":
            model = ("--labels", str(trace_dir / "labels.csv"))
        else:
            assert run("stream", "--input", str(trace_dir / "events.jsonl"),
                       "--labels", str(trace_dir / "labels.csv"),
                       "--out", str(tmp_path / "trained")) == 0
            model = ("--network", str(tmp_path / "trained" / "network.json"))
        capsys.readouterr()
        assert run("stream", "--input", str(events), *model,
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: data: NonNumericValue: ")
        assert "'packets'" in err and repr(value) in err

    def test_stream_stamps_share_one_clock(self, trace_dir, tmp_path):
        # A stamp without an offset is UTC and any offset is taken to UTC, so
        # naive, +05:00 and mixed copies of a log give the UTC log's alerts.
        # One device goes quiet for a stretch, so Intrusion and Dropout
        # alerts are merged on one clock.
        lines = (trace_dir / "events.jsonl").read_text(encoding="utf-8").splitlines()
        quiet = json.loads(lines[0])["src"]
        lines = [line for k, line in enumerate(lines)
                 if not (len(lines) // 3 < k < len(lines) // 2
                         and json.loads(line)["src"] == quiet)]
        plus5 = timezone(timedelta(hours=5))
        variants = {
            "utc": lambda k, t: t,
            "naive": lambda k, t: t.replace(tzinfo=None),
            "plus5": lambda k, t: t.astimezone(plus5),
            "mixed": lambda k, t: t.replace(tzinfo=None) if k % 2 else t.astimezone(plus5),
        }
        alerts = {}
        for name, restamp in variants.items():
            objs = [json.loads(line) for line in lines]
            for k, obj in enumerate(objs):
                obj["ts"] = restamp(k, datetime.fromisoformat(obj["ts"])).isoformat()
            events = tmp_path / f"{name}.jsonl"
            events.write_text("".join(json.dumps(obj) + "\n" for obj in objs),
                              encoding="utf-8")
            assert run("stream", "--input", str(events),
                       "--labels", str(trace_dir / "labels.csv"),
                       "--out", str(tmp_path / name)) == 0
            alerts[name] = (tmp_path / name / "alerts.jsonl").read_text(encoding="utf-8")
        kinds = {json.loads(line)["kind"] for line in alerts["utc"].splitlines()}
        assert {"Intrusion", "Dropout"} <= kinds
        assert alerts["naive"] == alerts["plus5"] == alerts["mixed"] == alerts["utc"]
