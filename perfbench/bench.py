"""Measurement loop of the gatewatch benchmark.

One run = one workload at one seed. Set-up (input generation and file writes)
runs SETUPS times, each in a fresh interpreter so its imports count too: once
before the job, the others spread between job iterations over the run, so
that `setup_s` samples the same stretch of the machine's time as `job_s`.
The job runs as a closed loop with one caller, single-threaded, each
iteration starting when the previous one ended, until the run's seconds of
job time are used up. Every iteration's outputs are checked and their sha256
compared with the first iteration's.

With tracing on, untraced and traced iterations alternate: the traced ones
give the per-layer self times, the difference between the two gives the
tracing overhead, and the digest comparison covers traced against untraced
outputs. No layer has a queue, so the time work waits for a layer is zero
everywhere and is not reported per layer.
"""
from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import env
from spans import LAYERS, Tracer
from workloads import JOBS, Spec, sha256_files

HERE = Path(__file__).resolve().parent
SETUPS = 5
SETUP_TIMEOUT_S = 150
SCORING = -1   # span iteration id of the post-run scoring

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}

# Self time per traced iteration, by the span it is read from.
SELF_TIME = {
    "cc4.symbolize_s": "cc4.symbolize",
    "cc4.classify_s": "cc4.cc4_classify",
    "cc4.train_s": "cc4.cc4_train",
    "cc4.read_events_s": "cc4.read_events_jsonl",
    "cc4.pipeline_self_s": "cc4.stream_pipeline",
    "detect.detect_surges_s": "detect.detect_surges",
    "detect.detect_dropout_s": "detect.detect_dropout",
    "detect.merge_alerts_s": "detect.merge_alerts",
    "detect.write_alerts_s": "detect.write_alerts_jsonl",
    "series.split_s": "series.split",
    "series.impute_short_gaps_s": "series.impute_short_gaps",
    "forecast.fit_s.moving_average": "forecast.fit.moving_average",
    "forecast.fit_s.holt_winters": "forecast.fit.holt_winters",
    "forecast.one_step_on_s": "forecast.one_step_on",
    "ingest.parse_flow_csv_s": "ingest.parse_flow_csv",
    "ingest.clean_s": "ingest.clean",
    "ingest.to_series_s": "ingest.to_series",
    "lstm.forward_s": "lstm.forward",
    "lstm.backward_s": "lstm.backward",
    "lstm.train_chunked_s": "lstm.train_chunked",
    "lstm.predict_s": "lstm.predict",
    "evaluate.compare_models_self_s": "evaluate.compare_models",
    "bench.job_self_s": "bench.job",
}
CALLS = {
    "cc4.symbolize_calls": "cc4.symbolize",
    "cc4.classify_calls": "cc4.cc4_classify",
    "detect.detect_surges_calls": "detect.detect_surges",
    "detect.detect_dropout_calls": "detect.detect_dropout",
    "lstm.forward_calls": "lstm.forward",
}
# Counts the job reports from its own outputs.
JOB_COUNTS = ("cc4.dropped_duplicate", "cc4.dropped_late", "cc4.emitted",
              "ingest.rows_read")
SETUP_TIME = {"simulate.generate_trace_s": "simulate.generate_trace",
              "simulate.write_trace_s": "simulate.write_trace"}


def _per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SELF_TIME}
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in JOB_COUNTS})
    units.update({name: "s" for name in SETUP_TIME})
    units.update({"simulate.score_detections_s": "s",
                  "cc4.symbolize_per_record": "calls/record",
                  "cc4.rate_sources": "count", "forecast.fit_calls": "count",
                  "trace.overhead_s": "s"})
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    return units


PER_LAYER = _per_layer_units()


class SetupError(RuntimeError):
    pass


@dataclass
class Iteration:
    seconds: float
    traced: bool
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    latency_s: list[float] = field(default_factory=list)   # per unit of work


def versions() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "openblas_threads": _openblas_threads(),
            "nproc": len(os.sched_getaffinity(0))}


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, when numpy bundles one."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


class SetUp:
    """The set-ups of one run, each in a fresh interpreter; every one must
    write the same inputs."""

    def __init__(self, spec: Spec, seed: int, trace: bool, workdir: Path, inputs: Path):
        self.request = workdir / "setup_request.json"
        self.reference = workdir / "reference.json"
        self.request.write_text(
            json.dumps({"spec": asdict(spec), "seed": seed, "trace": trace,
                        "inputs": str(inputs), "reference": str(self.reference)}),
            encoding="utf-8")
        self.times: list[float] = []
        self.refs: list[dict] = []

    def run(self) -> float:
        """One set-up; returns its wall time."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "make_inputs.py"), str(self.request)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        ref = json.loads(self.reference.read_text(encoding="utf-8"))
        if self.refs and ref["inputs_sha256"] != self.refs[0]["inputs_sha256"]:
            raise SetupError("one seed generated different inputs")
        self.times.append(seconds)
        self.refs.append(ref)
        return seconds


def measure(job, seconds: float, tracer: Tracer | None,
            setup: SetUp) -> tuple[list[Iteration], object]:
    iterations: list[Iteration] = []
    result = None
    reference_digest = None
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(iterations) < (2 if tracer is not None else 1)):
        # The next set-up is due once its share of the job time has passed;
        # set-up time is not job time, so the deadline moves by it.
        job_elapsed = seconds - (deadline - time.perf_counter())
        if len(setup.times) < min(SETUPS, 1 + SETUPS * job_elapsed / seconds):
            deadline += setup.run()
        traced = tracer is not None and len(iterations) % 2 == 1
        gc.collect()
        it = Iteration(seconds=0.0, traced=traced)
        session = tracer.session(len(iterations), "bench.job") if traced else nullcontext()
        t0 = time.perf_counter()
        try:
            with session:
                result = job.run()
            it.seconds = time.perf_counter() - t0
            it.problems = job.check(result)
            it.latency_s = job.latency_samples(result)
        except Exception:  # an iteration that raises is a failed iteration
            it.seconds = time.perf_counter() - t0
            traceback.print_exc()
            it.problems = [traceback.format_exc(limit=1).strip().splitlines()[-1]]
            result = None
        if not it.problems:
            it.digest = sha256_files(job.artifacts())
            reference_digest = reference_digest or it.digest
            if it.digest != reference_digest:
                it.problems = ["artifact digest differs from the first iteration's"]
        for problem in it.problems:
            print(f"check failed (iteration {len(iterations)}): {problem}", file=sys.stderr)
        iterations.append(it)
    while len(setup.times) < SETUPS:
        setup.run()
    return iterations, result


def layer_metrics(tracer: Tracer, iterations: list[Iteration], job_counts: dict,
                  setup_refs: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced iterations, set-up times
    as medians over the set-ups, counts of errors over the whole run."""
    per_iteration = tracer.self_times()
    rate_sources = tracer.nested_calls("cc4.stream_pipeline", "detect.detect_dropout")
    rows = []
    for i, it in enumerate(iterations):
        if not it.traced:
            continue
        spans = per_iteration.get(i, {})
        row = {metric: spans.get(name, (0.0, 0))[0] for metric, name in SELF_TIME.items()}
        row.update({metric: spans.get(name, (0.0, 0))[1] for metric, name in CALLS.items()})
        row["forecast.fit_calls"] = sum(c for name, (_, c) in spans.items()
                                        if name.startswith("forecast.fit."))
        for layer in LAYERS:
            row[f"{layer}.self_s"] = sum(s for name, (s, _) in spans.items()
                                         if name.startswith(layer + "."))
        row["cc4.rate_sources"] = rate_sources.get(i, 0)
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics.update({name: job_counts.get(name, 0) for name in JOB_COUNTS})
    records = job_counts.get("cc4.records_in", 0)
    metrics["cc4.symbolize_per_record"] = (metrics["cc4.symbolize_calls"] / records
                                           if records else 0.0)
    for metric, name in SETUP_TIME.items():
        metrics[metric] = statistics.median(ref.get("setup_self_s", {}).get(name, 0.0)
                                            for ref in setup_refs)
    scoring = per_iteration.get(SCORING, {})
    metrics["simulate.score_detections_s"] = scoring.get("simulate.score_detections",
                                                         (0.0, 0))[0]
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors[layer]
    metrics["trace.overhead_s"] = (
        statistics.median(it.seconds for it in iterations if it.traced)
        - statistics.median(it.seconds for it in iterations if not it.traced))
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of sync: {set(metrics) ^ set(PER_LAYER)}")
    return metrics


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool,
                 workdir: Path | None = None) -> dict:
    """Set up, measure and check one workload. Returns the result line
    (correct, attempted, failed, metrics) plus what is printed above it."""
    workdir = workdir or env.WORK / f"{spec.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs, out = workdir / "inputs", workdir / "out"
    setup = SetUp(spec, seed, trace, workdir, inputs)
    setup.run()
    job = JOBS[spec.kind](spec, seed, setup.refs[0], inputs, out)
    tracer = Tracer() if trace else None

    iterations, result = measure(job, seconds, tracer, setup)
    setup_times = setup.times
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(1 for it in iterations if it.problems)
    summary: dict = {}
    job_counts: dict = {}
    if not iterations[-1].problems:
        try:
            with tracer.session(SCORING, "bench.score") if trace else nullcontext():
                summary = job.quality(result)
            job_counts = job.layer_counts(result)
        except Exception:  # scoring that raises means an output was wrong
            traceback.print_exc()
            failed = len(iterations)

    untraced = [it.seconds for it in iterations if not it.traced]
    job_s = statistics.median(untraced)
    e2e = {"setup_s": statistics.median(setup_times), "job_s": job_s,
           "peak_rss_mb": peak_rss_mb}
    if trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in layer_metrics(tracer, iterations, job_counts, setup.refs).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in e2e.items()}

    named = {"setup_s": (e2e["setup_s"], "s"), "job_s": (job_s, "s")}
    if spec.kind == "compare":
        named["compare_s"] = (job_s, "s")
    else:
        named[f"{job.item_name}_per_s"] = (job.items / job_s, "1/s")
    latency_ms = [s * 1e3 for it in iterations if not it.traced for s in it.latency_s]
    if latency_ms:
        name = f"{job.unit_name}_ms"
        named[f"{name}_p50"] = (float(np.percentile(latency_ms, 50)), "ms")
        named[f"{name}_p95"] = (float(np.percentile(latency_ms, 95)), "ms")
        named[f"{name}_samples"] = (len(latency_ms), "count")
    named.update({name: (value, "ratio") for name, value in summary.items()})
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    named["failed_share"] = (failed / len(iterations), "ratio")

    digest = next((it.digest for it in iterations if it.digest), None)
    line = {"correct": failed == 0, "attempted": len(iterations), "failed": failed,
            "metrics": metrics}
    record = {"workload": spec.name, "seed": seed, "seconds": seconds, "trace": trace,
              "size": spec.size(), "env": versions(), "setup_s_samples": setup_times,
              "iterations": [asdict(it) for it in iterations],
              "named": {k: v for k, (v, _) in named.items()},
              "artifact_sha256": digest, "result": line}
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(workdir / "spans.npz")
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)

    env_info = " ".join(f"{k}={v}" for k, v in record["env"].items())
    lines = [f"env {env_info}",
             f"workload {spec.name} seed={seed}: {spec.size()}; closed loop, 1 caller, "
             f"{len(untraced)} untraced + {len(iterations) - len(untraced)} traced "
             f"iterations, {SETUPS} set-ups"]
    for name, (value, unit) in named.items():
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"metric {name} {shown} {unit}")
    lines.append(f"artifact_sha256 {digest}")
    if trace:
        layer_self = {layer: line["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS}
        top = max(layer_self, key=layer_self.get)
        lines.append("layer self_s per traced iteration: " + ", ".join(
            f"{layer}={value:.4g}" for layer, value in
            sorted(layer_self.items(), key=lambda kv: -kv[1])))
        lines.append(f"largest self-time layer: {top}; wait time is 0 in every layer "
                     f"(no queues: one caller, one thread)")
        lines.append(f"tracing overhead: {line['metrics']['trace.overhead_s']['value']:.4g} s "
                     f"per iteration (traced minus untraced job time)")
    return {"line": line, "lines": lines, "record": record}
