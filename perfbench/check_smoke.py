"""Smoke tests of the benchmark: every workload at reduced size through every
output check, untraced and traced.

Run from the repository root:  python3 -m pytest -q perfbench/check_smoke.py
(The file name keeps it out of the package's own test run.)
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import env

env.prepare()

import pytest  # noqa: E402

import bench  # noqa: E402
from workloads import JOBS, WORKLOADS, StreamJob, make_inputs  # noqa: E402

SMALL = {
    "stream_fleet": replace(WORKLOADS["stream_fleet"], devices=9, floods=2, silences=2),
    "stream_sybil": replace(WORKLOADS["stream_sybil"], devices=6, sybil_windows=2,
                            fake_ids=5),
    "fleet_detect": replace(WORKLOADS["fleet_detect"], devices=9, floods=2, silences=2),
    "forecast_compare": replace(WORKLOADS["forecast_compare"], points=400,
                                lstm_timesteps=48),
}
CONFIG = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_passes_every_check_traced_and_untraced(name, tmp_path):
    results = {}
    for trace in (False, True):
        result = bench.run_workload(SMALL[name], seed=3, seconds=0.01, trace=trace,
                                    workdir=tmp_path / str(trace))
        line = result["line"]
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= (2 if trace else 1)
        want = CONFIG["per_layer" if trace else "end_to_end"]
        assert ({m["name"]: m["unit"] for m in want}
                == {k: v["unit"] for k, v in line["metrics"].items()})
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values())
        results[trace] = result["record"]["artifact_sha256"]
    assert results[False] == results[True]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in CONFIG["workloads"]] == [s.why for s in WORKLOADS.values()]


def test_stream_checks_catch_wrong_counts_and_order(tmp_path):
    spec = SMALL["stream_fleet"]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    ref = make_inputs(spec, 5, inputs)
    job = StreamJob(spec, 5, ref, inputs, out)
    assert job.check(job.run()) == []

    job.ref = {**ref, "injected_late": ref["injected_late"] + 1}
    assert any("dropped_late" in p for p in job.check(0))

    job.ref = ref
    alerts = out / "alerts.jsonl"
    lines = alerts.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) > 1
    alerts.write_text("".join(reversed(lines)), encoding="utf-8")
    assert any("merge_alerts order" in p for p in job.check(0))


@pytest.mark.parametrize("name", ["stream_fleet", "stream_sybil", "fleet_detect"])
def test_detection_checks_catch_lost_alerts(name, tmp_path):
    spec = SMALL[name]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    ref = make_inputs(spec, 5, inputs)
    job = JOBS[spec.kind](spec, 5, ref, inputs, out)
    result = job.run()
    assert job.check(result) == []

    alerts = out / "alerts.jsonl"
    lines = alerts.read_text(encoding="utf-8").splitlines(keepends=True)
    if spec.kind == "fleet":
        # Drop every Surge: the floods go unseen although the file is consistent.
        result.alerts = [a for a in result.alerts if a.kind != "Surge"]
        lines = [line for line in lines if '"Surge"' not in line]
    else:
        lines = [line for line in lines if '"Dropout"' not in line]
    alerts.write_text("".join(lines), encoding="utf-8")
    problems = job.check(result)
    assert problems and all("alert" in p for p in problems)


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream_fleet",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
