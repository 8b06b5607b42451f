"""End-to-end acceptance checks, one test per release criterion."""
import json
import os
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import grid_step
from gatewatch import cc4, cli, detect, evaluate, ingest, lstm, simulate
from gatewatch.errors import UnsupportedConfidence
from gatewatch.forecast import FittedForecaster, ForecasterConfig, fit
from gatewatch.series import TimeSeries, split


def make(values, interval=3600.0):
    return TimeSeries.from_values(values, interval_seconds=interval)


def test_c01_parameter_accounting():
    assert lstm.lstm_param_count(10, 1) == 480
    assert lstm.total_param_count(10, 1) == 491
    rng = np.random.default_rng(0)
    assert lstm.LstmParams.init(10, 1, rng).count() == 491


def test_c02_z_table_exact_and_closed():
    expected = {0.80: 1.282, 0.85: 1.440, 0.90: 1.645, 0.95: 1.960,
                0.99: 2.576, 0.995: 2.807, 0.999: 3.291}
    assert detect.Z_TABLE == expected
    for confidence, z in expected.items():
        assert detect.z_score(confidence) == z
    with pytest.raises(UnsupportedConfidence):
        detect.z_score(0.97)


def test_c03_confidence_interval_formula():
    band = detect.ConfidenceBand(X=100.0, s=10.0, n=25, z=detect.z_score(0.95))
    assert band.lower == pytest.approx(96.08, abs=1e-9)
    assert band.upper == pytest.approx(103.92, abs=1e-9)
    # s = 0 collapses the band to the mean
    flat = detect.ConfidenceBand(X=5.0, s=0.0, n=25, z=1.960)
    assert flat.lower == flat.upper == 5.0
    # n = 1 window: sample std undefined, band collapses
    single = detect.confidence_interval([5.0], 0.95)
    assert single.lower == single.upper == 5.0


def test_c04_confidence_interval_coverage():
    rng = np.random.default_rng(0)
    windows = rng.normal(0.0, 1.0, (1000, 30))
    hits = 0
    for window in windows:
        band = detect.confidence_interval(window, 0.95)
        if band.lower <= 0.0 <= band.upper:
            hits += 1
    assert 0.92 <= hits / 1000 <= 0.98


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_c05_holt_winters_beats_moving_average_on_seasonal_data(seed):
    t = np.arange(240)  # ten cycles of period 24
    rng = np.random.default_rng(seed)
    series = make(np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.3, 240))
    report = evaluate.compare_models(
        [ForecasterConfig(variant="holt_winters", hw_period=24,
                          hw_alpha=0.5, hw_beta=0.1, hw_gamma=0.3),
         ForecasterConfig(variant="moving_average", ma_window=24)],
        series, 0.8)
    hw = report.row("holt_winters(m=24)").test_mse
    ma = report.row("moving_average(w=24)").test_mse
    assert hw < ma


def test_c06_lstm_beats_persistence_baseline():
    # Noise-dominated diurnal series: one averaging-capable model pass at the
    # stock training budget is enough to beat last-value persistence.
    n = 20000
    t = np.arange(n)
    rng = np.random.default_rng(42)
    series = make(0.3 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, n))
    config = ForecasterConfig(variant="lstm", lstm_units=10,
                              lstm_num_timesteps=48, lstm_epochs=1,
                              lstm_batch_size=128, lstm_num_chunks=8,
                              lstm_learning_rate=0.01, rng_seed=42)
    report = evaluate.compare_models([config], series, 0.5)
    assert report.row("lstm").test_mse <= report.row("persistence").test_mse


def test_c07_lstm_gradients_match_finite_differences():
    X = np.random.default_rng(3).normal(0, 1, (6, 8))
    y = X[:, -1] * 0.7 + 0.1
    params = lstm.LstmParams.init(3, 1, np.random.default_rng(3))
    pred, cache = lstm.forward(params, X, keep_cache=True)
    grads = lstm.backward(params, cache, pred, y)
    eps = 1e-5
    worst = 0.0
    for name in ("W", "U", "b", "dense_w"):
        flat = getattr(params, name).reshape(-1)
        gflat = getattr(grads, name).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = lstm.mse_loss(lstm.predict(params, X), y)
            flat[k] = orig - eps
            dn = lstm.mse_loss(lstm.predict(params, X), y)
            flat[k] = orig
            numeric = (up - dn) / (2 * eps)
            rel = abs(gflat[k] - numeric) / max(abs(gflat[k]) + abs(numeric), 1e-8)
            worst = max(worst, rel)
    # dense_b
    orig = params.dense_b
    params.dense_b = orig + eps
    up = lstm.mse_loss(lstm.predict(params, X), y)
    params.dense_b = orig - eps
    dn = lstm.mse_loss(lstm.predict(params, X), y)
    params.dense_b = orig
    numeric = (up - dn) / (2 * eps)
    worst = max(worst, abs(grads.dense_b - numeric)
                / max(abs(grads.dense_b) + abs(numeric), 1e-8))
    assert worst < 1e-4


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_c08_cc4_radius_lemma_exhaustive(radius):
    width = 10
    rng = np.random.default_rng(8)
    stored = [rng.integers(0, 2, width) for _ in range(6)]
    classes = ["Known", "Attack", "Known", "Attack", "Known", "Attack"]
    net = cc4.cc4_train(list(zip(stored, classes)), radius=radius)
    for probe in product([0, 1], repeat=width):
        probe = np.array(probe, dtype=np.int8)
        fired = net.fires(probe)
        for neuron, vec in enumerate(stored):
            hamming = int(np.abs(probe - vec).sum())
            assert bool(fired[neuron]) == (hamming <= radius)
    if radius == 0:
        seen = {}
        for vec, cls in zip(stored, classes):
            seen.setdefault(vec.tobytes(), cls)
        for vec, _ in zip(stored, classes):
            got, _ = cc4.cc4_classify(net, vec)
            assert got == seen[vec.tobytes()]


def _flood_score():
    trace = simulate.generate_trace(simulate.default_flood_config(seed=42,
                                                                  magnitude=10.0))
    series = trace.device_series["camera-1"]
    train, test = split(series, 0.5)
    model = fit(ForecasterConfig(variant="holt_winters", hw_period=24), train)
    alerts = detect.detect_surges(test, model, 0.95, window=24,
                                  source="camera-1")
    return simulate.score_detections(alerts, trace, coverage=24), trace


def test_c09_end_to_end_flood_silence_sybil():
    # UdpFlood: windowed mean-shift detection on the target device
    score, _ = _flood_score()
    assert score.recall >= 0.9
    assert score.precision is not None and score.precision >= 0.8

    # SilenceAfterOverflow: dropout alerts only inside the scripted window
    trace = simulate.generate_trace(simulate.default_silence_config(seed=42))
    series = trace.device_series["streetlight-1"]
    alerts = detect.detect_dropout(series, gap_threshold=3,
                                   source="streetlight-1")
    assert len(alerts) >= 1
    for alert in alerts:
        idx = (alert.timestamp - trace.start) // grid_step(trace.interval_seconds)
        assert 200 <= idx < 230

    # Sybil: identity-flood alerts only inside the scripted window
    trace = simulate.generate_trace(simulate.default_sybil_config(seed=42))
    counts = cc4.new_id_counts(trace.events, trace.start,
                               trace.interval_seconds, trace.duration)
    alerts = detect.detect_identity_flood(counts, 0.95, train_fraction=0.5,
                                          window=1)
    assert len(alerts) >= 1
    for alert in alerts:
        idx = (alert.timestamp - trace.start) // grid_step(trace.interval_seconds)
        assert 300 <= idx < 360


def _run(*argv):
    assert cli.main(list(argv)) == 0


def test_c10_determinism_end_to_end(tmp_path):
    # Every seeded subcommand twice; compare every output byte for byte.
    runs = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        sim = base / "sim"
        _run("simulate", "--scenario", "flood", "--seed", "42",
             "--out", str(sim))
        ing = base / "ing"
        _run("ingest", "--input", str(sim / "flow.csv"), "--out", str(ing),
             "--source-ip", "10.0.0.2", "--aggregator", "sum")
        _run("inspect", "--input", str(ing / "series.json"),
             "--out", str(base / "diag"), "--period", "24")
        _run("forecast", "--input", str(ing / "series.json"),
             "--out", str(base / "fc"), "--model", "lstm",
             "--lstm-num-timesteps", "24", "--seed", "11")
        _run("compare", "--input", str(ing / "series.json"),
             "--out", str(base / "cmp"),
             "--models", "moving_average,holt_winters", "--seed", "11")
        _run("detect", "--input", str(ing / "series.json"),
             "--out", str(base / "det"), "--model", "holt_winters",
             "--train-frac", "0.5", "--seed", "11")
        _run("stream", "--input", str(sim / "events.jsonl"),
             "--labels", str(sim / "labels.csv"),
             "--out", str(base / "stream"), "--radius", "0", "--seed", "11")
        runs[tag] = base
    first, second = runs["one"], runs["two"]
    files = sorted(p.relative_to(first) for p in first.rglob("*")
                   if p.is_file())
    assert files, "no outputs produced"
    for rel in files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

    # Fitted-model JSON round-trips to bit-identical forecasts.
    model_json = (first / "fc" / "model.json").read_text(encoding="utf-8")
    model = FittedForecaster.from_json(model_json)
    reloaded = FittedForecaster.from_json(model.to_json())
    assert reloaded.forecast(48) == model.forecast(48)


def _dataset_path():
    env = os.environ.get("GATEWATCH_FLOW_CSV")
    if env and Path(env).is_file():
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data" / "flow.csv"
    if local.is_file():
        return local
    return None


def test_c11_reference_dataset_extremes():
    path = _dataset_path()
    if path is None:
        pytest.skip("reference flow CSV not present "
                    "(set GATEWATCH_FLOW_CSV or provide data/flow.csv)")
    records, _ = ingest.parse_flow_csv(path, "Fwd Pkt Len Mean")
    records, _, _ = ingest.clean(records)
    assert len(records) == 499_563
    assert records[0].timestamp == datetime(2017, 7, 3, 17, 25, 58,
                                            tzinfo=timezone.utc)
    assert records[-1].timestamp == datetime(2018, 2, 22, 0, 35, 54,
                                             tzinfo=timezone.utc)
