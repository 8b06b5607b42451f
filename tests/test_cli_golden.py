"""Golden hashes of the CLI chain on the stock flood scenario.

Pins the sha256 of every artifact that the determinism check (test_c10)
produces, plus residual-mode detection, detection straight from the flow
CSV, a Holt-Winters forecast, a three-model comparison, and the serialized
identity-flood alerts on the stock Sybil trace. The LSTM forecast outputs
are left out: their float bytes depend on the BLAS build.
"""
import hashlib

from gatewatch import cc4, cli, detect, simulate

GOLDEN = {
    "cmp/report.json":
        "e5bc07f078ce8c5e7fd41fc9c8bd905e0102a0c155fb26002953e0d0f473453c",
    "cmp/report.txt":
        "aba6cb31afeb5a124ffa2cd13118cba0868ae0b58e34a319604ffd1b1ab21634",
    "cmp3/report.json":
        "aedb116db0b283d4912a8f1c4282d36235d5513ad26433a4acebe33a3e6b74ce",
    "cmp3/report.txt":
        "1c46a8df966fe107726fbcf5cee8813e395444b3384af8bae8522c04345b7473",
    "det/alerts.jsonl":
        "065ff8ea24f1e45fe3c3af028dd56f2846dff4794f7902079178bf402557204b",
    "det_csv/alerts.jsonl":
        "f4db7bd3e45369a61c8af1fa0ffb82499cbb8316c5320b43443b08fd6e01d28d",
    "det_residual/alerts.jsonl":
        "5305656789e12bc4128ce5bebd2bf982f14c221dea2f53bbf323a1ea44303ff6",
    "diag/diagnostics.json":
        "b85a41e0672ba989e30ca478b353ae8de43a2bfbf45831e18672edab21302475",
    "fc_hw/forecast.csv":
        "85320d85cd1ba22f26cdfd103d636a2ca3a3b02d1d139795ad91a4efffdc0617",
    "fc_hw/forecast.json":
        "63db639024f228b7a4425e468e5e3bf4130d2843fe834d4a1a9823e23c2b34ed",
    "fc_hw/model.json":
        "06426680ef48767535447d258255a88b362c833ff7655c3f2bc42a64867c8dc8",
    "ing/ingest_report.json":
        "78cd52c0ae45fbdeaba12be3235634c0592362f9110296253bda43fd01f8b94c",
    "ing/series.json":
        "39f7813abe0e5a2da3679673b9a70d168616f9586bf7bedc43c42006591bc375",
    "sim/events.jsonl":
        "6ac21c55a1fd4396d662b29c8ebf80ff3f0325f099246d43a5dfec11d49603af",
    "sim/flow.csv":
        "44797e1007f17f772501049333d043cc163782352287b46e5216950b43cb6988",
    "sim/labels.csv":
        "51020933600b25bc5f2ff13ecd0130683768cd46bc14a8d0c63585af31698a48",
    "stream/alerts.jsonl":
        "b27420969606a704c091f0b47dcae042be9aca557ddb68714a25e785f8cfcfd8",
    "stream/network.json":
        "65c6b1709df36c6a6a3fde09b1b5c5442494b4ee1b729705ba40f552f8a8343c",
    "stream/stream_counts.json":
        "703bfd1db3855821cfce215dac012cda99989cfeb8c59b761810a29e56b99bfb",
}

SYBIL_FLOOD_GOLDEN = \
    "66cb11aa6f119667e49b29aa0583b8b75d9ec0ef5da5a4887c44eed24b9c4f10"


def _run(*argv):
    assert cli.main(list(argv)) == 0, argv


def _chain(base):
    sim = base / "sim"
    _run("simulate", "--scenario", "flood", "--seed", "42", "--out", str(sim))
    ing = base / "ing"
    _run("ingest", "--input", str(sim / "flow.csv"), "--out", str(ing),
         "--source-ip", "10.0.0.2", "--aggregator", "sum")
    series = str(ing / "series.json")
    _run("inspect", "--input", series, "--out", str(base / "diag"),
         "--period", "24")
    _run("forecast", "--input", series, "--out", str(base / "fc_hw"),
         "--model", "holt_winters", "--seed", "11")
    _run("compare", "--input", series, "--out", str(base / "cmp"),
         "--models", "moving_average,holt_winters", "--seed", "11")
    _run("compare", "--input", series, "--out", str(base / "cmp3"),
         "--models", "moving_average,holt_winters,linear_trend", "--seed", "11")
    _run("detect", "--input", series, "--out", str(base / "det"),
         "--model", "holt_winters", "--train-frac", "0.5", "--seed", "11")
    _run("detect", "--input", series, "--out", str(base / "det_residual"),
         "--model", "holt_winters", "--train-frac", "0.5", "--seed", "11",
         "--mode", "residual")
    _run("detect", "--input", str(sim / "flow.csv"),
         "--out", str(base / "det_csv"), "--source-ip", "10.0.0.2",
         "--seed", "11")
    _run("stream", "--input", str(sim / "events.jsonl"),
         "--labels", str(sim / "labels.csv"), "--out", str(base / "stream"),
         "--radius", "0", "--seed", "11")
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*")) if p.is_file()}


def test_cli_chain_artifacts_match_golden_hashes(tmp_path):
    assert _chain(tmp_path) == GOLDEN


def test_identity_flood_alerts_match_golden_hash():
    trace = simulate.generate_trace(simulate.default_sybil_config(seed=42))
    counts = cc4.new_id_counts(trace.events, trace.start,
                               trace.interval_seconds, trace.duration)
    alerts = detect.detect_identity_flood(counts, 0.95, train_fraction=0.5,
                                          window=1)
    text = "".join(a.to_json() + "\n" for a in alerts)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SYBIL_FLOOD_GOLDEN
