"""Golden hashes of `gatewatch stream` on the stock simulator scenarios.

The digests were taken from the per-record CC4 implementation; the block
implementation must reproduce every artifact byte for byte.
"""
import hashlib

import pytest

from gatewatch import cli

GOLDEN = {
    "flood": {
        "alerts.jsonl":
            "b27420969606a704c091f0b47dcae042be9aca557ddb68714a25e785f8cfcfd8",
        "stream_counts.json":
            "703bfd1db3855821cfce215dac012cda99989cfeb8c59b761810a29e56b99bfb",
        "network.json":
            "7f3229a7d0e2b4f27ab245a3fb4093affa06308f47de4e05bf0463d30b7163e3",
    },
    "sybil": {
        "alerts.jsonl":
            "f27277521ff121fbbac2a56fea4af6fe834f02e60c6cd3d8dbd91962ea6ae216",
        "stream_counts.json":
            "3ec12b6d1dc4dcb154293541676a6cf6270de1a4340fdfcd7e95cb5ca5900b57",
        "network.json":
            "3ef64450bc6822402ba394117df6435453b8408e919454e3576dcd30b2d489c1",
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_stream_artifacts_match_golden_hashes(tmp_path, scenario):
    sim = tmp_path / "sim"
    out = tmp_path / "stream"
    assert cli.main(["simulate", "--scenario", scenario, "--seed", "42",
                     "--out", str(sim)]) == 0
    assert cli.main(["stream", "--input", str(sim / "events.jsonl"),
                     "--labels", str(sim / "labels.csv"),
                     "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[scenario]}
    assert got == GOLDEN[scenario]
