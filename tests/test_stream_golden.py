"""Golden hashes of `gatewatch stream` on the stock simulator scenarios.

The digests were taken from the per-record CC4 implementation; the block
implementation must reproduce every artifact byte for byte. The disordered
flood trace's digests were taken from the per-record intake that the columnar
intake replaced.
"""
import hashlib
import json
from datetime import datetime, timedelta, timezone

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


DISORDERED_GOLDEN = {
    "alerts.jsonl":
        "dfc88c714d967e8456da2746675afced96c6d819e599e7359ce468ca35ccaae7",
    "stream_counts.json":
        "b8af1300564e15693aa56fcfc2052a288150fbd814f41a6c8a53e96ac497024e",
    "network.json":
        "7f3229a7d0e2b4f27ab245a3fb4093affa06308f47de4e05bf0463d30b7163e3",
}


def disorder(lines: list[str]) -> list[str]:
    """The flood trace made untidy. Lines 750 to 1017 (from 0) hold camera-1's
    UdpFlood, one attack record every third line, so most edits below move an
    Intrusion alert. Edits run from the end of the log backwards, so that each
    index names a line of the stock trace: adjacent duplicates (verbatim, keys
    re-ordered, stamp at UTC+01:00), a record with a list-valued field, a
    blank line and three records moved 40 lines (over 13 hourly intervals)
    later, past the 5-interval skew window."""
    out = list(lines)
    obj = json.loads(out[960])
    obj["ts"] = datetime.fromisoformat(obj["ts"]).astimezone(
        timezone(timedelta(hours=1))).isoformat()
    out.insert(961, json.dumps(obj))
    obj = json.loads(out[840])
    obj["status"] = [obj["status"]]
    out[840] = json.dumps(obj)
    out.insert(811, out[810])
    out.insert(820, out.pop(780))
    out.insert(600, "")
    out.insert(440, out.pop(400))
    out.insert(301, json.dumps(dict(reversed(json.loads(out[300]).items()))))
    out.insert(140, out.pop(100))
    return out


def test_disordered_stream_matches_golden_hashes(tmp_path):
    sim = tmp_path / "sim"
    out = tmp_path / "stream"
    assert cli.main(["simulate", "--scenario", "flood", "--seed", "42",
                     "--out", str(sim)]) == 0
    events = sim / "events.jsonl"
    lines = events.read_text(encoding="utf-8").splitlines()
    events.write_text("\n".join(disorder(lines)) + "\n", encoding="utf-8")
    assert cli.main(["stream", "--input", str(events),
                     "--labels", str(sim / "labels.csv"),
                     "--out", str(out)]) == 0
    counts = json.loads((out / "stream_counts.json").read_text(encoding="utf-8"))
    assert counts == {"records_in": len(lines) + 3, "emitted_classifications": len(lines) - 4,
                      "dropped_malformed": 4, "dropped_duplicate": 3, "dropped_late": 3}
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in DISORDERED_GOLDEN}
    assert got == DISORDERED_GOLDEN
