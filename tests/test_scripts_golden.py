"""Golden hashes of the experiment scripts' stdout at their defaults.

Together the two scripts run new_id_counts, detect_dropout, split and the
stream's rate detectors on the stock simulator traces. compare_forecasters.py
is left out: its LSTM digits depend on the BLAS build.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "run_attack_experiments.py":
        "745a0f0933d96ba68264d26377e1eac6182dbfb7824ff437105fc37dae1e2d34",
    "stream_demo.py":
        "adb4e1d730d8e0d3d330e341f4754df62021cf04fc3e011ecf3c472b8075c838",
}


@pytest.mark.parametrize("script", sorted(GOLDEN))
def test_script_stdout_matches_golden_hash(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, env=env, timeout=120, check=True)
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[script]
