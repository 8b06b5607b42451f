"""Golden hashes of the experiment scripts' stdout at their defaults.

Together the two scripts run new_id_counts, detect_dropout, split and the
stream's rate detectors on the stock simulator traces. compare_forecasters.py
has no hash, since its LSTM digits depend on the BLAS build: it runs on a
short series and only the shape of its table is checked.
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


def run_script(script, *args) -> bytes:
    """The script's stdout; a nonzero exit fails the test. A RuntimeWarning
    is an error, as it is in-process under pyproject.toml's filterwarnings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "scripts" / script), *args],
                          capture_output=True, env=env, timeout=120, check=True)
    return done.stdout


@pytest.mark.parametrize("script", sorted(GOLDEN))
def test_script_stdout_matches_golden_hash(script):
    assert hashlib.sha256(run_script(script)).hexdigest() == GOLDEN[script]


def test_compare_forecasters_scores_every_model():
    out = run_script("compare_forecasters.py", "--n", "960",
                     "--lstm-num-timesteps", "24", "--lstm-num-chunks", "2")
    header, _, *rows, ranking = out.decode().splitlines()
    names = ["moving_average(w=3)", "holt_winters(m=24)", "linear_trend", "lstm",
             "persistence"]
    assert header.split()[0] == "model"
    assert [row.split()[0] for row in rows] == names
    for row in rows:  # a model that failed would show "-" for its test MSE
        float(row.split()[-5])
    assert ranking.startswith("ranking: ")
    assert sorted(ranking[len("ranking: "):].split(" < ")) == sorted(names)
