"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Usage:
  python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs `run.py` once per workload and seed with --trace 0 and the run length
from BENCHMARK.json, then prints, per workload and metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median. Each spread should stay below a third
of the metric's bound. The table is also written to .perfbench_out/steadiness.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent


def main() -> int:
    config = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            report[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:<17} {name:<12} median {median:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound/3 {bounds[name] / 3:.3f} {flag}",
                  flush=True)
    env.WORK.mkdir(exist_ok=True)
    (env.WORK / "steadiness.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
