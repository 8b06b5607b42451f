"""Set-up step of one benchmark run, run in a process of its own so that its
imports and its memory do not count toward the measured job.

Usage: python3 perfbench/make_inputs.py REQUEST_JSON

The request names the workload spec, the seed, whether to trace, the input
directory to fill and the file to write the reference data to.
"""
import json
import sys
from pathlib import Path

import env


def main(request_path: str) -> int:
    if not env.prepare():
        print("error: no gatewatch sources under src/", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import Spec, make_inputs

    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    spec = Spec(**request["spec"])
    inputs = Path(request["inputs"])
    if request["trace"]:
        tracer = Tracer()
        with tracer.session(0, "bench.setup"):
            ref = make_inputs(spec, request["seed"], inputs)
        ref["setup_self_s"] = {name: s for name, (s, _) in tracer.self_times()[0].items()}
    else:
        ref = make_inputs(spec, request["seed"], inputs)
    Path(request["reference"]).write_text(json.dumps(ref), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
