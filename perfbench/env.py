"""Process set-up shared by the benchmark's entry points.

Import this module and call `prepare()` before anything imports numpy: the
BLAS thread pool is sized when numpy loads, and the OpenBLAS build numpy ships
may otherwise start a thread per core.
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin BLAS to one thread and put this checkout's `src/` first on the
    import path. Returns False when the checkout holds no gatewatch sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "gatewatch" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
