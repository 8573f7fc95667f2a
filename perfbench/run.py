"""Benchmark of randgsvd's factor -> select -> solve cell.

    python3 perfbench/run.py --workload kernels --seed 0 --seconds 20 --trace 0

Runs one workload (kernels, tomo, reuse or dense; see workloads.py) in a
fresh process whose BLAS thread count is pinned through
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS before numpy loads. The library
is imported from this checkout's ``src``. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Full results, and the spans of a traced run, are written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only: numpy must not load here)

# every run must end within 180 s; stop a runaway worker before that
WORKER_TIMEOUT_S = 170


def main(argv) -> int:
    if not (ROOT / "src" / "randgsvd" / "__init__.py").is_file():
        print(f"no randgsvd sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    wl = workloads.WORKLOADS[parser.parse_known_args(argv)[0].workload]
    # a terminated parent raises SystemExit, on which subprocess.run kills
    # the worker and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(wl.threads), OMP_NUM_THREADS=str(wl.threads))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
