"""Write reference.json: one pass of every workload at the default seed.

    python3 perfbench/make_reference.py

Each workload runs through run.py, so with its pinned BLAS thread count,
and its first pass's records (l1, l2, lambda and rel_error per cell) are
taken from the result file. The reference is taken once, at the commit
whose outputs later commits are held to; regenerating it after a change
to the library erases what it checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    ref = {}
    for name in workloads.WORKLOADS:
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(workloads.DEFAULT_SEED), "--seconds", "0", "--trace", "0"],
            check=True, stdout=subprocess.DEVNULL,
        )
        with open(HERE / "out" / f"{name}-seed{workloads.DEFAULT_SEED}-trace0.json") as fh:
            result = json.load(fh)
        ref[name] = result["records"]
        ref.setdefault("commit", result["machine"]["git_commit"])
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
