"""Benchmark entry point for anodens.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep-d30, sweep-d30-binary, score-d30, or `all` for each in turn.
Every workload run gets a fresh interpreter (bench/workloads.py) so that
peak memory and first-call warm-up belong to that run alone.  Its
environment is pinned for steady timings on a shared 2-core machine:

- BLAS runs one thread, which measured steadier than two.
- glibc malloc keeps freed memory instead of returning each large array to
  the kernel.  By default every ~100 MB temporary of a training step is
  mapped, faulted in and zeroed afresh; that kernel time was about a fifth
  of a step and the noisiest part of it.

The checkout's own `src/` is the only place anodens is imported from.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-d30", "sweep-d30-binary", "score-d30")
CHILD_TIMEOUT_S = 175
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(2**32),
    "MALLOC_TRIM_THRESHOLD_": str(2**32),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anodens benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "anodens" / "__init__.py").is_file():
        print(f"bench: no src/anodens package under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **PINNED_ENV)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        command = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        try:
            # the child inherits stdout, so its last line is this run's result
            done = subprocess.run(command, env=env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"bench: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
