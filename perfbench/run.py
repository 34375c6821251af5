"""
Entry point of the bdris sweep benchmark; run it from the repository root:

    python3 perfbench/run.py --workload power_full80 --seed 1 --seconds 20 --trace 0

BLAS and OpenMP pools are pinned to one thread before numpy is imported,
so the serial workloads measure one core and the pooled one does not
oversubscribe. bdris is imported from this checkout's src/ only; without
it the benchmark exits with status 2 before measuring anything.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "bdris" / "__init__.py").is_file():
        print(f"no bdris package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
