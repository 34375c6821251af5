"""
Set-up probe: import bdris, build one workload's sweep spec and, for a
pooled workload, start the pool and wait for its workers to answer; then
print "ready". The benchmark times this from process launch.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import multiprocessing
import sys

import bench


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = bench.WORKLOADS[name]
    wl.spec(seed)
    if wl.workers > 1:
        with multiprocessing.Pool(processes=wl.workers) as pool:
            pool.map(abs, range(wl.workers))
            print("ready", flush=True)
    else:
        print("ready", flush=True)


if __name__ == "__main__":
    main()
