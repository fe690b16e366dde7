"""Helper process of the benchmark; not run by hand.

    python3 perfbench/child.py <workload> <seed>
        Prints the seconds one set-up takes in a fresh interpreter:
        import conekit, build the workload's spectra, one warm-up call.
"""

import sys
from time import perf_counter

import workloads


def main(argv) -> int:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    t0 = perf_counter()
    workloads.WORKLOADS[argv[0]](int(argv[1])).prepare()
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
