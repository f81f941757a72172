"""Time one fresh-interpreter set-up: import repisac and build a workload's study inputs.

Usage: python3 bench/setup_probe.py <workload> <seed> [--tiny]

Prints the seconds from the first statement of this script to the moment the
inputs exist. ``run.py`` starts this several times per run, in turn with a
copy that imports the frozen reference (``REPISAC_BENCH_SRC``), and derives
``setup_s`` from the pairs.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import env  # noqa: E402,F401  (pins BLAS threads, then imports repisac and numpy)
import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    spec = workloads.WORKLOADS[name]
    spec.setup(spec.config(seed, tiny="--tiny" in sys.argv[3:]))
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
