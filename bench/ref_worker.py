"""Run study parts of the frozen reference copy of repisac, one per request.

Usage: REPISAC_BENCH_SRC=bench/reference python3 bench/ref_worker.py <workload> <seed> [--tiny]

``run.py`` starts this with ``REPISAC_BENCH_SRC`` pointing at
``bench/reference``. The worker runs one untimed warm-up study and prints
``ready``; then each line read from standard input, the index of a study
part, runs that part of a study of the workload (its inputs built untimed, as
for the program's studies) and prints its wall seconds. The worker ends when
its input closes.
"""

import sys
import time

import env  # noqa: F401  (pins BLAS threads, then imports repisac from REPISAC_BENCH_SRC)
import workloads


def main() -> None:
    spec = workloads.WORKLOADS[sys.argv[1]]
    config = spec.config(int(sys.argv[2]), tiny="--tiny" in sys.argv[3:])
    workloads.warm_up(spec, config)
    print("ready", flush=True)
    while line := sys.stdin.readline():
        part = spec.parts[int(line)]
        inputs = spec.setup(config)
        start = time.perf_counter()
        spec.run(config, inputs, part)
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main()
