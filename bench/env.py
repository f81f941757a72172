"""Process set-up for the benchmark's entry points; import it before anything imports numpy.

It pins BLAS/OpenMP to one thread (unpinned two-thread OpenBLAS made one
detector step swing by more than 10x between identical trial loops) and
imports repisac from this checkout's ``src`` directory, never from elsewhere.
A process started with ``REPISAC_BENCH_SRC`` set imports it from that
directory instead; the benchmark uses this for the frozen reference copy in
``bench/reference``.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(os.environ.get("REPISAC_BENCH_SRC") or ROOT / "src").resolve()
if not (SRC / "repisac" / "__init__.py").is_file():
    raise SystemExit(f"bench: no repisac sources under {SRC}")
sys.path.insert(0, str(SRC))

import repisac  # noqa: E402

if not Path(repisac.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"bench: imported repisac from {repisac.__file__}, not from {SRC}")
