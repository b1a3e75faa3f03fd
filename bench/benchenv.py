"""Paths and thread settings shared by the benchmark's scripts.

Nothing here imports numpy, so `run.py` can pin the BLAS and OpenMP
thread counts before numpy loads.
"""

from __future__ import annotations

import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
PINNED_THREADS = 1


def with_threads(env, n: int) -> dict:
    """A copy of `env` with every BLAS/OpenMP thread variable set to n."""
    env = dict(env)
    for var in THREAD_VARS:
        env[var] = str(n)
    return env
