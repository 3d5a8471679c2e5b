"""Host calibration kernel.

The 2-vCPU hosts this benchmark runs on drift: the same command can take
40 % longer a few minutes later, and a pure-Python loop slows down by the
same amount. A fixed kernel timed in the same process right before and right
after each timed command tracks that drift, so every end-to-end timing is
reported as

    calibrated seconds = raw seconds * CALIB_REF_S / calib_now

The kernel uses only numpy and plain Python and nothing from tefuse, so no
change to the program can move it. It mixes the two kinds of work the
pipeline does: a row-wise ``np.unique`` sort (the transfer-entropy counting
kernel) and an interpreted loop (per-call overhead, dict-based estimation).
A command that runs a thread pool is calibrated with the kernel running on
as many threads at once: its speed depends on every vCPU and on contention
for the interpreter lock, which a single-thread reading does not see.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median calibration per thread count on the reference host (2-vCPU KVM
# guest, Python 3.11, numpy 2.4). Changing them rescales every calibrated
# figure: keep them fixed.
CALIB_REF_S = {1: 0.050, 2: 0.085}

_ROWS = np.random.default_rng(20210409).integers(0, 10, size=(4700, 13))
_UNIQUE_REPS = 3
_LOOP_STEPS = 400_000
_SAMPLES = 5


def _kernel() -> float:
    start = time.perf_counter()
    for _ in range(_UNIQUE_REPS):
        np.unique(_ROWS, axis=0, return_counts=True)
    acc = 0
    for i in range(_LOOP_STEPS):
        acc += i & 7
    return time.perf_counter() - start


def calibrate(threads: int = 1) -> float:
    """Median of a few kernel timings, in seconds. With ``threads`` > 1 each
    timing covers that many copies of the kernel started at once on a pool."""
    if threads == 1:
        return statistics.median(_kernel() for _ in range(_SAMPLES))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        def together() -> float:
            start = time.perf_counter()
            for future in [pool.submit(_kernel) for _ in range(threads)]:
                future.result()
            return time.perf_counter() - start

        return statistics.median(together() for _ in range(_SAMPLES))
