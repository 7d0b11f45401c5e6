"""Calibration kernel, run as a child process of run.py.

    python3 perfbench/calibrate.py

Each line read on standard input names a CPU.  On that CPU the child times
a fixed kernel three times, and it writes the median, in seconds, as one
line.  It ends at end of input.

On a shared host the speed of a core drifts by 20% or more over minutes, and
the drift moves every serial workload with it.  run.py asks for a time right
before each set-up and each unit, on the CPU the unit runs on, and scales the
unit's time by it.  The kernel runs in its own process, so nothing the
package leaves behind in the benchmark's process (imported modules, allocator
state, caches) changes its time.  It mixes the package's kinds of work:
numpy convolutions, a BLAS product and an interpreted loop over array
elements.
"""
import os
import statistics
import sys
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

REPEATS = 3

rng = np.random.default_rng(0)
A, B = rng.random(2000), rng.random(2000)
M = rng.random((400, 100))
V = rng.random(10000)


def kernel() -> float:
    start = perf_counter()
    np.convolve(A, B)
    np.convolve(B, A)
    M.T @ M
    total = 0.0
    for k in range(V.size):
        z = V[k] * 0.5 + total
        total = z if z < 1e3 else 0.0
    return perf_counter() - start


def main() -> int:
    kernel()
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        print(repr(statistics.median(kernel() for _ in range(REPEATS))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
