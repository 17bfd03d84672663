"""Host speed probe: time a fixed computation that does not involve drmfuse.

Usage: python3 hostspeed.py

Runs as a child process of the benchmark: for each line read from stdin it
times one pass of the computation and writes the milliseconds as one line.
It is a process of its own, so nothing the package does in the benchmark
process (threads, heap state) runs inside it. The computation mixes small
numpy array operations with an interpreted loop, like the benchmark's ops.
"""

import sys
import time

import numpy as np


def work(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    for _ in range(100):
        x = np.exp(a @ b)
        total += float(x.sum(axis=0).max() + np.log1p(x).max())
        total += sum(i * i for i in range(300))
    return total


def main() -> None:
    a = np.random.default_rng(0).random((2000, 8))
    b = np.random.default_rng(1).random((8, 4))
    work(a, b)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        work(a, b)
        print(1e3 * (time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main()
