"""A fixed CPU-bound loop that reports the CPU time of each iteration.

    python3 perfbench/reference.py

``run.py`` runs this process on the same core as each timed ``lbrank``
command, so the two take turns on that core and meet the same host speed
at every moment. At nice 5 the loop takes about a quarter of the core, so
a command's wall time grows by a third rather than doubling, and a run
holds more passes. On a shared host a core's speed changes by up to 1.6x
over seconds (other tenants' load on the physical core), and a second core
does not follow the first, so only a loop on the same core measures the
speed a command met. The loop mixes interpreted Python with small numpy
calls, as ``lbrank`` does, and keeps its data small (32 KiB) so that it
evicts little of the command's cache.

Each line of output is one iteration: monotonic start, monotonic end and
CPU seconds used. The process ends when its standard output is closed.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

ROWS, COLS = 16, 256
STEPS = 20000
NICE = 5


def iteration(x: np.ndarray) -> float:
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(STEPS):
        row = x[i % ROWS]
        acc += float(row[i % COLS])
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        if i % 20 == 0:
            acc += float(np.dot(row, row))
            np.argsort(row, kind="stable")
    return acc


def main() -> int:
    os.nice(NICE)
    x = np.random.default_rng(0).random((ROWS, COLS))
    while True:
        start, cpu = time.monotonic(), time.process_time()
        iteration(x)
        try:
            print(f"{start!r} {time.monotonic()!r} {time.process_time() - cpu!r}", flush=True)
        except BrokenPipeError:
            return 0


if __name__ == "__main__":
    sys.exit(main())
