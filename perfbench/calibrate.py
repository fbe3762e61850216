"""Machine-speed calibration.

The benchmark runs on shared hosts whose speed swings by tens of
percent from one second to the next, for the program and for any other
code alike.  Every reported time is therefore scaled by a calibration
loop run right before and right after the timed work:

    scaled = raw * REFERENCE_MS / mean(calibration before, after)

so it reads in milliseconds of a machine that runs the loop in
REFERENCE_MS; a quiet 2-vCPU Xeon virtual machine with Python 3.11
runs it in 1.0-1.1 ms.  The loop is the benchmark's own code (Fraction, int, dict
and str work, as the program does), so no change to curvebounds can move
it.  Raw times are reported next to the scaled ones.
"""

import time
from fractions import Fraction

REFERENCE_MS = 1.0
REPEATS = 3


def calibration_ms() -> float:
    """Median of a few runs of a fixed loop, in milliseconds."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i, i + 1)
            table[i % 17] = table.get(i % 17, 0) + i * i
            str(i)
        runs.append(time.perf_counter() - start)
    return sorted(runs)[len(runs) // 2] * 1000


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns a raw time measured between two calibrations
    into reference milliseconds' worth."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2)
