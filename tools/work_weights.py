"""Time the three kinds of enumeration work that ``blowup.MAX_POINTS``
prices, on the engine in this checkout, and print each as a weight in
replay points: a replay point (``region_empty``), a slope-identity class
(``slope_identity_scan``) and the system a sweep parameter builds
(``sweep``, beyond its box).  Stdlib only; each run times all three,
and each timing is reported as the median of the runs with its
quartiles, so that one output shows how far the host moved it.

Usage: python tools/work_weights.py [--quick]

All three run on the (5, 2) complete intersection at eta = 1/5: a
gonality box at margin 20, the scan to range 8, and a gonality sweep
over k in [0, 200) at margin 0, 9 runs.  ``--quick`` shrinks every
size to its least (margin 0, range 1, k in [0, 2), 3 runs), to check
that the tool runs, not to measure.  The output is one header line naming
the interpreter, the machine and the number of runs, then one
"<work> <median> us  [<q1>, <q3>]  weight <w>" line per kind: the median
time per unit of work and its lower and upper quartiles, in
microseconds, and w, the median in replay points.  It reports and gates
nothing; the weights in ``blowup`` are set by hand from its output.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from curvebounds.blowup import CurveGeometry, slope_identity_scan  # noqa: E402
from curvebounds.replay import GonalityMode, build_system, region_empty, sweep  # noqa: E402

CURVE = CurveGeometry(d=10, g=16)
ETA = Fraction(1, 5)
# (runs, margin, range, params), measuring and quick
FULL = (9, 20, 8, 200)
QUICK = (3, 0, 1, 2)


def timed(run):
    """(wall time in seconds, result) of one call of ``run``."""
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def one_run(system, margin: int, bound: int, params: int) -> tuple[float, float, float]:
    """Microseconds per replay point, per identity class and per sweep
    system (its box points priced at this run's point time)."""
    seconds, outcome = timed(lambda: region_empty(system, margin))
    point_us = seconds * 1e6 / outcome.checked
    seconds, (classes, _) = timed(lambda: slope_identity_scan(CURVE, ETA, bound))
    class_us = seconds * 1e6 / classes
    seconds, result = timed(lambda: sweep(CURVE, ETA, "gonality", range(params)))
    box_points = sum(outcome.checked for _, outcome in result.entries)
    system_us = (seconds * 1e6 - box_points * point_us) / len(result.entries)
    return point_us, class_us, system_us


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="least sizes, to check that the tool runs")
    runs, margin, bound, params = QUICK if parser.parse_args(argv).quick else FULL

    system = build_system(CURVE, ETA, GonalityMode(k=1))
    samples = zip(*(one_run(system, margin, bound, params) for _ in range(runs)))
    # (q1, median, q3) of each kind's microseconds over the runs
    quartiles = [statistics.quantiles(us, n=4) for us in samples]
    point_us = quartiles[0][1]

    print(f"# Python {platform.python_version()} on {platform.machine()}, "
          f"{os.cpu_count()} cpus, median of {runs}")
    for work, (q1, median, q3) in zip(("replay-point", "identity-class",
                                       "sweep-system"), quartiles):
        print(f"{work:15s} {median:9.2f} us  [{q1:.2f}, {q3:.2f}]  "
              f"weight {max(1, round(median / point_us))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
