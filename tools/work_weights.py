"""Time the three kinds of enumeration work that ``blowup.MAX_POINTS``
prices, on the engine in this checkout, and print each as a weight in
replay points: a replay point (``region_empty``), a slope-identity class
(``slope_identity_scan``) and the system a sweep parameter builds
(``sweep``, beyond its box).  Stdlib only; the best of ``--repeat`` runs
is kept for each timing.

Usage: python tools/work_weights.py [--quick]

All three run on the (5, 2) complete intersection at eta = 1/5: a
gonality box at margin 20, the scan to range 8, and a gonality sweep
over k in [0, 200) at margin 0, best of 5.  ``--quick`` shrinks every
size to its least (margin 0, range 1, k in [0, 2), one run), to check
that the tool runs, not to measure.  The output is one header line naming
the interpreter and the machine, then one "<work> <us> us  weight <w>"
line per kind, w in replay points.  It reports and gates nothing; the weights in
``blowup`` are set by hand from its output.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from curvebounds.blowup import CurveGeometry, slope_identity_scan  # noqa: E402
from curvebounds.replay import GonalityMode, build_system, region_empty, sweep  # noqa: E402

CURVE = CurveGeometry(d=10, g=16)
ETA = Fraction(1, 5)
# (repeat, margin, range, params), measuring and quick
FULL = (5, 20, 8, 200)
QUICK = (1, 0, 1, 2)


def best_of(repeat: int, run):
    """(fastest wall time in seconds, result) over ``repeat`` calls of ``run``."""
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="least sizes, to check that the tool runs")
    repeat, margin, bound, params = QUICK if parser.parse_args(argv).quick else FULL

    system = build_system(CURVE, ETA, GonalityMode(k=1))
    seconds, outcome = best_of(repeat, lambda: region_empty(system, margin))
    point_us = seconds * 1e6 / outcome.checked
    seconds, (classes, _) = best_of(repeat,
                                    lambda: slope_identity_scan(CURVE, ETA, bound))
    class_us = seconds * 1e6 / classes
    seconds, result = best_of(repeat,
                              lambda: sweep(CURVE, ETA, "gonality", range(params)))
    box_points = sum(outcome.checked for _, outcome in result.entries)
    system_us = (seconds * 1e6 - box_points * point_us) / len(result.entries)

    print(f"# Python {platform.python_version()} on {platform.machine()}, "
          f"{os.cpu_count()} cpus, best of {repeat}")
    for work, us in (("replay-point", point_us), ("identity-class", class_us),
                     ("sweep-system", system_us)):
        print(f"{work:15s} {us:9.2f} us  weight {max(1, round(us / point_us))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
