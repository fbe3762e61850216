"""Makes ``perfbench/exact.py`` importable as ``exact``: the arithmetic
that imports nothing from ``curvebounds`` and that the benchmark checks
the program's output against.  The tests check the program's floors of
a + b*sqrt(m) and its replay boxes against the same functions, so the
repository keeps one copy of them.  The directory goes at the end of
the path, so no benchmark module shadows a test or library module."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)
