"""Test-only oracle for the replay enumeration: the hand-written,
per-mode point test that ``curvebounds.replay`` replaced with one row
(text, test) per constraint, and a plain enumeration of the box.  The
saturation is decided in Q(sqrt(d)) by the Fraction-pair model
(``tests/quad_model.py``), not by squaring as the library's row does.

Validation is the library's job and is not repeated here; the oracle
takes a system that ``build_system`` returned.
"""

from fractions import Fraction

import quad_model as model
from curvebounds.replay import GonalityMode


def satisfies(sys, x, y):
    d = sys.curve.d
    eta = sys.eta
    s = x + y * eta * d
    if isinstance(sys.mode, GonalityMode):
        if x < 0 or (x == 0 and y == 0):
            return False
        if s < 0 or 2 * s > eta * d:
            return False
        if s * s - s * eta * d + eta * sys.mode.k < 0:
            return False
        # saturation, exact in Q(sqrt(d))
        return model.cmp(x, model.mul(abs(y), model.sqrt(d))) >= 0
    mode = sys.mode
    if x < 1:
        return False
    if 2 * s > eta * d:
        return False
    if Fraction(mode.c2) < s * eta * d - s * s + eta * mode.l_min:
        return False
    return x * x >= y * y * d - mode.c2


def region_empty(sys, margin):
    """(empty, witness, checked) as region_empty reports them: the
    witness is the solution with the smallest (|y|, x, y)."""
    points = list(sys.box.points(margin))
    witnesses = [p for p in points if satisfies(sys, *p)]
    if not witnesses:
        return True, None, len(points)
    return False, min(witnesses, key=lambda p: (abs(p[1]), p[0], p[1])), len(points)
