"""Independent brute-force check of the constraint systems behind the
gonality bound and the restriction threshold.

A destabilizing class D = xH + yE (integer x, y) would have to satisfy
a short list of exact inequalities; this module derives a finite box
provably containing every integer solution, enumerates it, and reports
emptiness or a witness.  Emptiness below the theorem's value is the
cross-check; a witness does NOT disprove the bound, because the
constraints are necessary conditions only.

Both modes use the same orientation D = xH + yE; classes written
elsewhere as xH - yE correspond to negating y here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Optional, Union

from . import blowup
from ._record import record
from .blowup import _SYSTEM_POINTS, CurveGeometry, _check_points, lambda_eta
from .errors import LambdaNegative, NonpositiveEta, UnboundedBox
from .scalar import RationalLike
from .scalar import capped_rational as _capped_rational, exact_int as _exact_int

NECESSARY_ONLY_NOTE = (
    "constraints are necessary conditions; a witness does not disprove "
    "the bound, and emptiness confirms it only for the checked parameter")


@record
class GonalityMode:
    """Hypothesis: a base-point-free pencil of degree k exists."""
    k: int


@record
class RestrictionMode:
    """Hypothesis: the restricted bundle (c1 = 0, given c2) is unstable,
    with sub-line-bundle degree at least l_min on the curve."""
    c2: int
    l_min: int = 0


Mode = Union[GonalityMode, RestrictionMode]
# one constraint: its text, as ConstraintSystem.constraints lists it, and
# its exact test of a point (x, y) given s = x + y*eta*d
Test = Callable[[int, int, Fraction], bool]
Row = tuple[str, Test]


@record
class Box:
    """Integer search ranges with the derivation recorded."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int
    notes: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return self.x_max < self.x_min or self.y_max < self.y_min

    def points(self, margin: int = 0):
        for y in range(self.y_min - margin, self.y_max + margin + 1):
            for x in range(self.x_min - margin, self.x_max + margin + 1):
                yield x, y


@record
class ConstraintSystem:
    """The exact inequalities a destabilizing class must satisfy, plus
    a box provably containing all their integer solutions."""

    curve: CurveGeometry
    eta: Fraction
    mode: Mode
    box: Box
    constraints: tuple[str, ...]


@record
class ReplayOutcome:
    empty: bool
    witness: Optional[tuple[int, int]]
    checked: int
    note: str = NECESSARY_ONLY_NOTE


@record
class SweepResult:
    """region_empty across a parameter range; frontier is the first
    parameter with a witness (None when the region never fills)."""

    mode_family: str
    entries: tuple[tuple[int, ReplayOutcome], ...]
    frontier: Optional[int]
    note: str = NECESSARY_ONLY_NOTE


def build_system(curve: CurveGeometry, eta: RationalLike, mode: Mode) -> ConstraintSystem:
    """Derive the constraint list and a provably sufficient search box.

    Gonality mode (pencil of degree k, s = x + y*eta*d):
        x >= 0, (x, y) != (0, 0), s >= 0, eta*d >= 2s,
        s^2 - s*eta*d + eta*k >= 0, x >= |y|*sqrt(d).
    Restriction mode (c2, sub-line-bundle degree >= l_min):
        x >= 1, eta*d >= 2s, c2 >= s*eta*d - s^2 + eta*l_min,
        x^2 >= y^2*d - c2.

    Integers decide everything irrational: in both modes the box's
    |y| <= t_max floors the larger root of an integer quadratic in t
    with ``math.isqrt``, and the saturation row tests x >= 0 and
    x^2 >= y^2*d.
    """
    eta = _capped_rational(eta)
    if eta <= 0:
        raise NonpositiveEta(f"eta must be positive, got {eta}")
    lam = lambda_eta(curve, eta)
    if lam < 0:
        raise LambdaNegative(
            f"lambda_eta = {lam} < 0 for eta = {eta}: the destabilizing "
            "second Chern class has no real bound, system not buildable")
    d = curve.d
    ed = eta * d
    if eta * ed >= 1:
        raise UnboundedBox(
            f"eta^2*d = {eta * ed} >= 1: the saturation inequality no longer "
            "caps |y|, the solution set is unbounded")

    notes: list[str] = [
        f"eta*d = {ed}; destabilizing cap s <= eta*d/2 = {ed / 2}",
        "y > 0 infeasible: saturation plus the cap force "
        "y*(sqrt(d) + eta*d) <= eta*d/2 < y for every positive integer y",
    ]

    # for y = -t the cap x <= eta*d/2 + t*eta*d meets the mode's lower
    # bound on x only while an integer quadratic lead*t^2 - lin*t - const,
    # with lead > 0 (because eta^2*d < 1) and const >= 0, is <= 0; that
    # holds on [0, larger root], and the larger root
    # (lin + sqrt(disc)) / (2*lead), disc = lin^2 + 4*lead*const,
    # floors to (lin + isqrt(disc)) // (2*lead).  eta = p/r.
    p, r = eta.numerator, eta.denominator
    if isinstance(mode, GonalityMode):
        if _exact_int(mode.k) < 0:
            raise ValueError(f"pencil degree k must be nonnegative, got {mode.k}")

        # saturation x >= t*sqrt(d) against the cap: 2*r*t*sqrt(d) <=
        # p*d*(2t + 1), both sides nonnegative, so squared and divided by
        # d it is 4*r^2*t^2 <= p^2*d*(2t + 1)^2
        lead = 4 * (r * r - p * p * d)
        lin = 4 * p * p * d
        const = p * p * d
        x_min, t_rule = 0, "t^2*d"
    elif isinstance(mode, RestrictionMode):
        c2 = _exact_int(mode.c2)
        if c2 < 0 or _exact_int(mode.l_min) < 0:
            raise ValueError(
                f"c2 and l_min must be nonnegative, got c2 = {c2}, "
                f"l_min = {mode.l_min}")

        # x^2 >= t^2*d - c2 against the cap: a feasible x exists only
        # while q(t) <= 0 where
        # q(t) = t^2*d*(1 - eta^2*d) - t*eta^2*d^2 - (c2 + eta^2*d^2/4),
        # and 4*r^2*q(t) is the integer quadratic
        lead = 4 * d * (r * r - p * p * d)
        lin = 4 * p * p * d * d
        const = 4 * r * r * c2 + p * p * d * d
        x_min, t_rule = 1, "t^2*d - c2"
    else:
        raise TypeError(f"unknown mode: {mode!r}")
    t_max = (lin + math.isqrt(lin * lin + 4 * lead * const)) // (2 * lead)

    x_max = int(ed / 2 + t_max * ed)  # Fraction floor for nonneg values
    notes.append(
        f"|y| <= {t_max}: largest t with {t_rule} <= (eta*d/2 + t*eta*d)^2")
    notes.append(f"{x_min} <= x <= floor(eta*d/2 + {t_max}*eta*d) = {x_max}")
    return ConstraintSystem(
        curve=curve, eta=eta, mode=mode,
        box=Box(x_min, x_max, -t_max, 0, tuple(notes)),
        constraints=tuple(text for text, _ in _rows(curve, eta, mode)))


def _rows(curve: CurveGeometry, eta: Fraction, mode: Mode) -> tuple[Row, ...]:
    """The constraints of a mode that build_system has validated, in the
    order they are tested."""
    d = curve.d
    ed = eta * d
    if isinstance(mode, GonalityMode):
        k = mode.k
        ek = eta * k
        return (
            ("x >= 0", lambda x, y, s: x >= 0),
            ("(x, y) != (0, 0)", lambda x, y, s: x != 0 or y != 0),
            ("s = x + y*eta*d >= 0", lambda x, y, s: s >= 0),
            ("eta*d >= 2*s", lambda x, y, s: 2 * s <= ed),
            (f"s^2 - s*eta*d + eta*k >= 0  [k = {k}]",
             lambda x, y, s: s * s - s * ed + ek >= 0),
            # saturation, squared: both sides are nonnegative when x is
            ("x >= |y|*sqrt(d)", lambda x, y, s: x >= 0 and x * x >= y * y * d),
        )
    c2, l_min = mode.c2, mode.l_min
    el = eta * l_min
    return (
        ("x >= 1", lambda x, y, s: x >= 1),
        ("eta*d >= 2*s", lambda x, y, s: 2 * s <= ed),
        (f"c2 >= s*eta*d - s^2 + eta*l_min  [c2 = {c2}, l_min = {l_min}]",
         lambda x, y, s: c2 >= s * ed - s * s + el),
        ("x^2 >= y^2*d - c2", lambda x, y, s: x * x >= y * y * d - c2),
    )


def _satisfies(tests: list[Test], ed: Fraction, x: int, y: int) -> bool:
    s = x + y * ed
    for test in tests:
        if not test(x, y, s):
            return False
    return True


def _check_margin(margin: int) -> None:
    if _exact_int(margin) < 0:
        raise ValueError(f"box margin must be nonnegative, got {margin}")


def _box_points(box: Box, margin: int) -> int:
    """The number of points ``box.points(margin)`` yields, in closed form."""
    return (max(0, box.x_max - box.x_min + 2 * margin + 1)
            * max(0, box.y_max - box.y_min + 2 * margin + 1))


def region_empty(sys: ConstraintSystem, margin: int = 0) -> ReplayOutcome:
    """Enumerate every integer point of the box (enlarged by margin in
    all directions) and return the first witness satisfying all
    constraints, ties broken by smallest (|y|, x, y), or emptiness.
    A negative margin would shrink the box below the one that is proved
    sufficient, so it raises ValueError; a box of more than MAX_POINTS
    points raises WorkTooLarge before the first point."""
    _check_margin(margin)
    points = _box_points(sys.box, margin)
    _check_points(points, f"the replay box has {points} points")
    tests = [test for _, test in _rows(sys.curve, sys.eta, sys.mode)]
    ed = sys.eta * sys.curve.d
    best: Optional[tuple[int, int, int]] = None  # (|y|, x, y) of the best witness
    checked = 0
    for x, y in sys.box.points(margin):
        checked += 1
        if _satisfies(tests, ed, x, y):
            key = (abs(y), x, y)
            if best is None or key < best:
                best = key
    if best is None:
        return ReplayOutcome(empty=True, witness=None, checked=checked)
    return ReplayOutcome(empty=False, witness=best[1:], checked=checked)


def sweep(curve: CurveGeometry, eta: RationalLike, mode_family: str,
          param_range: Iterable[int], *, l_min: int = 0,
          margin: int = 0) -> SweepResult:
    """Run region_empty for each parameter (pencil degree k, or c2) and
    report the feasibility frontier: the first parameter whose region is
    non-empty.  The frontier can only sit at or above the corresponding
    bound; it may exceed it.  Every argument is checked before the first
    parameter, in both families, so an empty range fails as a full one.
    Every system is built before the first point is visited.  Each
    parameter is charged _SYSTEM_POINTS replay points for its system,
    plus its box, and work above MAX_POINTS raises WorkTooLarge."""
    if mode_family not in ("gonality", "restriction"):
        raise ValueError(f"unknown mode family: {mode_family!r}")
    _check_margin(margin)
    eta = _capped_rational(eta)
    if eta <= 0:
        raise NonpositiveEta(f"eta must be positive, got {eta}")
    if _exact_int(l_min) < 0:
        raise ValueError(f"l_min must be nonnegative, got {l_min}")
    # no more parameters than the cap pays systems for are drawn, so a
    # range of any length is refused at once
    params = list(islice(param_range, blowup.MAX_POINTS // _SYSTEM_POINTS + 1))
    work = len(params) * _SYSTEM_POINTS
    _check_points(work, f"the sweep has {len(params)} parameters or more")
    systems: list[tuple[int, ConstraintSystem]] = []
    for param in params:
        mode: Mode
        if mode_family == "gonality":
            mode = GonalityMode(k=param)
        else:
            mode = RestrictionMode(c2=param, l_min=l_min)
        system = build_system(curve, eta, mode)
        work += _box_points(system.box, margin)
        _check_points(work, f"the sweep up to parameter {param}")
        systems.append((param, system))
    entries: list[tuple[int, ReplayOutcome]] = []
    frontier: Optional[int] = None
    for param, system in systems:
        outcome = region_empty(system, margin)
        entries.append((param, outcome))
        if frontier is None and not outcome.empty:
            frontier = param
    return SweepResult(mode_family=mode_family, entries=tuple(entries),
                       frontier=frontier)
