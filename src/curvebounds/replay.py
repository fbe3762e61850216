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
from typing import Iterable, Optional, Union

from ._record import record
from .blowup import CurveGeometry, lambda_eta
from .errors import LambdaNegative, NonpositiveEta, UnboundedBox
from .scalar import RationalLike, quad_cmp, sqrt_rational
from .scalar import exact_int as _exact_int, exact_rational as _exact_rational

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
    system: ConstraintSystem
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
    """
    eta = _exact_rational(eta)
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

    if isinstance(mode, GonalityMode):
        if _exact_int(mode.k) < 0:
            raise ValueError(f"pencil degree k must be nonnegative, got {mode.k}")

        # for y = -t: saturation x >= t*sqrt(d), cap x <= eta*d/2 + t*eta*d;
        # compatible iff t*sqrt(d) <= eta*d/2 + t*eta*d, that is
        # t <= (eta*d/2) / (sqrt(d) - eta*d), where sqrt(d) > eta*d
        # because eta^2*d < 1
        t_max = math.floor((ed / 2) / (sqrt_rational(d) - ed))
        x_max = int(ed / 2 + t_max * ed)  # Fraction floor for nonneg values
        notes.append(
            f"|y| <= {t_max}: largest t with t^2*d <= (eta*d/2 + t*eta*d)^2")
        notes.append(f"0 <= x <= floor(eta*d/2 + {t_max}*eta*d) = {x_max}")
        box = Box(0, x_max, -t_max, 0, tuple(notes))
        constraints = (
            "x >= 0",
            "(x, y) != (0, 0)",
            "s = x + y*eta*d >= 0",
            "eta*d >= 2*s",
            f"s^2 - s*eta*d + eta*k >= 0  [k = {mode.k}]",
            "x >= |y|*sqrt(d)",
        )
    elif isinstance(mode, RestrictionMode):
        c2 = _exact_int(mode.c2)
        if c2 < 0 or _exact_int(mode.l_min) < 0:
            raise ValueError(
                f"c2 and l_min must be nonnegative, got c2 = {c2}, "
                f"l_min = {mode.l_min}")

        # for y = -t: x <= eta*d/2 + t*eta*d and x^2 >= t^2*d - c2; a
        # feasible x exists only while q(t) <= 0 where
        # q(t) = t^2*d*(1 - eta^2*d) - t*eta^2*d^2 - (c2 + eta^2*d^2/4);
        # q is an upward parabola with q(0) <= 0, so {t >= 0: q <= 0} is
        # [0, larger root].  With eta = p/r, 4*r^2*q(t) is the integer
        # quadratic lead*t^2 - lin*t - const; its larger root
        # (lin + sqrt(disc)) / (2*lead), disc = lin^2 + 4*lead*const,
        # floors to (lin + isqrt(disc)) // (2*lead)
        p, r = eta.numerator, eta.denominator
        lead = 4 * d * (r * r - p * p * d)
        lin = 4 * p * p * d * d
        const = 4 * r * r * c2 + p * p * d * d
        t_max = (lin + math.isqrt(lin * lin + 4 * lead * const)) // (2 * lead)
        x_max = int(ed / 2 + t_max * ed)
        notes.append(
            f"|y| <= {t_max}: largest t with "
            "t^2*d - c2 <= (eta*d/2 + t*eta*d)^2")
        notes.append(f"1 <= x <= floor(eta*d/2 + {t_max}*eta*d) = {x_max}")
        box = Box(1, x_max, -t_max, 0, tuple(notes))
        constraints = (
            "x >= 1",
            "eta*d >= 2*s",
            f"c2 >= s*eta*d - s^2 + eta*l_min  [c2 = {c2}, l_min = {mode.l_min}]",
            "x^2 >= y^2*d - c2",
        )
    else:
        raise TypeError(f"unknown mode: {mode!r}")

    return ConstraintSystem(curve=curve, eta=eta, mode=mode, box=box,
                            constraints=constraints)


def _satisfies(sys: ConstraintSystem, x: int, y: int) -> bool:
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
        return quad_cmp(Fraction(x), abs(y) * sqrt_rational(d)) >= 0
    mode = sys.mode
    if x < 1:
        return False
    if 2 * s > eta * d:
        return False
    if Fraction(mode.c2) < s * eta * d - s * s + eta * mode.l_min:
        return False
    return x * x >= y * y * d - mode.c2


def _check_margin(margin: int) -> None:
    if _exact_int(margin) < 0:
        raise ValueError(f"box margin must be nonnegative, got {margin}")


def region_empty(sys: ConstraintSystem, margin: int = 0) -> ReplayOutcome:
    """Enumerate every integer point of the box (enlarged by margin in
    all directions) and return the first witness satisfying all
    constraints, ties broken by smallest (|y|, x, y), or emptiness.
    A negative margin would shrink the box below the one that is proved
    sufficient, so it raises ValueError."""
    _check_margin(margin)
    witnesses: list[tuple[int, int]] = []
    checked = 0
    for x, y in sys.box.points(margin):
        checked += 1
        if _satisfies(sys, x, y):
            witnesses.append((x, y))
    if not witnesses:
        return ReplayOutcome(empty=True, witness=None, checked=checked, system=sys)
    best = min(witnesses, key=lambda p: (abs(p[1]), p[0], p[1]))
    return ReplayOutcome(empty=False, witness=best, checked=checked, system=sys)


def sweep(curve: CurveGeometry, eta: RationalLike, mode_family: str,
          param_range: Iterable[int], *, l_min: int = 0,
          margin: int = 0) -> SweepResult:
    """Run region_empty for each parameter (pencil degree k, or c2) and
    report the feasibility frontier: the first parameter whose region is
    non-empty.  The frontier can only sit at or above the corresponding
    bound; it may exceed it."""
    if mode_family not in ("gonality", "restriction"):
        raise ValueError(f"unknown mode family: {mode_family!r}")
    _check_margin(margin)
    entries: list[tuple[int, ReplayOutcome]] = []
    frontier: Optional[int] = None
    for param in param_range:
        mode: Mode
        if mode_family == "gonality":
            mode = GonalityMode(k=param)
        else:
            mode = RestrictionMode(c2=param, l_min=l_min)
        outcome = region_empty(build_system(curve, eta, mode), margin)
        entries.append((param, outcome))
        if frontier is None and not outcome.empty:
            frontier = param
    return SweepResult(mode_family=mode_family, entries=tuple(entries),
                       frontier=frontier)
