"""Intersection calculus on the blow-up of P^3 along a smooth curve.

The Picard group of the blow-up is generated by ``H`` (pullback of the
hyperplane class) and the exceptional divisor ``E``.  Every quantity in
this package flows through the monomial table

    H^3 = 1,   H^2 * E = 0,   H * E^2 = -d,   E^3 = -deg_N,

where ``d`` is the degree of the curve and ``deg_N`` the degree of its
normal bundle.  ``deg_N`` is always derived from (d, g) through the
Euler-sequence formula ``deg_N = 4d + 2g - 2`` and can never be set by
hand: the derived invariants below are only mutually consistent with
that value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._record import record
from .errors import ArityMismatch, WorkTooLarge
from .scalar import MAX_CURVE_DIGITS, RationalLike
from .scalar import capped_int as _capped_int
from .scalar import exact_int as _exact_int, exact_rational as _exact_rational


# Every enumeration (replay box, sweep, slope-identity scan) prices its
# work in closed form before its first point, counted in replay points,
# and refuses more than MAX_POINTS.  tools/work_weights.py, on 2 cores
# (Python 3.11.7), reads a replay point at ~3.7-9.4 us as the host's
# load varies, and in its medians an identity class (D built with its
# integer triple, its three products from the integer kernel) at under
# 1 point (~2.5 us against a ~3.7 us point on an idle host, 3.5-4.0 us
# against 6.4-7.3 us under load), counted as the least weight, 1, and
# the system a sweep parameter builds at 10-15 points beyond its box.
# _CLASS_POINTS = 6 and _SYSTEM_POINTS = 16 over-charge both on
# purpose: the cap stays a bound on time, and --range 408 stays the
# first range refused.  So an allowed enumeration runs ~15-38 s at
# most (MAX_POINTS points at 3.7-9.4 us): the scan to range 407
# (664,225 classes, ~1.6 s on an idle host) and the ci-5-2 sweep over
# k in [0, 2000) at margin 20 (3,444,000 points) still run.
MAX_POINTS = 4 * 10**6
_CLASS_POINTS = 6
_SYSTEM_POINTS = 16


def _check_points(work: int, what: str) -> None:
    """WorkTooLarge when ``work``, in replay points, exceeds the cap."""
    if work > MAX_POINTS:
        raise WorkTooLarge(f"{what}: work of {work} replay points, above the "
                           f"enumeration cap {MAX_POINTS}")


@record
class CurveGeometry:
    """Ground facts of a smooth curve in P^3: degree and genus, with
    the normal-bundle degree derived."""

    d: int
    g: int

    def __post_init__(self) -> None:
        for n in (self.d, self.g):
            _capped_int(_exact_int(n), MAX_CURVE_DIGITS)
        if self.d < 1:
            raise ValueError(f"degree must be >= 1, got {self.d}")
        if self.g < 0:
            raise ValueError(f"genus must be >= 0, got {self.g}")
        # degree of the normal bundle, worked out once; not a field
        self.__dict__["deg_n"] = 4 * self.d + 2 * self.g - 2


@record
class DivisorClass:
    """Exact divisor class x*H + y*E on the blow-up."""

    x: Fraction
    y: Fraction

    def __init__(self, x: RationalLike, y: RationalLike) -> None:
        x, y = _exact_rational(x), _exact_rational(y)
        xn, xq = x.as_integer_ratio()
        yn, yq = y.as_integer_ratio()
        fields = self.__dict__
        # the class as (X*H + Y*E)/q in integers, for top_product; not a field
        fields["x"], fields["y"], fields["triple"] = x, y, (xn * yq, yn * xq, xq * yq)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.x - other.x, self.y - other.y)

    def __str__(self) -> str:
        return f"{self.x}*H + {self.y}*E"


H = DivisorClass(1, 0)
E = DivisorClass(0, 1)


def h_eta(eta: RationalLike) -> DivisorClass:
    """The mixed polarization class H - eta*E."""
    return DivisorClass(1, -_exact_rational(eta))


@record
class ChernData:
    """Chern data of a rank-two bundle on the blow-up:
    ``c1`` a divisor class, plus a codimension-two class written as
    ``c2_h`` times the pullback of a point cycle (a line in P^3) and
    ``c2_f`` times the fiber class F of the exceptional divisor.

    Evaluation only supports products against H - eta*E, with
    F . (H - eta*E) = eta and (pullback line) . (H - eta*E) = 1.
    """

    c1: DivisorClass
    c2_h: Fraction
    c2_f: Fraction

    def __init__(self, c1: DivisorClass, c2_h: RationalLike, c2_f: RationalLike) -> None:
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2_h", _exact_rational(c2_h))
        object.__setattr__(self, "c2_f", _exact_rational(c2_f))


def _top_ratio(c: CurveGeometry, classes: Sequence[DivisorClass]) -> tuple[int, int]:
    """top_product of three classes as (numerator, denominator), the
    denominator positive and the pair not reduced: the kernel that
    top_product and slope_identity_scan share.

    Each class carries its integer triple (X, Y, q), the class as
    (X*H + Y*E)/q, so the three surviving coefficients are products of
    triples over the common denominator q_1*q_2*q_3."""
    if len(classes) != 3:
        raise ArityMismatch(f"need exactly 3 classes, got {len(classes)}")
    a, b, e = classes
    (x1, y1, q1), (x2, y2, q2), (x3, y3, q3) = a.triple, b.triple, e.triple
    hh = x1 * x2 * x3
    he = x1 * y2 * y3 + y1 * x2 * y3 + y1 * y2 * x3
    ee = y1 * y2 * y3
    return hh - c.d * he - c.deg_n * ee, q1 * q2 * q3


def top_product(c: CurveGeometry, classes: Sequence[DivisorClass]) -> Fraction:
    """Top intersection number of three divisor classes, in lowest terms.

    Expanding the product of the linear forms x_i*H + y_i*E, only the
    monomials H^3, H*E^2 and E^3 survive against the table
    H^3 = 1, H*E^2 = -d, E^3 = -deg_N; their coefficients are prod x_i,
    sum_i x_i prod_{j != i} y_j and prod y_i.  The integer kernel
    _top_ratio multiplies them out of the classes' triples, and one
    Fraction, reduced by one gcd, is built from its pair.
    """
    return Fraction(*_top_ratio(c, classes))


# -- derived invariants ----------------------------------------------------


def delta_eta(c: CurveGeometry, eta: RationalLike) -> Fraction:
    """eta * deg_N - d.  Equals E^2 . (H - eta*E) in the ring."""
    eta = _exact_rational(eta)
    return Fraction(eta.numerator * c.deg_n - eta.denominator * c.d, eta.denominator)


def _lambda_num(c: CurveGeometry, p: int, q: int) -> int:
    """lambda_eta * q^2 for eta = p/q, q > 0: the one formula for lambda,
    whose sign lambda_eta and combine's genus gate both read."""
    return p * p * c.d * c.d - p * q * c.deg_n + q * q * c.d


def lambda_eta(c: CurveGeometry, eta: RationalLike) -> Fraction:
    """eta^2 d^2 - delta_eta; nonnegative whenever eta is at most the
    Seshadri constant (Hodge-index constraint).  At eta > 0 it is
    nonnegative iff g <= d^2 eta/2 + d(1/(2 eta) - 2) + 1, the genus
    bound a certified Seshadri lower end must pass."""
    eta = _exact_rational(eta)
    q = eta.denominator
    return Fraction(_lambda_num(c, eta.numerator, q), q * q)


def slope_identity_scan(c: CurveGeometry, eta: RationalLike,
                        bound: int) -> tuple[int, list[tuple[int, int]]]:
    """Check the slope identity

        D^2.H_eta - D.H_eta.E = s^2 - s*eta*d - lambda_eta*(y^2 - y),
        s = D.H_eta.H,

    exactly for every class D = x*H + y*E with |x|, |y| <= bound.
    Returns (classes checked, the (x, y) that violate it).  A negative
    bound would check nothing and report no violation, so it raises
    ValueError; a class is charged _CLASS_POINTS replay points against
    MAX_POINTS, and more work raises WorkTooLarge.

    The 2*bound + 1 coordinates are built as Fractions once per scan.
    Each class D is built once, with its integer triple, and its three
    products (against H_eta, E and H, whose triples are built once) are
    top_product's integer kernel _top_ratio: each value A = D^2.H_eta,
    B = D.H_eta.E and s comes as numerator over positive denominator,
    not reduced, with no Fraction built for it.  With eta*d = en/ed and
    lambda_eta = ln/ld, the class is decided by one integer equation,
    both sides over their positive common denominators
    cross-multiplied:

        (An*Bd - Bn*Ad) * sd^2*ed*ld
            == (sn*(sn*ed - en*sd)*ld - ln*(y^2 - y)*sd^2*ed) * Ad*Bd."""
    eta = _exact_rational(eta)
    if _exact_int(bound) < 0:
        raise ValueError(f"scan range must be nonnegative, got {bound}")
    classes = (2 * bound + 1) ** 2
    _check_points(classes * _CLASS_POINTS,
                  f"the slope-identity scan to range {bound} has {classes} classes")
    lam = lambda_eta(c, eta)
    heta = h_eta(eta)
    eta_d = eta * c.d
    ln, ld = lam.numerator, lam.denominator
    en, ed = eta_d.numerator, eta_d.denominator
    # each coordinate as the int it is reported as and its Fraction
    coords = [(n, Fraction(n)) for n in range(-bound, bound + 1)]
    violations: list[tuple[int, int]] = []
    checked = 0
    for x, fx in coords:
        for y, fy in coords:
            checked += 1
            dcls = DivisorClass(fx, fy)
            an, ad = _top_ratio(c, (dcls, dcls, heta))
            bn, bd = _top_ratio(c, (dcls, heta, E))
            sn, sd = _top_ratio(c, (dcls, heta, H))
            sded = sd * sd * ed
            if ((an * bd - bn * ad) * sded * ld
                    != (sn * (sn * ed - en * sd) * ld - ln * (y * y - y) * sded) * ad * bd):
                violations.append((x, y))
    return checked, violations


# -- rank-two kernel bundles ------------------------------------------------


def chern_of_kernel(c1_bundle: DivisorClass, c2_bundle_h: RationalLike,
                    degree: RationalLike, kind: str) -> ChernData:
    """Chern data of the kernel of a surjection onto a line bundle of
    the given degree supported on the exceptional divisor.

    ``kind`` selects the sign of the fiber term in c2:

    * ``"pencil"``: kernel of (trivial rank-2) -> (pencil of degree k
      pulled back from the curve); the fiber term is +degree.
    * ``"destabilizer"``: kernel of (pullback of a rank-2 bundle) ->
      (dual of a degree-l sub-line-bundle on the curve); the fiber term
      is -degree.
    """
    if kind not in ("pencil", "destabilizer"):
        raise ValueError(f"kind must be 'pencil' or 'destabilizer', got {kind!r}")
    c1 = c1_bundle - E
    degree = _exact_rational(degree)
    fiber = degree if kind == "pencil" else -degree
    return ChernData(c1, c2_bundle_h, fiber)


def discriminant_dot_heta(c: CurveGeometry, ch: ChernData,
                          eta: RationalLike) -> Fraction:
    """(c1^2 - 4c2) . (H - eta*E) for rank-two Chern data, using
    F.(H - eta*E) = eta and (pullback line).(H - eta*E) = 1."""
    eta = _exact_rational(eta)
    c1_sq = top_product(c, (ch.c1, ch.c1, h_eta(eta)))
    c2_part = ch.c2_h + ch.c2_f * eta
    return c1_sq - 4 * c2_part


def bogomolov_unstable(c: CurveGeometry, ch: ChernData,
                       eta: RationalLike) -> bool:
    """True iff the discriminant paired with H - eta*E is strictly
    positive, which forces a maximal destabilizing line subsheaf.
    Ampleness of the polarization (eta below the Seshadri constant) is
    the caller's responsibility."""
    return discriminant_dot_heta(c, ch, eta) > 0
