"""Intersection calculus on the blow-up of projective space along a
smooth curve.

The Picard group of the blow-up is generated by ``H`` (pullback of the
hyperplane class) and the exceptional divisor ``E``.  Every quantity in
this package flows through the monomial table

    H^r = 1,   H^a E^b = 0 for 0 < b < r-1,
    H * E^(r-1) = (-1)^(r-2) * d,   E^r = (-1)^r * deg_N,

where ``d`` is the degree of the curve and ``deg_N`` the degree of its
normal bundle.  ``deg_N`` is always derived from (r, d, g) through the
Euler-sequence formula ``deg_N = (r+1)d + 2g - 2`` and can never be set
by hand: the derived invariants below are only mutually consistent with
that value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._record import record
from .errors import ArityMismatch, UnsupportedDimension
from .scalar import RationalLike
from .scalar import exact_int as _exact_int, exact_rational as _exact_rational


@record
class CurveGeometry:
    """Ground facts of a smooth curve in P^r: ambient dimension,
    degree and genus, with the normal-bundle degree derived."""

    d: int
    g: int
    r: int = 3

    def __post_init__(self) -> None:
        _exact_int(self.d)
        _exact_int(self.g)
        _exact_int(self.r)
        if self.r < 3:
            raise ValueError(f"ambient dimension must be >= 3, got {self.r}")
        if self.d < 1:
            raise ValueError(f"degree must be >= 1, got {self.d}")
        if self.g < 0:
            raise ValueError(f"genus must be >= 0, got {self.g}")

    @property
    def deg_n(self) -> int:
        """Degree of the normal bundle: (r+1)d + 2g - 2."""
        return (self.r + 1) * self.d + 2 * self.g - 2


@record
class DivisorClass:
    """Exact divisor class x*H + y*E on the blow-up."""

    x: Fraction
    y: Fraction

    def __init__(self, x: RationalLike, y: RationalLike) -> None:
        object.__setattr__(self, "x", _exact_rational(x))
        object.__setattr__(self, "y", _exact_rational(y))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.x, -self.y)

    def scale(self, t: RationalLike) -> "DivisorClass":
        t = _exact_rational(t)
        return DivisorClass(t * self.x, t * self.y)

    def __str__(self) -> str:
        return f"{self.x}*H + {self.y}*E"


H = DivisorClass(1, 0)
E = DivisorClass(0, 1)


def h_eta(eta: RationalLike) -> DivisorClass:
    """The mixed polarization class H - eta*E."""
    return DivisorClass(1, -_exact_rational(eta))


@record
class ChernData:
    """Chern data of a rank-two bundle on the blow-up (r = 3 only):
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


def triple_product(c: CurveGeometry, A: DivisorClass, B: DivisorClass,
                   C: DivisorClass) -> Fraction:
    """Top intersection number A.B.C on the blow-up of P^3.

    Multilinear extension of H^3 = 1, H^2.E = 0, H.E^2 = -d,
    E^3 = -deg_N.
    """
    if c.r != 3:
        raise UnsupportedDimension(
            f"triple_product needs r = 3, got r = {c.r}; use top_product")
    xs = (A.x, B.x, C.x)
    ys = (A.y, B.y, C.y)
    hhh = xs[0] * xs[1] * xs[2]
    hee = (xs[0] * ys[1] * ys[2] + ys[0] * xs[1] * ys[2] + ys[0] * ys[1] * xs[2])
    eee = ys[0] * ys[1] * ys[2]
    return hhh - c.d * hee - c.deg_n * eee


def top_product(c: CurveGeometry, classes: Sequence[DivisorClass]) -> Fraction:
    """Top intersection number of r divisor classes, any r >= 3.

    The product of the linear forms (x_i + y_i t) is expanded formally
    in the E-degree t; only the coefficients of t^0, t^(r-1) and t^r
    survive against the monomial table.
    """
    if len(classes) != c.r:
        raise ArityMismatch(f"need exactly {c.r} classes, got {len(classes)}")
    coeffs = [Fraction(1)]
    for cl in classes:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, v in enumerate(coeffs):
            nxt[i] += v * cl.x
            nxt[i + 1] += v * cl.y
        coeffs = nxt
    r = c.r
    sign_he = Fraction((-1) ** (r - 2))
    sign_e = Fraction((-1) ** r)
    return (coeffs[0]
            + coeffs[r - 1] * sign_he * c.d
            + coeffs[r] * sign_e * c.deg_n)


# -- derived invariants ----------------------------------------------------


def delta_eta(c: CurveGeometry, eta: RationalLike) -> Fraction:
    """eta * deg_N - d.  Equals E^2 . (H - eta*E) in the ring (r = 3)."""
    if c.r != 3:
        raise UnsupportedDimension(
            "delta_eta is the r = 3 invariant; see delta_eta_compact / "
            "delta_eta_segre for r > 3")
    return _exact_rational(eta) * c.deg_n - c.d


def delta_eta_compact(c: CurveGeometry, eta: RationalLike) -> Fraction:
    """The compact closed form eta^(r-3) * (eta*deg_N - d), any r >= 3.

    For r > 3 this disagrees with the monomial-table value by a factor
    (r-2) on the degree term; see :func:`delta_eta_segre`.
    """
    eta = _exact_rational(eta)
    return eta ** (c.r - 3) * (eta * c.deg_n - c.d)


def delta_eta_segre(c: CurveGeometry, eta: RationalLike) -> Fraction:
    """E^2 . (H - eta*E)^(r-2) evaluated by the monomial table, any r >= 3.

    Closed form: eta^(r-2)*deg_N - (r-2)*eta^(r-3)*d.  This is the
    ground truth for r > 3; at r = 3 it coincides with
    :func:`delta_eta_compact` and :func:`delta_eta`.
    """
    return top_product(c, [E, E] + [h_eta(eta)] * (c.r - 2))


def lambda_eta(c: CurveGeometry, eta: RationalLike) -> Fraction:
    """eta^2 d^2 - delta_eta; nonnegative whenever eta is at most the
    Seshadri constant (Hodge-index constraint)."""
    eta = _exact_rational(eta)
    return eta ** 2 * c.d ** 2 - delta_eta(c, eta)


def halphen_f(c: CurveGeometry, x: RationalLike) -> Fraction:
    """The quadratic x^2 - (4 + (2g-2)/d)*x + d whose value at x = eta*d
    equals lambda_eta.  Its discriminant controls the genus bound."""
    x = _exact_rational(x)
    return x ** 2 - (4 + Fraction(2 * c.g - 2, c.d)) * x + c.d


def slope_identity_scan(c: CurveGeometry, eta: RationalLike,
                        bound: int) -> tuple[int, list[tuple[int, int]]]:
    """Check the slope identity

        D^2.H_eta - D.H_eta.E = s^2 - s*eta*d - lambda_eta*(y^2 - y),
        s = D.H_eta.H,

    exactly for every class D = x*H + y*E with |x|, |y| <= bound.
    Returns (classes checked, the (x, y) that violate it).  A negative
    bound would check nothing and report no violation, so it raises
    ValueError."""
    eta = _exact_rational(eta)
    if _exact_int(bound) < 0:
        raise ValueError(f"scan range must be nonnegative, got {bound}")
    lam = lambda_eta(c, eta)
    heta = h_eta(eta)
    violations: list[tuple[int, int]] = []
    checked = 0
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            checked += 1
            dcls = DivisorClass(x, y)
            lhs = (triple_product(c, dcls, dcls, heta)
                   - triple_product(c, dcls, heta, E))
            s = triple_product(c, dcls, heta, H)
            rhs = s * s - s * eta * c.d - lam * (Fraction(y) ** 2 - y)
            if lhs != rhs:
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
    c1_sq = triple_product(c, ch.c1, ch.c1, h_eta(eta))
    c2_part = ch.c2_h + ch.c2_f * eta
    return c1_sq - 4 * c2_part


def bogomolov_unstable(c: CurveGeometry, ch: ChernData,
                       eta: RationalLike) -> bool:
    """True iff the discriminant paired with H - eta*E is strictly
    positive, which forces a maximal destabilizing line subsheaf.
    Ampleness of the polarization (eta below the Seshadri constant) is
    the caller's responsibility."""
    return discriminant_dot_heta(c, ch, eta) > 0


def genus_consistency(c: CurveGeometry, eps_lower: RationalLike) -> bool:
    """True iff g <= d^2 eps/2 + d(1/(2 eps) - 2) + 1; equivalently,
    lambda_eps >= 0.  A certified Seshadri lower bound must pass this."""
    eps = _exact_rational(eps_lower)
    if eps == 0:
        raise ZeroDivisionError("eps_lower must be nonzero")
    if eps < 0:
        raise ValueError(f"eps_lower must be positive, got {eps}")
    bound = Fraction(c.d ** 2) * eps / 2 + c.d * (1 / (2 * eps) - 2) + 1
    return c.g <= bound
