"""Exact evaluation of the two main numeric bounds for a smooth space
curve, with full step-by-step traces:

* a lower bound on the gonality,
      gon(C) >= min{ delta_eta/(4 eta), alpha (d - alpha/eta) },
  with alpha = min{1, sqrt(d)(1 - eta sqrt(d))} clamped at 0, and

* a threshold on c_2 below which restriction of a stable rank-two
  bundle (c_1 = 0) to the curve stays stable,
      c_2 < min{ delta_gamma/4, alpha gamma d - alpha^2 },
  with alpha = min{1, sqrt(3d)/2 - gamma d} clamped at 0.

All four bounds here are one two-term computation (``_two_term_bound``)
in the integer numerators of Q(sqrt(m)), fed a different delta, radicand,
length and scale; each result is normalised once; ceilings are certified.
The general-r gonality variant evaluates both delta conventions side by
side and flags disagreements; only r = 3 is certified.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ._record import record
from .blowup import (
    CurveGeometry,
    delta_eta,
    delta_eta_compact,
    delta_eta_segre,
)
from .errors import (
    NoEvidence,
    NonpositiveEpsilon,
    NonpositiveGamma,
    NullCorrelationExcluded,
    UnsupportedDimension,
)
from .scalar import (
    QuadNumber,
    RationalLike,
    _quad,
    _sign,
    exact_int as _exact_int,
    exact_rational as _exact_rational,
    quad_cmp,
    sqrt_rational,
)
from .seshadri import SeshadriInterval, linked_line_genus


@record
class Discrepancy:
    """A structured warning: two quantities that a sharpness claim or a
    convention choice says should agree, but do not."""

    code: str
    message: str
    data: dict


@record
class BoundReport:
    """One evaluated bound: the two competing terms, their minimum, a
    certified integer ceiling, and the evaluation trace."""

    inputs: dict
    alpha: QuadNumber
    term_delta: Fraction
    term_alpha: QuadNumber
    value: QuadNumber
    value_ceiling: int
    trace: tuple[str, ...]
    discrepancies: tuple[Discrepancy, ...] = ()


@record
class GeneralRGonalityReport:
    """Side-by-side evaluation of the gonality bound for r >= 3 under
    the two delta conventions; certified only when they are the same
    (always at r = 3)."""

    compact: BoundReport
    segre: BoundReport
    certified: bool
    discrepancies: tuple[Discrepancy, ...] = ()


@record
class StabilityConstant:
    """A certified lower bound on the stability constant gamma, from
    surfaces through the curve on which the bundle restricts stably."""

    gamma_lower: Fraction
    trace: tuple[str, ...]


@record
class CertificationResult:
    """Outcome of comparing c2 against the restriction threshold."""

    verdict: str  # "certified" | "inconclusive"
    c2: int
    report: BoundReport
    reason: str

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _two_term_bound(inputs: dict, trace: list[str], delta: Fraction,
                    root: tuple[RationalLike, int], length: tuple[int, int],
                    scale: tuple[int, int], formulas: tuple[str, str, str],
                    ) -> BoundReport:
    """The computation all four bounds share:
        min{ delta/(4 scale), alpha (length - alpha/scale) },
    with alpha = min{1, sqrt(u)/w - length*scale} clamped at 0 for
    root = (u, w), and its certified ceiling.  ``length`` and ``scale``
    are (numerator, denominator) pairs, denominators and scale positive.
    One pass over integer numerators: signs come from ``_sign``, and
    each QuadNumber is normalised once, by ``_quad``.  ``formulas`` names
    the delta term, the raw alpha and the alpha term in the trace; the
    caller has already traced its inputs and delta."""
    (ln, lq), (sn, sq) = length, scale
    term_delta = Fraction(delta.numerator * sq, 4 * delta.denominator * sn)
    trace.append(f"delta term: {formulas[0]} = {term_delta}")

    # raw alpha = (a + b*sqrt(m))/q; u meets the radicand cap in sqrt_rational
    u, w = root
    a, b, s, m = sqrt_rational(u).parts
    a, b, q = a * lq * sq - ln * sn * s * w, b * lq * sq, s * w * lq * sq
    if _sign(a, b, m) < 0:
        trace.append(f"alpha = {formulas[1]} clamped to 0 "
                     f"(raw value {_quad(a, b, q, m)} < 0)")
        a, b, q = 0, 0, 1
        alpha = _quad(0, 0, 1, 0)
    else:
        if _sign(a - q, b, m) > 0:  # raw alpha > 1
            a, b, q = 1, 0, 1
        alpha = _quad(a, b, q, m)
        trace.append(f"alpha = min(1, {formulas[1]}) = {alpha}")

    # length - alpha/scale = (x + y*sqrt(m)) / (lq*q*sn)
    x, y = ln * q * sn - lq * sq * a, -lq * sq * b
    ta, tb, tq = a * x + b * y * m, a * y + b * x, q * lq * q * sn
    term_alpha = _quad(ta, tb, tq, m)
    trace.append(f"alpha term: {formulas[2]} = {term_alpha}")

    dn, dd = term_delta.numerator, term_delta.denominator
    if _sign(dn * tq - ta * dd, -tb * dd, m) > 0:  # delta term > alpha term
        value = term_alpha
    else:
        value = _quad(dn, 0, dd, 0)
    ceiling = math.ceil(value)
    trace.append(f"value = min of the two terms = {value}; "
                 f"smallest integer >= value: {ceiling}")
    return BoundReport(inputs=inputs, alpha=alpha, term_delta=term_delta,
                       term_alpha=term_alpha, value=value, value_ceiling=ceiling,
                       trace=tuple(trace))


def _interval_warning(eps: Fraction, interval: Optional[SeshadriInterval],
                      name: str, trace: list[str]) -> None:
    if interval is None:
        return
    if eps < interval.lower or quad_cmp(eps, interval.upper) > 0:
        trace.append(
            f"warning: {name} = {eps} lies outside the certified interval "
            f"[{interval.lower}, {interval.upper}]; the bound is hypothetical")


def gonality_bound(c: CurveGeometry, eps: RationalLike,
                   interval: Optional[SeshadriInterval] = None) -> BoundReport:
    """Lower bound for the gonality of a smooth curve in P^3, evaluated
    at eta = eps.  Valid when eps is at most the Seshadri constant of
    the curve; pass the certified interval to get a trace warning when
    eps falls outside it."""
    if c.r != 3:
        raise UnsupportedDimension(f"gonality bound is certified for r = 3, got r = {c.r}")
    eps = _exact_rational(eps)
    if eps <= 0:
        raise NonpositiveEpsilon(f"eta must be positive, got {eps}")

    trace: list[str] = [
        f"inputs: d = {c.d}, g = {c.g}, r = 3, eta = {eps}",
        f"deg_N = (r+1)d + 2g - 2 = {c.deg_n}",
    ]
    _interval_warning(eps, interval, "eta", trace)

    delta = delta_eta(c, eps)
    trace.append(f"delta = eta*deg_N - d = {delta}")
    return _two_term_bound(
        {"d": c.d, "g": c.g, "r": c.r, "eta": eps}, trace, delta,
        (c.d, 1), (c.d, 1), (eps.numerator, eps.denominator),
        ("delta/(4*eta)", f"sqrt({c.d}) - eta*d", "alpha*(d - alpha/eta)"))


def _general_r_report(c: CurveGeometry, eps: Fraction, delta: Fraction,
                      convention: str) -> BoundReport:
    trace: list[str] = [
        f"inputs: d = {c.d}, g = {c.g}, r = {c.r}, eta = {eps}",
        f"deg_N = (r+1)d + 2g - 2 = {c.deg_n}",
        f"delta ({convention} convention) = {delta}",
    ]
    p, q, e = eps.numerator, eps.denominator, c.r - 2
    return _two_term_bound(
        {"d": c.d, "g": c.g, "r": c.r, "eta": eps,
         "delta_convention": convention}, trace, delta,
        (eps ** (e - 1) * c.d, 1), (c.d, 1), (p ** e, q ** e),
        ("delta/(4*eta^(r-2))", "sqrt(eta^(r-3)*d) - eta^(r-2)*d",
         "alpha*(d - alpha/eta^(r-2))"))


def gonality_bound_general_r(c: CurveGeometry, eps: RationalLike) -> GeneralRGonalityReport:
    """Gonality bound for a curve in P^r, r >= 3, evaluated under BOTH
    delta conventions (the compact eta^(r-3)(eta deg_N - d) form and
    the intersection-table form eta^(r-2) deg_N - (r-2) eta^(r-3) d).
    They agree at r = 3, where the result matches gonality_bound and is
    certified; for r > 3 a disagreement is flagged, not resolved."""
    eps = _exact_rational(eps)
    if eps <= 0:
        raise NonpositiveEpsilon(f"eta must be positive, got {eps}")

    d_compact = delta_eta_compact(c, eps)
    d_segre = delta_eta_segre(c, eps)
    compact = _general_r_report(c, eps, d_compact, "compact")
    segre = _general_r_report(c, eps, d_segre, "intersection-table")

    discrepancies: tuple[Discrepancy, ...] = ()
    if d_compact != d_segre:
        discrepancies = (Discrepancy(
            code="delta-convention-mismatch",
            message=(f"the two delta conventions disagree at r = {c.r}: "
                     f"compact {d_compact} vs intersection-table {d_segre}; "
                     "both bounds are reported, neither is certified"),
            data={"delta_compact": d_compact, "delta_segre": d_segre,
                  "term_delta_compact": compact.term_delta,
                  "term_delta_segre": segre.term_delta},
        ),)
    return GeneralRGonalityReport(
        compact=compact,
        segre=segre,
        certified=(c.r == 3),
        discrepancies=discrepancies,
    )


def pencil_degree_bound_subvariety(x_degree: RationalLike, deg_n_dot: RationalLike,
                                   n: int, eps: RationalLike, r: int) -> BoundReport:
    """Degree bound for a member of a pencil with small base locus on an
    n-dimensional subvariety of P^r of degree x_degree, given the
    normal-bundle product c1(N).H^(n-1) and a Seshadri lower bound eps.
    Formula evaluator only; for n = 1, r = 3 it reduces exactly to
    gonality_bound with deg_N = deg_n_dot."""
    d = _exact_rational(x_degree)
    deg_n_dot = _exact_rational(deg_n_dot)
    eps = _exact_rational(eps)
    n, r = _exact_int(n), _exact_int(r)
    if d <= 0 or deg_n_dot <= 0 or n < 1 or r < 3:
        raise ValueError("x_degree, deg_n_dot must be positive; n >= 1, r >= 3")
    if eps <= 0:
        raise NonpositiveEpsilon(f"eps must be positive, got {eps}")

    trace: list[str] = [
        f"inputs: deg X = {d}, c1(N).H^(n-1) = {deg_n_dot}, n = {n}, "
        f"r = {r}, eps = {eps}",
    ]
    delta = eps * (deg_n_dot + (n - 1) * d) - d
    trace.append(f"delta = eps*(c1(N).H^(n-1) + (n-1)d) - d = {delta}")
    p, q, e = eps.numerator, eps.denominator, r - 2
    return _two_term_bound(
        {"x_degree": d, "deg_n_dot": deg_n_dot, "n": n, "r": r, "eps": eps},
        trace, delta, (eps ** (e - 1) * d, 1), (d.numerator, d.denominator),
        (p ** e, q ** e),
        ("delta/(4*eps^(r-2))", "sqrt(eps^(r-3)*d) - eps^(r-2)*d",
         "alpha*(d - alpha/eps^(r-2))"))


def gamma_lower(c: CurveGeometry, surfaces: list[tuple[int, bool]],
                eps_interval: SeshadriInterval) -> StabilityConstant:
    """Lower bound for the stability constant from surfaces through the
    curve: each surface of degree a on which the bundle restricts
    stably certifies gamma >= min(1/a, eps_lower); the best one wins.

    Raises NoEvidence when no surface qualifies (the constant is then
    still positive, but no effective value is certified here)."""
    trace: list[str] = [f"eps lower bound: {eps_interval.lower}"]
    best: Optional[Fraction] = None
    for degree, stable in surfaces:
        if _exact_int(degree) <= 0:
            raise ValueError(f"surface degree must be positive, got {degree}")
        if not stable:
            trace.append(f"surface of degree {degree}: restriction not known "
                         "stable, skipped")
            continue
        contrib = min(Fraction(1, degree), eps_interval.lower)
        trace.append(f"surface of degree {degree}: stable restriction gives "
                     f"gamma >= min(1/{degree}, {eps_interval.lower}) = {contrib}")
        if best is None or contrib > best:
            best = contrib
    if best is None:
        raise NoEvidence(
            "no surface with a stable restriction; gamma is positive but "
            "unquantified")
    trace.append(f"gamma >= {best}")
    return StabilityConstant(gamma_lower=best, trace=tuple(trace))


def restriction_threshold(c: CurveGeometry, gamma: RationalLike,
                          interval: Optional[SeshadriInterval] = None) -> BoundReport:
    """Threshold on c2: a stable rank-two bundle on P^3 with c1 = 0 and
    c2 strictly below this value restricts stably to the curve.  Valid
    when gamma is at most the stability constant of the pair."""
    if c.r != 3:
        raise UnsupportedDimension(
            f"restriction threshold is certified for r = 3, got r = {c.r}")
    gamma = _exact_rational(gamma)
    if gamma <= 0:
        raise NonpositiveGamma(f"gamma must be positive, got {gamma}")

    trace: list[str] = [
        f"inputs: d = {c.d}, g = {c.g}, r = 3, gamma = {gamma}",
        f"deg_N = (r+1)d + 2g - 2 = {c.deg_n}",
    ]
    _interval_warning(gamma, interval, "gamma", trace)

    delta = delta_eta(c, gamma)
    trace.append(f"delta = gamma*deg_N - d = {delta}")
    # sqrt(d)*sqrt(3/4) = sqrt(3d)/2: the root (3d, 2) keeps 3d as the
    # capped radicand; at length gamma*d and scale 1 the kernel's alpha
    # term is alpha*gamma*d - alpha^2
    return _two_term_bound(
        {"d": c.d, "g": c.g, "r": c.r, "gamma": gamma}, trace, delta,
        (3 * c.d, 2), (gamma.numerator * c.d, gamma.denominator), (1, 1),
        ("delta/4", f"sqrt(3*{c.d})/2 - gamma*d", "alpha*gamma*d - alpha^2"))


def certify_restriction_stable(c: CurveGeometry, gamma: RationalLike, c2: int,
                               interval: Optional[SeshadriInterval] = None,
                               ) -> CertificationResult:
    """Certified iff c2 < restriction_threshold value, strictly and
    exactly.  The bundle is assumed stable on P^3 with c1 = 0."""
    c2 = _exact_int(c2)
    report = restriction_threshold(c, gamma, interval)
    if quad_cmp(c2, report.value) < 0:
        return CertificationResult(
            verdict="certified", c2=c2, report=report,
            reason=f"c2 = {c2} < threshold {report.value} (strict)")
    return CertificationResult(
        verdict="inconclusive", c2=c2, report=report,
        reason=f"c2 = {c2} is not strictly below threshold {report.value}")


def barth_check(a: int, c2: int) -> bool:
    """Restriction to a general degree-a surface stays stable when
    a > 2*c2, provided c2 != 1 (the null-correlation case is excluded)."""
    a, c2 = _exact_int(a), _exact_int(c2)
    if c2 == 1:
        raise NullCorrelationExcluded(
            "c2 = 1 is excluded from the generic-surface criterion")
    return a > 2 * c2


def c2plus2_check(b: int, c2: int) -> bool:
    """Restriction to a general degree-b surface stays stable when
    b >= c2 + 2."""
    b, c2 = _exact_int(b), _exact_int(c2)
    return b >= c2 + 2


def ci_curve_check(a: int, b: int, c2: int) -> bool:
    """Restriction to a general complete-intersection curve of type
    (a, b) stays stable when a >= 4b/3 + 10/3 and b >= c2 + 2."""
    a, b, c2 = _exact_int(a), _exact_int(b), _exact_int(c2)
    return 3 * a >= 4 * b + 10 and b >= c2 + 2


def surface_restriction_checks(variant: str, c2: int, *,
                               a: Optional[int] = None,
                               b: Optional[int] = None) -> bool:
    """Dispatch to one of the three restriction criteria: "barth"
    (needs a), "c2plus2" (needs b), "ci_curve" (needs a and b)."""
    if variant == "barth":
        if a is None:
            raise ValueError("barth variant needs a surface degree a")
        return barth_check(a, c2)
    if variant == "c2plus2":
        if b is None:
            raise ValueError("c2plus2 variant needs a surface degree b")
        return c2plus2_check(b, c2)
    if variant == "ci_curve":
        if a is None or b is None:
            raise ValueError("ci_curve variant needs both degrees a and b")
        return ci_curve_check(a, b, c2)
    raise ValueError(f"unknown variant: {variant!r}")


def linked_line_claim_gap(a: int, b: int) -> Optional[Discrepancy]:
    """For the curve linked to a line by surfaces of type (a, b), with
    its liaison genus, compare the gonality bound at eta = 1/(a+b-2)
    with the residual-pencil degree (a-1)(b-1).  The bound falls short;
    the gap is reported as a structured warning."""
    a, b = _exact_int(a), _exact_int(b)
    c = CurveGeometry(d=a * b - 1, g=linked_line_genus(a, b))
    eps = Fraction(1, a + b - 2)
    report = gonality_bound(c, eps)
    pencil = (a - 1) * (b - 1)
    if quad_cmp(report.value, Fraction(pencil)) >= 0:
        return None
    return Discrepancy(
        code="linked-line-pencil-gap",
        message=(f"for the curve linked to a line by type ({a}, {b}) surfaces, "
                 f"the bound value {report.value} (ceiling {report.value_ceiling}) "
                 f"is below the residual-pencil degree (a-1)(b-1) = {pencil}; "
                 "the bound is not sharp for this family"),
        data={"bound_value": report.value,
              "bound_ceiling": report.value_ceiling,
              "pencil_degree": pencil},
    )
