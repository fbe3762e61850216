"""Exact evaluation of the two main numeric bounds for a smooth space
curve, with full step-by-step traces:

* a lower bound on the gonality,
      gon(C) >= min{ delta_eta/(4 eta), alpha (d - alpha/eta) },
  with alpha = min{1, sqrt(d)(1 - eta sqrt(d))} clamped at 0, and

* a threshold on c_2 below which restriction of a stable rank-two
  bundle (c_1 = 0) to the curve stays stable,
      c_2 < min{ delta_gamma/4, alpha gamma d - alpha^2 },
  with alpha = min{1, sqrt(3d)/2 - gamma d} clamped at 0.

Both bounds here are one two-term computation (``_two_term_core``)
in the integer numerators of Q(sqrt(m)).  Each bound is declared once,
by ``_spec``: its parameter's name and error, its trivial bound, its
shape (the root, length and scale at x) and its trace templates.
``_two_term_bound`` turns the core's integers into a report that also
steps the inputs and delta, and ``_checked`` checks each entry point's
parameter and interval, so an entry point is one call.  Each result is
normalised once; ceilings are certified.  A c2 certification runs the
core alone and builds no report.  A report records each trace line as a
step ``(template, exact values...)`` and renders its text only when
``trace`` is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional

from ._record import record, render, replace
from .blowup import CurveGeometry
from .errors import (
    NoEvidence,
    NonpositiveEta,
    NonpositiveGamma,
    NullCorrelationExcluded,
    TooManyDigits,
)
from .scalar import (
    QuadNumber,
    RationalLike,
    _quad,
    _rational_cmp,
    _sign,
    _sqrt_parts,
    capped_rational as _capped_rational,
    exact_int as _exact_int,
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
    certified integer ceiling, and the evaluation steps.  Each step is
    a trace line kept as ``(template, exact values...)``; ``trace``
    renders them on read."""

    inputs: dict
    alpha: QuadNumber
    term_delta: Fraction
    term_alpha: QuadNumber
    value: QuadNumber
    value_ceiling: int
    steps: tuple[tuple, ...]
    discrepancies: tuple[Discrepancy, ...] = ()

    # asdict, and so the JSON payload, shows the rendered trace in the
    # place of the steps
    __record_view__ = {"steps": "trace"}

    @property
    def trace(self) -> tuple[str, ...]:
        """The steps as text, one line each."""
        return render(self.steps)


@record
class StabilityConstant:
    """A certified lower bound on the stability constant gamma, from
    surfaces through the curve on which the bundle restricts stably."""

    gamma_lower: Fraction
    trace: tuple[str, ...]


@record
class CertificationResult:
    """Outcome of comparing c2 against the restriction threshold's
    value, ``threshold``."""

    verdict: str  # "certified" | "inconclusive"
    c2: int
    threshold: QuadNumber

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    @property
    def reason(self) -> str:
        """The verdict as text, rendered on read."""
        if self.certified:
            return f"c2 = {self.c2} < threshold {self.threshold} (strict)"
        return f"c2 = {self.c2} is not strictly below threshold {self.threshold}"


def _spec(name: str, error: type, trivial: tuple, shape: Callable, delta_term: str,
          alpha: str, alpha_term: str) -> tuple:
    """All the kernel needs to know of one bound beyond the curve and x:
    its parameter's name, the error a nonpositive x raises, its
    ``trivial`` pair (the bound every input meets, why: an integer bound
    at or below it is vacuous, and the report says so), its
    ``shape(c, x) -> (root, length, scale)`` (the kernel's arguments at
    x) and its trace templates (inputs, delta, delta term, clamped
    alpha, alpha, alpha term), built here once from the names of its
    delta term, raw alpha and alpha term.  Each ``{}`` left open takes
    an exact value."""
    return (name, error, trivial, shape,
            (f"inputs: d = {{}}, g = {{}}, r = 3, {name} = {{}}",
             f"delta = {name}*deg_N - d = {{}}",
             f"delta term: {delta_term} = {{}}",
             f"alpha = {alpha} clamped to 0 (raw value {{}} < 0)",
             f"alpha = min(1, {alpha}) = {{}}",
             f"alpha term: {alpha_term} = {{}}"))


# the raw alpha of each bound names d: its "{}" takes c.d
_GONALITY = _spec("eta", NonpositiveEta, (1, "every curve has gonality at least 1"),
                  lambda c, x: ((c.d, 1), (c.d, 1), x.as_integer_ratio()),
                  "delta/(4*eta)", "sqrt({}) - eta*d", "alpha*(d - alpha/eta)")
# sqrt(d)*sqrt(3/4) = sqrt(3d)/2: the root (3d, 2) keeps 3d as the capped
# radicand; at length gamma*d and scale 1 the kernel's alpha term is
# alpha*gamma*d - alpha^2
_THRESHOLD = _spec("gamma", NonpositiveGamma, (0, "no c2 >= 0 lies below it"),
                   lambda c, x: ((3 * c.d, 2), (x.numerator * c.d, x.denominator), (1, 1)),
                   "delta/4", "sqrt(3*{})/2 - gamma*d", "alpha*gamma*d - alpha^2")
_VALUE = "value = min of the two terms = {}; smallest integer >= value: {}"
_DEG_N = "deg_N = (r+1)d + 2g - 2 = {}"
_OUTSIDE = ("warning: {} = {} lies outside the certified interval "
            "[{}, {}]; the bound is hypothetical")
# Python prints an int of at most 4,300 digits by default; a curve at
# MAX_CURVE_DIGITS and a rational at MAX_DIGITS each pass their own cap,
# but delta's numerator p*deg_N - q*d can then have ~5,600
_PRINTABLE = 10**4300


def _two_term_core(c: CurveGeometry, x: Fraction, spec: tuple) -> tuple:
    """The integers of the computation both bounds share, at x = eta or
    gamma, for the bound ``spec`` declares (``_spec``):
        min{ delta/(4 scale), alpha (length - alpha/scale) },
    with delta = x deg_N - d and alpha = min{1, sqrt(u)/w - length*scale}
    clamped at 0, where the spec's shape gives root = (u, w) in integers
    and ``length`` and ``scale`` as (numerator, denominator) pairs,
    denominators and scale positive.  Returns (delta's numerator over
    x's denominator, the delta term (n, q), the raw alpha when it was
    clamped to 0 or None, alpha, the alpha term, the smaller term), each
    value of Q(sqrt(m)) as parts (a, b, q, m) of (a + b*sqrt(m))/q,
    q > 0, not reduced.  The raw alpha's signs and the smaller term come
    from ``_sign``."""
    name, _, _, shape, _ = spec
    (u, w), (ln, lq), (sn, sq) = shape(c, x)
    dnum = x.numerator * c.deg_n - x.denominator * c.d
    # raw alpha = (a + b*sqrt(m))/q; u meets the radicand cap in the split
    a, b, s, m = _sqrt_parts(u, 1)
    # every value delta enters has a numerator that divides this one
    if abs(dnum) >= _PRINTABLE:
        raise TooManyDigits(
            f"delta = {name}*deg_N - d has a numerator of more than 4300 digits, "
            f"too many to print: {name} and the curve each pass their digit cap, "
            "but not together")
    dn, dd = dnum * sq, 4 * x.denominator * sn
    a, b, q = a * lq * sq - ln * sn * s * w, b * lq * sq, s * w * lq * sq
    raw = None
    if _sign(a, b, m) < 0:
        raw = (a, b, q, m)
        a, b, q = 0, 0, 1
    elif _sign(a - q, b, m) > 0:  # raw alpha > 1
        a, b, q = 1, 0, 1

    # length - alpha/scale = (xn + yn*sqrt(m)) / (lq*q*sn)
    xn, yn = ln * q * sn - lq * sq * a, -lq * sq * b
    ta, tb, tq = a * xn + b * yn * m, a * yn + b * xn, q * lq * q * sn
    # the sign of delta term - alpha term, over dd*tq > 0
    if _sign(dn * tq - dd * ta, -dd * tb, m) > 0:  # delta term > alpha term
        value = (ta, tb, tq, m)
    else:
        value = (dn, 0, dd, 0)
    return dnum, (dn, dd), raw, (a, b, q, m), (ta, tb, tq, m), value


def _two_term_bound(c: CurveGeometry, x: Fraction,
                    interval: Optional[SeshadriInterval], spec: tuple) -> BoundReport:
    """The report of ``_two_term_core`` at x, with its certified
    ceiling; ``spec`` comes from ``_spec``.  The report steps the
    inputs, deg_N, a warning when x falls outside ``interval`` and
    delta, then the two terms and their minimum.  Each QuadNumber is
    normalised once, by ``_quad``."""
    name, _, trivial, _, (t_inputs, t_delta, t_term, t_clamped, t_alpha, t_alpha_term) = spec
    dnum, (dn, dd), raw, alpha, term_alpha, value = _two_term_core(c, x, spec)
    steps: list[tuple] = [(t_inputs, c.d, c.g, x), (_DEG_N, c.deg_n)]
    if interval is not None and x not in interval:
        steps.append((_OUTSIDE, name, x, interval.lower, interval.upper))
    steps.append((t_delta, Fraction(dnum, x.denominator)))
    term_delta = Fraction(dn, dd)
    steps.append((t_term, term_delta))
    alpha = _quad(*alpha)
    if raw is None:
        steps.append((t_alpha, c.d, alpha))
    else:
        steps.append((t_clamped, c.d, _quad(*raw)))
    term_alpha = _quad(*term_alpha)
    steps.append((t_alpha_term, term_alpha))
    value = _quad(*value)
    ceiling = math.ceil(value)
    steps.append((_VALUE, value, ceiling))
    vacuous: tuple[Discrepancy, ...] = ()
    if ceiling <= trivial[0]:
        vacuous = (Discrepancy(
            "vacuous-bound", f"the integer bound {ceiling} is at or below the "
            f"trivial bound {trivial[0]}: {trivial[1]}",
            {"value_ceiling": ceiling, "trivial_bound": trivial[0]}),)
    return BoundReport({"d": c.d, "g": c.g, "r": 3, name: x}, alpha, term_delta,
                       term_alpha, value, ceiling, tuple(steps), vacuous)


def _checked(spec: tuple, x: RationalLike,
             interval: Optional[SeshadriInterval]) -> Fraction:
    """x as a capped rational, once the interval is None or a
    SeshadriInterval (TypeError) and x is positive (the spec's error)."""
    name, error, _, _, _ = spec
    if interval is not None and not isinstance(interval, SeshadriInterval):
        raise TypeError(f"interval must be a SeshadriInterval or None, "
                        f"got {type(interval).__name__}")
    x = _capped_rational(x)
    if x.numerator <= 0:
        raise error(f"{name} must be positive, got {x}")
    return x


def gonality_bound(c: CurveGeometry, eps: RationalLike,
                   interval: Optional[SeshadriInterval] = None) -> BoundReport:
    """Lower bound for the gonality of a smooth curve in P^3, evaluated
    at eta = eps.  Valid when eps is at most the Seshadri constant of
    the curve; pass the certified interval to get a trace warning when
    eps falls outside it."""
    return _two_term_bound(c, _checked(_GONALITY, eps, interval), interval,
                           _GONALITY)


def gamma_lower(c: CurveGeometry, surfaces: list[tuple[int, bool]],
                eps_interval: SeshadriInterval) -> StabilityConstant:
    """Lower bound for the stability constant from surfaces through the
    curve: each surface of degree a on which the bundle restricts
    stably certifies gamma >= min(1/a, eps_lower); the best one wins.

    Each surface is (degree, stable), the degree an int and the flag a
    bool: any other flag, 1 or "no" among them, raises TypeError.
    Raises NoEvidence when no surface qualifies (the constant is then
    still positive, but no effective value is certified here)."""
    trace: list[str] = [f"eps lower bound: {eps_interval.lower}"]
    best: Optional[Fraction] = None
    for degree, stable in surfaces:
        if _exact_int(degree) <= 0:
            raise ValueError(f"surface degree must be positive, got {degree}")
        if not isinstance(stable, bool):
            raise TypeError(f"stable flag must be a bool, got {type(stable).__name__}")
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
    return _two_term_bound(c, _checked(_THRESHOLD, gamma, interval), interval,
                           _THRESHOLD)


def _certify(threshold: QuadNumber, c2: int) -> CertificationResult:
    """The one verdict on an exact int c2 against a threshold value:
    certified iff c2 < threshold, strictly and exactly."""
    verdict = ("certified" if _rational_cmp(c2, 1, threshold) < 0
               else "inconclusive")
    return CertificationResult(verdict, c2, threshold)


def certify_restriction_stable(c: CurveGeometry, gamma: RationalLike, c2: int,
                               interval: Optional[SeshadriInterval] = None,
                               ) -> CertificationResult:
    """Certified iff c2 < restriction_threshold value, strictly and
    exactly.  The bundle is assumed stable on P^3 with c1 = 0.  Only the
    kernel's integer core runs, and no report is built: the verdict does
    not read ``interval``, which feeds only a report's warning step, but
    its type is checked as ``restriction_threshold`` checks it."""
    c2 = _exact_int(c2)
    value = _two_term_core(c, _checked(_THRESHOLD, gamma, interval), _THRESHOLD)[-1]
    return _certify(_quad(*value), c2)


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


def _with_liaison_gap(report: BoundReport, a: int, b: int) -> BoundReport:
    """A gonality report on a ``linked_line(a, b)`` descriptor, with the
    pencil gap appended when its inputs are the liaison curve at its
    liaison eta = 1/(a+b-2) and its value falls below the
    residual-pencil degree (a-1)(b-1); a genus override or another eta
    gives a report on a different curve, which is returned as it is."""
    i = report.inputs
    pencil = (a - 1) * (b - 1)
    if ((i["d"], i["g"], i["eta"]) != (a * b - 1, linked_line_genus(a, b),
                                       Fraction(1, a + b - 2))
            or _rational_cmp(pencil, 1, report.value) <= 0):
        return report
    gap = Discrepancy(
        code="linked-line-pencil-gap",
        message=(f"for the curve linked to a line by type ({a}, {b}) surfaces, "
                 f"the bound value {report.value} (ceiling {report.value_ceiling}) "
                 f"is below the residual-pencil degree (a-1)(b-1) = {pencil}; "
                 "the bound is not sharp for this family"),
        data={"bound_value": report.value,
              "bound_ceiling": report.value_ceiling,
              "pencil_degree": pencil},
    )
    return replace(report, discrepancies=report.discrepancies + (gap,))
