"""Certified interval for the Seshadri constant of a curve, combined
from typed evidence items.

Each evidence kind is one row of ``EVIDENCE_KINDS`` and certifies a
lower bound, an upper bound, or both; the combiner takes the max of lower bounds and the min of upper bounds,
always injecting two unconditional defaults:

* ``1/d <= eps <= 1/sqrt(d)`` (degree alone), and
* ``eps <= 2d/deg_N`` (the normal bundle's instability measure is at
  least half its degree, so the sub-line-bundle upper bound
  ``eps <= d/s_N`` holds at worst with ``s_N = deg_N/2``).

The result is rejected (``InconsistentEvidence``) when the interval is
empty or when its lower endpoint violates the genus bound
``g <= d^2 eps/2 + d(1/(2 eps) - 2) + 1``, which at eps > 0 is
``lambda_eps >= 0``.

Facts asserted by evidence (regularity, global generation, secant
structure, ...) are trusted as stated; nothing is computed from
equations here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Union

from ._record import record, render
from .blowup import CurveGeometry, _lambda_num
from .errors import (
    DegenerateInput,
    EvidenceInconsistentWithDegree,
    InconsistentEvidence,
)
from .scalar import (
    QuadNumber,
    RationalLike,
    _quad,
    _rational_cmp,
    _sqrt_parts,
    capped_rational as _capped_rational,
    exact_int as _exact_int,
    exact_rational as _exact_rational,
)

BoundValue = Union[Fraction, QuadNumber]


@record
class Evidence:
    """One typed assertion about the curve, with an optional free-text
    note.  Construction validates the parameters against the kind's
    row: an unknown kind raises ValueError, a wrong parameter count
    TypeError; then each parameter must be an exact integer (or a
    rational where the row says so, within the digit cap; a float or
    bool raises TypeError), positive, and fit the kind's shape rule
    (ValueError).  ``params`` keeps the checked values."""

    kind: str
    params: tuple
    note: str = ""

    def __post_init__(self) -> None:
        kind, params = self.kind, self.params
        row = _row(kind)
        fields = row.fields
        if len(params) != len(fields):
            raise TypeError(f"{kind} takes the parameters ({', '.join(fields)}), "
                            f"got {len(params)}")
        params = tuple([_capped_rational(v) if name in row.rational else _exact_int(v)
                        for name, v in zip(fields, params)])
        for name, v in zip(fields, params):
            if v <= 0:
                raise ValueError(f"{kind}: parameter {name} must be positive, got {v}")
        if row.shape is not None and not row.shape[1](*params):
            raise ValueError(f"{kind} requires {row.shape[0]}, "
                             f"got ({', '.join(map(str, params))})")
        object.__setattr__(self, "params", params)

    def __str__(self) -> str:
        names = EVIDENCE_KINDS[self.kind].fields
        inner = ", ".join(f"{n}={v}" for n, v in zip(names, self.params))
        return f"{self.kind}({inner})"


@record
class EvidenceKind:
    """One row of the evidence table: the kind's parameter names in
    order, the bound it certifies, which parameters are rationals (the
    rest are integers), and an optional shape rule beyond positivity,
    given as (text, predicate)."""

    fields: tuple[str, ...]
    # (curve, *params) -> {field: bound} over "lower" and "upper" (on eps)
    # and "eps2_lower" (on the residual-pencil component eps2, which bounds
    # eps only when paired with an exact eps1)
    bound: Callable[..., dict]
    rational: tuple[str, ...] = ()
    shape: Optional[tuple[str, Callable[..., bool]]] = None


def _regularity_bound(c: CurveGeometry, m: int) -> dict:
    return {"lower": Fraction(1, m),
            "upper": Fraction(2, m - 1) if m >= 2 else None}


def _secant_line_bound(c: CurveGeometry, l: int) -> dict:
    if l > c.d:
        raise EvidenceInconsistentWithDegree(
            f"a {l}-secant line is impossible for degree {c.d}")
    return {"upper": Fraction(1, l)}


def _complete_intersection_bound(c: CurveGeometry, a: int, b: int) -> dict:
    if c.d != a * b:
        raise EvidenceInconsistentWithDegree(
            f"complete_intersection({a},{b}) needs d = {a * b}, curve has d = {c.d}")
    return {"lower": Fraction(1, a), "upper": Fraction(1, a)}


def linked_line_genus(a: int, b: int) -> int:
    """Genus (a+b-4)(ab-2)/2 of the curve residual to a line in a
    complete intersection of type (a, b), by liaison."""
    return (a + b - 4) * (a * b - 2) // 2


def _linked_line_bound(c: CurveGeometry, a: int, b: int) -> dict:
    if c.d != a * b - 1:
        raise EvidenceInconsistentWithDegree(
            f"linked_line({a},{b}) needs d = {a * b - 1}, curve has d = {c.d}")
    q = Fraction(1, a + b - 2)
    return {"lower": q, "upper": q}


def _normal_bundle_bound(c: CurveGeometry, s_n: Fraction) -> dict:
    if 2 * s_n.numerator < c.deg_n * s_n.denominator:
        raise EvidenceInconsistentWithDegree(
            f"s_N = {s_n} is below deg_N/2 = {Fraction(c.deg_n, 2)}, "
            "impossible for a rank-two normal bundle")
    return {"upper": Fraction(c.d * s_n.denominator, s_n.numerator)}


def _residual_reduced_bound(c: CurveGeometry, a: int, b: int) -> dict:
    if c.d > a * b - 1:
        raise EvidenceInconsistentWithDegree(
            f"residual_reduced({a},{b}) needs d <= {a * b - 1}, curve has d = {c.d}")
    return {"eps2_lower": Fraction(1, a + b - 2)}


_A_AT_LEAST_B = ("a >= b", lambda a, b: a >= b)
_NOT_BOTH_ONE = ("a + b >= 3", lambda a, b: a + b >= 3)

# The one place an evidence kind is declared: construction, bounds, JSON
# and printing all read this table, so a new kind is one new row.
EVIDENCE_KINDS: dict[str, EvidenceKind] = {
    # 1/sqrt(d) = sqrt(1/d), from the square-free split of d
    "degree_default": EvidenceKind(
        (), lambda c: {"lower": Fraction(1, c.d), "upper": _quad(*_sqrt_parts(1, c.d))}),
    "global_generation": EvidenceKind(
        ("n", "m"), lambda c, n, m: {"lower": Fraction(n, m)}),
    "regularity": EvidenceKind(("m",), _regularity_bound),
    "secant_line": EvidenceKind(("l",), _secant_line_bound),
    "complete_intersection": EvidenceKind(
        ("a", "b"), _complete_intersection_bound, shape=_A_AT_LEAST_B),
    "linked_line": EvidenceKind(
        ("a", "b"), _linked_line_bound, shape=_NOT_BOTH_ONE),
    "normal_bundle_s": EvidenceKind(
        ("s_n",), _normal_bundle_bound, rational=("s_n",)),
    "bundle_seshadri": EvidenceKind(
        ("n", "m"), lambda c, n, m: {"lower": Fraction(n, m)}),
    "residual_reduced": EvidenceKind(
        ("a", "b"), _residual_reduced_bound, shape=_NOT_BOTH_ONE),
    "assert_exact": EvidenceKind(
        ("q",), lambda c, q: {"lower": q, "upper": q}, rational=("q",)),
}


def _row(kind: str) -> EvidenceKind:
    row = EVIDENCE_KINDS.get(kind)
    if row is None:
        raise ValueError(f"unknown evidence kind: {kind!r}")
    return row


_DEGREE_DEFAULT = Evidence("degree_default", (), "injected default")


@record
class SeshadriInterval:
    """Certified bounds lower <= eps(C) <= upper with full provenance.

    ``lower_trace`` / ``upper_trace`` list every candidate bound that
    entered the combination, extremes included.  ``note_steps`` keeps
    each informational message (residual evidence paired, or recorded
    but not combined) as ``(template, exact values...)``; ``notes``
    renders them on read."""

    lower: Fraction
    upper: QuadNumber
    lower_trace: tuple[tuple[Evidence, Fraction], ...]
    upper_trace: tuple[tuple[Evidence, BoundValue], ...]
    note_steps: tuple[tuple, ...] = ()

    # asdict, and so the JSON payload, shows the rendered notes in the
    # place of their steps
    __record_view__ = {"note_steps": "notes"}

    @property
    def notes(self) -> tuple[str, ...]:
        """The messages as text, one line each."""
        return render(self.note_steps)

    @property
    def lower_witness(self) -> Evidence:
        """The evidence achieving the reported lower bound: the first
        candidate equal to it, as ``combine`` chose it."""
        return next(ev for ev, v in self.lower_trace if v == self.lower)

    @property
    def upper_witness(self) -> Evidence:
        """The evidence achieving the reported upper bound: the first
        candidate equal to it, as ``combine`` chose it."""
        return next(ev for ev, v in self.upper_trace if self.upper == v)

    @property
    def is_point(self) -> bool:
        return self.upper == self.lower

    def __contains__(self, q: RationalLike) -> bool:
        q = _exact_rational(q)
        p, s = q.numerator, q.denominator
        return (self.lower.numerator * s <= p * self.lower.denominator
                and _rational_cmp(p, s, self.upper) <= 0)


def _normal_bundle_default(c: CurveGeometry) -> Evidence:
    """The injected worst case s_N = deg_N/2, built without Evidence's
    checks: it is positive, as deg_N = 4d + 2g - 2 >= 2, and it is
    derived from the curve, so it may be as wide as MAX_CURVE_DIGITS
    allows, where the digit cap is for rationals that enter the program
    (a complete intersection at the cap would be refused for its
    width)."""
    ev = object.__new__(Evidence)
    ev.__dict__.update(kind="normal_bundle_s", params=(Fraction(c.deg_n, 2),),
                       note="injected default: worst-case instability measure")
    return ev


_PAIRED = "{} paired with exact eps1 = {}: eps >= min(eps1, {}) = {}"
_NOT_COMBINED = ("{} certifies eps2 >= {} only; not combined "
                 "(no exact sub-line-bundle degree for eps1)")


def combine(c: CurveGeometry, evidence: list[Evidence]) -> SeshadriInterval:
    """Combine evidence into a certified interval, injecting the
    unconditional defaults, pairing residual-pencil bounds with exact
    sub-line-bundle data, and gating the result on the genus bound.
    The lower end is chosen by integer cross-multiplication, the upper
    end by ``_rational_cmp`` of each Fraction candidate against the
    degree default 1/sqrt(d) or the smaller candidate that replaced it;
    ties keep the first candidate, which is the witness the interval
    names.  The genus gate refuses a lower end p/q whose lambda, from
    blowup's one formula ``_lambda_num``, is negative, in integers."""
    defaults = [_DEGREE_DEFAULT, _normal_bundle_default(c)]
    lower_trace: list[tuple[Evidence, Fraction]] = []
    upper_trace: list[tuple[Evidence, BoundValue]] = []
    note_steps: list[tuple] = []
    residuals: list[tuple[Evidence, Fraction]] = []
    candidates = {"lower": lower_trace, "upper": upper_trace,
                  "eps2_lower": residuals}
    # exact eps1 values come only from user-supplied sub-line-bundle
    # degrees; the injected worst case is an upper bound, not exact
    exact_eps1 = [Fraction(c.d) / ev.params[0]
                  for ev in evidence if ev.kind == "normal_bundle_s"]

    for ev in (*defaults, *evidence):
        # a field left None certifies nothing (regularity at m = 1)
        for field, v in EVIDENCE_KINDS[ev.kind].bound(c, *ev.params).items():
            if v is not None:
                candidates[field].append((ev, v))

    for ev, eps2 in residuals:
        if exact_eps1:
            # eps = min(eps1, eps2); eps1 is exact, eps2 is bounded below
            eps1 = min(exact_eps1)
            paired = min(eps1, eps2)
            lower_trace.append((ev, paired))
            note_steps.append((_PAIRED, ev, eps1, eps2, paired))
        else:
            note_steps.append((_NOT_COMBINED, ev, eps2))

    # the degree default comes first, so both traces are nonempty
    lower_ev, lower = lower_trace[0]
    p, q = lower.numerator, lower.denominator
    for ev, v in lower_trace:
        if v.numerator * q > p * v.denominator:
            lower_ev, lower, p, q = ev, v, v.numerator, v.denominator
    # the upper end starts at 1/sqrt(d), the one candidate that is not
    # a Fraction
    upper = upper_trace[0][1]
    for _, v in upper_trace[1:]:
        if _rational_cmp(v.numerator, v.denominator, upper) < 0:
            upper = _quad(v.numerator, 0, v.denominator, 0)

    if _rational_cmp(p, q, upper) > 0:
        raise InconsistentEvidence(
            f"lower bound {lower} exceeds upper bound {upper} "
            f"(lower from {lower_ev})")
    if _lambda_num(c, p, q) < 0:
        raise InconsistentEvidence(
            f"lower bound {lower} violates the genus bound for d = {c.d}, g = {c.g}")

    return SeshadriInterval(lower, upper, tuple(lower_trace), tuple(upper_trace),
                            tuple(note_steps))


def castelnuovo_default(c: CurveGeometry) -> Evidence:
    """Regularity at most d - 1 for a nondegenerate curve in P^3,
    packaged as regularity evidence.  Degenerate/low-degree input is
    rejected; the caller asserts nondegeneracy."""
    if c.d <= 1:
        raise DegenerateInput(
            f"regularity default needs d >= 2, got d = {c.d}")
    # valid by construction: d - 1 >= 1 is an int, as CurveGeometry checks
    return Evidence("regularity", (c.d - 1,),
                    "regularity from degree (nondegenerate curve)")
