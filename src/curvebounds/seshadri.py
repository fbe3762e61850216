"""Certified interval for the Seshadri constant of a curve, combined
from typed evidence items.

Each evidence kind certifies a lower bound, an upper bound, or both;
the combiner takes the max of lower bounds and the min of upper bounds,
always injecting two unconditional defaults:

* ``1/d <= eps <= 1/sqrt(d)`` (degree alone), and
* ``eps <= 2d/deg_N`` (the normal bundle's instability measure is at
  least half its degree, so the sub-line-bundle upper bound
  ``eps <= d/s_N`` holds at worst with ``s_N = deg_N/2``).

The result is rejected (``InconsistentEvidence``) when the interval is
empty or when its lower endpoint violates the genus bound
``g <= d^2 eps/2 + d(1/(2 eps) - 2) + 1``.

Facts asserted by evidence (regularity, global generation, secant
structure, ...) are trusted as stated; nothing is computed from
equations here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ._record import record
from .blowup import CurveGeometry, genus_consistency
from .errors import (
    DegenerateInput,
    EvidenceInconsistentWithDegree,
    InconsistentEvidence,
)
from .scalar import (
    QuadNumber,
    RationalLike,
    exact_int as _exact_int,
    exact_rational as _exact_rational,
    quad_cmp,
    sqrt_rational,
)

BoundValue = Union[Fraction, QuadNumber]

# evidence kinds
DEGREE_DEFAULT = "degree_default"
GLOBAL_GENERATION = "global_generation"
REGULARITY = "regularity"
SECANT_LINE = "secant_line"
COMPLETE_INTERSECTION = "complete_intersection"
LINKED_LINE = "linked_line"
NORMAL_BUNDLE_S = "normal_bundle_s"
BUNDLE_SESHADRI = "bundle_seshadri"
RESIDUAL_REDUCED = "residual_reduced"
ASSERT_EXACT = "assert_exact"

# kind -> parameter names, in order (used for validation and JSON)
EVIDENCE_FIELDS: dict[str, tuple[str, ...]] = {
    DEGREE_DEFAULT: (),
    GLOBAL_GENERATION: ("n", "m"),
    REGULARITY: ("m",),
    SECANT_LINE: ("l",),
    COMPLETE_INTERSECTION: ("a", "b"),
    LINKED_LINE: ("a", "b"),
    NORMAL_BUNDLE_S: ("s_n",),
    BUNDLE_SESHADRI: ("n", "m"),
    RESIDUAL_REDUCED: ("a", "b"),
    ASSERT_EXACT: ("q",),
}


@record
class Evidence:
    """One typed assertion about the curve, with an optional free-text
    note.  Build instances through the factory functions below, which
    validate parameters."""

    kind: str
    params: tuple
    note: str = ""

    def __str__(self) -> str:
        names = EVIDENCE_FIELDS[self.kind]
        inner = ", ".join(f"{n}={v}" for n, v in zip(names, self.params))
        return f"{self.kind}({inner})"


def _positive(kind: str, **values: RationalLike) -> None:
    for name, v in values.items():
        if v <= 0:
            raise ValueError(f"{kind}: parameter {name} must be positive, got {v}")


def degree_default(note: str = "") -> Evidence:
    return Evidence(DEGREE_DEFAULT, (), note)


def global_generation(n: int, m: int, note: str = "") -> Evidence:
    n, m = _exact_int(n), _exact_int(m)
    _positive(GLOBAL_GENERATION, n=n, m=m)
    return Evidence(GLOBAL_GENERATION, (n, m), note)


def regularity(m: int, note: str = "") -> Evidence:
    m = _exact_int(m)
    _positive(REGULARITY, m=m)
    return Evidence(REGULARITY, (m,), note)


def secant_line(l: int, note: str = "") -> Evidence:
    l = _exact_int(l)
    _positive(SECANT_LINE, l=l)
    return Evidence(SECANT_LINE, (l,), note)


def complete_intersection(a: int, b: int, note: str = "") -> Evidence:
    a, b = _exact_int(a), _exact_int(b)
    _positive(COMPLETE_INTERSECTION, a=a, b=b)
    if a < b:
        raise ValueError(f"complete_intersection requires a >= b, got ({a}, {b})")
    return Evidence(COMPLETE_INTERSECTION, (a, b), note)


def linked_line(a: int, b: int, note: str = "") -> Evidence:
    a, b = _exact_int(a), _exact_int(b)
    _positive(LINKED_LINE, a=a, b=b)
    if a + b < 3:
        raise ValueError(f"linked_line requires a + b >= 3, got ({a}, {b})")
    return Evidence(LINKED_LINE, (a, b), note)


def normal_bundle_s(s_n: RationalLike, note: str = "") -> Evidence:
    s_n = _exact_rational(s_n)
    _positive(NORMAL_BUNDLE_S, s_n=s_n)
    return Evidence(NORMAL_BUNDLE_S, (s_n,), note)


def bundle_seshadri(n: int, m: int, note: str = "") -> Evidence:
    n, m = _exact_int(n), _exact_int(m)
    _positive(BUNDLE_SESHADRI, n=n, m=m)
    return Evidence(BUNDLE_SESHADRI, (n, m), note)


def residual_reduced(a: int, b: int, note: str = "") -> Evidence:
    a, b = _exact_int(a), _exact_int(b)
    _positive(RESIDUAL_REDUCED, a=a, b=b)
    if a + b < 3:
        raise ValueError(f"residual_reduced requires a + b >= 3, got ({a}, {b})")
    return Evidence(RESIDUAL_REDUCED, (a, b), note)


def assert_exact(q: RationalLike, note: str = "") -> Evidence:
    q = _exact_rational(q)
    _positive(ASSERT_EXACT, q=q)
    return Evidence(ASSERT_EXACT, (q,), note)


@record
class EvidenceBound:
    """What one evidence item certifies: a lower bound on eps, an upper
    bound on eps, a lower bound on the residual-pencil component eps2
    (which only bounds eps when paired with an exact eps1 source), or a
    combination."""

    evidence: Evidence
    lower: Optional[Fraction] = None
    upper: Optional[BoundValue] = None
    eps2_lower: Optional[Fraction] = None
    note: str = ""

    @property
    def kind(self) -> str:
        if self.eps2_lower is not None:
            return "eps2_lower"
        if self.lower is not None and self.upper is not None:
            return "both"
        if self.lower is not None:
            return "lower"
        return "upper"


def bound_from_evidence(c: CurveGeometry, e: Evidence) -> EvidenceBound:
    """Exact bound(s) certified by one evidence item for the curve."""
    d = c.d
    if e.kind == DEGREE_DEFAULT:
        return EvidenceBound(e, lower=Fraction(1, d), upper=1 / sqrt_rational(d))
    if e.kind == GLOBAL_GENERATION:
        n, m = e.params
        return EvidenceBound(e, lower=Fraction(n, m))
    if e.kind == REGULARITY:
        (m,) = e.params
        upper = Fraction(2, m - 1) if m >= 2 else None
        return EvidenceBound(e, lower=Fraction(1, m), upper=upper)
    if e.kind == SECANT_LINE:
        (l,) = e.params
        if l > d:
            raise EvidenceInconsistentWithDegree(
                f"a {l}-secant line is impossible for degree {d}")
        return EvidenceBound(e, upper=Fraction(1, l))
    if e.kind == COMPLETE_INTERSECTION:
        a, b = e.params
        if d != a * b:
            raise EvidenceInconsistentWithDegree(
                f"complete_intersection({a},{b}) needs d = {a * b}, curve has d = {d}")
        return EvidenceBound(e, lower=Fraction(1, a), upper=Fraction(1, a))
    if e.kind == LINKED_LINE:
        a, b = e.params
        if d != a * b - 1:
            raise EvidenceInconsistentWithDegree(
                f"linked_line({a},{b}) needs d = {a * b - 1}, curve has d = {d}")
        q = Fraction(1, a + b - 2)
        return EvidenceBound(e, lower=q, upper=q)
    if e.kind == NORMAL_BUNDLE_S:
        (s_n,) = e.params
        if 2 * s_n < c.deg_n:
            raise EvidenceInconsistentWithDegree(
                f"s_N = {s_n} is below deg_N/2 = {Fraction(c.deg_n, 2)}, "
                "impossible for a rank-two normal bundle")
        return EvidenceBound(e, upper=Fraction(d) / s_n)
    if e.kind == BUNDLE_SESHADRI:
        n, m = e.params
        return EvidenceBound(e, lower=Fraction(n, m))
    if e.kind == RESIDUAL_REDUCED:
        a, b = e.params
        if d > a * b - 1:
            raise EvidenceInconsistentWithDegree(
                f"residual_reduced({a},{b}) needs d <= {a * b - 1}, curve has d = {d}")
        return EvidenceBound(e, eps2_lower=Fraction(1, a + b - 2))
    if e.kind == ASSERT_EXACT:
        (q,) = e.params
        return EvidenceBound(e, lower=q, upper=q)
    raise ValueError(f"unknown evidence kind: {e.kind!r}")


@record
class SeshadriInterval:
    """Certified bounds lower <= eps(C) <= upper with full provenance.

    ``lower_trace`` / ``upper_trace`` list every candidate bound that
    entered the combination, extremes included; ``notes`` collects
    informational messages (defaults injected, evidence recorded but
    not combined, ...)."""

    lower: Fraction
    upper: QuadNumber
    lower_trace: tuple[tuple[Evidence, Fraction], ...]
    upper_trace: tuple[tuple[Evidence, BoundValue], ...]
    notes: tuple[str, ...] = ()

    @property
    def lower_witness(self) -> Evidence:
        """The evidence achieving the reported lower bound."""
        return max(self.lower_trace, key=lambda t: t[1])[0]

    @property
    def upper_witness(self) -> Evidence:
        best_ev, best = self.upper_trace[0]
        for ev, v in self.upper_trace[1:]:
            if quad_cmp(v, best) < 0:
                best_ev, best = ev, v
        return best_ev

    @property
    def is_point(self) -> bool:
        return quad_cmp(self.lower, self.upper) == 0

    def __contains__(self, q: RationalLike) -> bool:
        q = _exact_rational(q)
        return self.lower <= q and quad_cmp(q, self.upper) <= 0


def combine(c: CurveGeometry, evidence: list[Evidence]) -> SeshadriInterval:
    """Combine evidence into a certified interval, injecting the
    unconditional defaults, pairing residual-pencil bounds with exact
    sub-line-bundle data, and gating the result on the genus bound."""
    defaults = [
        degree_default(note="injected default"),
        normal_bundle_s(Fraction(c.deg_n, 2),
                        note="injected default: worst-case instability measure"),
    ]
    lower_trace: list[tuple[Evidence, Fraction]] = []
    upper_trace: list[tuple[Evidence, BoundValue]] = []
    notes: list[str] = []
    residuals: list[tuple[Evidence, Fraction]] = []
    # exact eps1 values come only from user-supplied sub-line-bundle
    # degrees; the injected worst case is an upper bound, not exact
    exact_eps1 = [Fraction(c.d) / ev.params[0]
                  for ev in evidence if ev.kind == NORMAL_BUNDLE_S]

    for ev in defaults + list(evidence):
        eb = bound_from_evidence(c, ev)
        if eb.lower is not None:
            lower_trace.append((ev, eb.lower))
        if eb.upper is not None:
            upper_trace.append((ev, eb.upper))
        if eb.eps2_lower is not None:
            residuals.append((ev, eb.eps2_lower))
        if eb.note:
            notes.append(eb.note)

    for ev, eps2 in residuals:
        if exact_eps1:
            # eps = min(eps1, eps2); eps1 is exact, eps2 is bounded below
            paired = min(min(exact_eps1), eps2)
            lower_trace.append((ev, paired))
            notes.append(
                f"{ev} paired with exact eps1 = {min(exact_eps1)}: "
                f"eps >= min(eps1, {eps2}) = {paired}")
        else:
            notes.append(
                f"{ev} certifies eps2 >= {eps2} only; not combined "
                "(no exact sub-line-bundle degree for eps1)")

    lower = max(v for _, v in lower_trace)
    upper: BoundValue = upper_trace[0][1]
    for _, v in upper_trace[1:]:
        if quad_cmp(v, upper) < 0:
            upper = v
    upper_q = upper if isinstance(upper, QuadNumber) else QuadNumber(upper)

    if quad_cmp(lower, upper_q) > 0:
        raise InconsistentEvidence(
            f"lower bound {lower} exceeds upper bound {upper_q} "
            f"(lower from {max(lower_trace, key=lambda t: t[1])[0]})")
    if not genus_consistency(c, lower):
        raise InconsistentEvidence(
            f"lower bound {lower} violates the genus bound for d = {c.d}, g = {c.g}")

    return SeshadriInterval(
        lower=lower,
        upper=upper_q,
        lower_trace=tuple(lower_trace),
        upper_trace=tuple(upper_trace),
        notes=tuple(notes),
    )


def castelnuovo_default(c: CurveGeometry) -> Evidence:
    """Regularity at most d - 1 for a nondegenerate curve in P^3,
    packaged as regularity evidence.  Degenerate/low-degree input is
    rejected; the caller asserts nondegeneracy."""
    if c.d <= 1:
        raise DegenerateInput(
            f"regularity default needs d >= 2, got d = {c.d}")
    return regularity(c.d - 1, note="regularity from degree (nondegenerate curve)")
