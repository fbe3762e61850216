"""Test-only oracle for the Seshadri interval: ``combine`` as a fold of
the per-item bounds, each read off its ``EVIDENCE_KINDS`` row by
``row_bound``, over the injected defaults and the given items, ordered
in the Fraction-pair model ``quad_model``, and a strategy of generated
curves with evidence to run it on.

``combine`` reads each evidence row's bound directly and decides the
interval's extremes and consistency by ``scalar``'s integer sign tests;
this module rebuilds the same interval from one ``row_bound`` per item
and decides every comparison in the model, which shares no code
with ``scalar``; its genus gate is the sign of the Halphen quadratic
``blowup_oracle.halphen_f`` at eta*d, a second derivation of lambda,
not ``blowup``'s own formula.  The upper candidates share one radicand
at most (the degree default's 1/sqrt(d)), as the model's ordering
needs.
"""

from fractions import Fraction
from types import SimpleNamespace

from hypothesis import strategies as st

import quad_model as model
import blowup_oracle
from cases import curves, degrees
from curvebounds.seshadri import EVIDENCE_KINDS, Evidence

F = Fraction


def row_bound(c, e):
    """What one item certifies on the curve, read off its table row:
    ``evidence``, and ``lower``, ``upper`` and ``eps2_lower``, each None
    where the row certifies no such bound."""
    bound = EVIDENCE_KINDS[e.kind].bound(c, *e.params)
    return SimpleNamespace(evidence=e, **{field: bound.get(field) for field in
                                          ("lower", "upper", "eps2_lower")})


def _model(v):
    """A bound as a model value: a rational, or a ``QuadNumber``."""
    return model.lift(v) if isinstance(v, (int, Fraction)) else model.of(v)


def combine(c, evidence):
    """(lower, upper as a model value, lower_trace, upper_trace, number
    of notes), or None where ``combine`` must raise InconsistentEvidence."""
    items = [Evidence("degree_default", (), note="injected default"),
             Evidence("normal_bundle_s", (F(c.deg_n, 2),),
                      "injected default: worst-case instability measure"),
             *evidence]
    bounds = [row_bound(c, e) for e in items]
    lower = [(b.evidence, b.lower) for b in bounds if b.lower is not None]
    upper = [(b.evidence, b.upper) for b in bounds if b.upper is not None]
    exact_eps1 = [F(c.d) / e.params[0] for e in evidence
                  if e.kind == "normal_bundle_s"]
    residuals = [b for b in bounds if b.eps2_lower is not None]
    if exact_eps1:
        lower += [(b.evidence, min(min(exact_eps1), b.eps2_lower))
                  for b in residuals]
    # the lower bounds are rational, so max orders them as Fractions; the
    # first of equal upper candidates wins, as min keeps it
    low = max(v for _, v in lower)
    high = _model(upper[0][1])
    for _, v in upper[1:]:
        high = model.minimum(high, _model(v))
    if model.cmp(low, high) > 0 or blowup_oracle.halphen_f(c, low * c.d) < 0:
        return None
    return low, high, tuple(lower), tuple(upper), len(residuals)


def _evidence(c):
    """Evidence items valid for the curve: every kind whose bound does
    not pin the degree, with rational upper bounds among them."""
    d, deg_n = c.d, c.deg_n
    small = st.integers(min_value=1, max_value=12)
    return st.one_of(
        st.integers(min_value=1, max_value=2 * d + 2).map(
            lambda m: Evidence("regularity", (m,))),
        st.integers(min_value=1, max_value=d).map(
            lambda l: Evidence("secant_line", (l,))),
        st.tuples(small, st.integers(min_value=1, max_value=4 * d)).map(
            lambda t: Evidence("global_generation", t)),
        st.tuples(small, st.integers(min_value=1, max_value=4 * d)).map(
            lambda t: Evidence("bundle_seshadri", t)),
        st.fractions(min_value=F(deg_n, 2), max_value=2 * deg_n,
                     max_denominator=4).map(
            lambda s: Evidence("normal_bundle_s", (s,))),
        st.fractions(min_value=F(1, 4 * d), max_value=1,
                     max_denominator=4 * d).map(
            lambda q: Evidence("assert_exact", (q,))),
        # a*b - 1 >= d, as the kind requires
        st.tuples(st.integers(min_value=1, max_value=8),
                  st.integers(min_value=0, max_value=3)).map(
            lambda t: Evidence("residual_reduced",
                                    (t[0], -(-(d + 1) // t[0]) + t[1]))),
    )


# d = k^2 makes the degree default's upper bound 1/sqrt(d) rational; the
# genus runs to 2 past the plane-curve bound (d - 1)(d - 2)/2
CURVES = curves(degrees(60, 8), lambda d: (d - 1) * (d - 2) // 2 + 2)

CURVE_EVIDENCE = CURVES.flatmap(
    lambda c: st.tuples(st.just(c), st.lists(_evidence(c), max_size=4)))
