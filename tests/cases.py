"""The cases the tests draw from, each rule stated once: the worked
curves, the settings of the reach tests, the hypothesis strategies that
generate curves and eta, and one exhaustive, fixed-order enumerator of
the systems ``replay.build_system`` takes.

Three rules shape a generated case:
- ``genus_cap``: lambda_eta >= 0, the Hodge-index condition, holds
  exactly for the genera up to it;
- ``top_p``: the largest p with (p/q)^2*d at most a cap and below 1,
  where the replay box is bounded, so that draws can sit next to it;
- ``degrees``: the degrees d = k^2, where sqrt(d) is rational, and
  d = 3k^2, where sqrt(3d) is, drawn as often as the rest, so that the
  rational branches of the bounds and the saturation's equality are met.
"""

import math
from fractions import Fraction

from hypothesis import Phase, assume, settings
from hypothesis import strategies as st

from curvebounds.blowup import CurveGeometry

F = Fraction


def ci(a, b):
    """The complete intersection of type (a, b): d = ab, 2g - 2 = ab(a + b - 4)."""
    return CurveGeometry(d=a * b, g=a * b * (a + b - 4) // 2 + 1)


def ll(a, b):
    """The curve linked to a line by type (a, b): d = ab - 1."""
    return CurveGeometry(d=a * b - 1, g=(a + b - 4) * (a * b - 2) // 2)


# the worked curves of the catalog
LINE = CurveGeometry(d=1, g=0)
CUBIC = CurveGeometry(d=3, g=0)
CI22 = ci(2, 2)         # d = 4, g = 1
CI32 = ci(3, 2)         # d = 6, g = 4
CI52 = ci(5, 2)         # d = 10, g = 16, deg_N = 70
CI63 = ci(6, 3)         # d = 18, g = 46
CI85 = ci(8, 5)         # d = 40, g = 181
CI504 = ci(50, 4)       # d = 200, g = 5001
LL52 = ll(5, 2)         # d = 9, g = 12
LL73 = ll(7, 3)         # d = 20, g = 57

# a fixed draw without shrinking: the first example that hits the case.
# Hypothesis mixes the literals of the loaded src/ modules into its draws,
# so a new literal there changes the draw; 1,000 draws keep the rarest
# case (a consistent residual pair, ~1 draw in 125) from being missed by
# luck, where 100 missed it on 45 of 100 random draw sequences
REACH = settings(database=None, derandomize=True, phases=[Phase.generate],
                 max_examples=1_000)


def genus_cap(d, eta):
    """The largest g with lambda_eta >= 0 on a curve of degree d (it may
    be negative): lambda_eta = eta^2*d^2 - eta*(4d + 2g - 2) + d >= 0
    iff 2*eta*g <= eta^2*d^2 + d - 4*eta*d + 2*eta."""
    return math.floor((eta * eta * d * d + d - 4 * eta * d + 2 * eta) / (2 * eta))


def top_p(d, q, cap=1):
    """The largest p with (p/q)^2*d <= cap and (p/q)^2*d < 1, or 0."""
    return math.isqrt(min(cap * q * q // d, (q * q - 1) // d))


def degrees(d_max, squares, triples=0):
    """Degrees 1 to d_max, the squares k^2 up to squares^2 and the 3k^2
    up to 3*triples^2, each kind drawn as often as the rest."""
    return st.one_of(st.integers(min_value=1, max_value=d_max),
                     st.integers(min_value=1, max_value=squares).map(lambda k: k * k),
                     *([st.integers(min_value=1, max_value=triples).map(lambda k: 3 * k * k)]
                       if triples else []))


def etas(den, top):
    """The rationals from 1/den to top with denominators up to den."""
    return st.fractions(min_value=F(1, den), max_value=top, max_denominator=den)


@st.composite
def curves(draw, degree, g_max):
    """Curves of a degree drawn from ``degree`` and a genus from 0 to
    g_max, an int or a function of the degree."""
    d = draw(degree)
    g = draw(st.integers(min_value=0, max_value=g_max(d) if callable(g_max) else g_max))
    return CurveGeometry(d=d, g=g)


@st.composite
def systems(draw, degree, q_max, cap=1):
    """(curve, eta) that build_system takes: d from ``degree``, eta = p/q
    with q <= q_max and p within two steps of ``top_p(d, q, cap)`` or
    anywhere below it, and a genus up to ``genus_cap``.  A q <= sqrt(d)
    has no such p, so q starts above it."""
    d = draw(degree)
    q = draw(st.integers(min_value=math.isqrt(d) + 1, max_value=q_max))
    top = top_p(d, q, cap)
    p = draw(st.one_of(st.integers(min_value=top - 2, max_value=top),
                       st.integers(min_value=1, max_value=max(top, 1))))
    assume(p >= 1)
    eta = F(p, q)
    g_max = genus_cap(d, eta)
    assume(g_max >= 0)
    return CurveGeometry(d=d, g=draw(st.integers(min_value=0, max_value=g_max))), eta


def systems_up_to(d_max, q_max):
    """Every (curve, eta) that build_system takes with d <= d_max and
    eta = p/q in lowest terms with q <= q_max, in a fixed order: by d,
    then q, then p, then g, each ascending."""
    for d in range(1, d_max + 1):
        for q in range(1, q_max + 1):
            for p in range(1, top_p(d, q) + 1):
                if math.gcd(p, q) == 1:
                    for g in range(genus_cap(d, F(p, q)) + 1):
                        yield CurveGeometry(d=d, g=g), F(p, q)
