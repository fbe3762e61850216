"""A Fraction-pair model of Q(sqrt(m)) for the tests.

A value ``a + b*sqrt(m)`` is the tuple ``(a, b, m)`` of two Fractions and
an int, canonical as ``QuadNumber`` kept it before it moved to one
integer triple ``(A + B*sqrt(m))/Q``: ``m`` square-free with its square
factors moved into ``b``, a perfect square folded into ``a``, and
``m = 0`` exactly when ``b = 0``.  Signs are decided by case analysis on
``a`` and ``b``.  Nothing here comes from ``curvebounds``, so the
test-only oracles that compute with this model (``bounds_oracle``,
``replay_oracle``, acceptance guarantee 5) do not share the library's
integer arithmetic or its normal form.

Every operation takes model values or plain rationals.  The operands of
one operation share a radicand or one of them is rational; the model
does not check this.
"""

import math
from fractions import Fraction

F = Fraction


def quad(a, b=0, m=0):
    """The canonical model value of ``a + b*sqrt(m)``, for rationals
    ``a``, ``b`` and an int ``m >= 0``."""
    a, b = F(a), F(b)
    k, core = 1, m
    for f in range(2, math.isqrt(m) + 1):
        while core % (f * f) == 0:
            core //= f * f
            k *= f
    b *= k
    if core == 1:
        a, b = a + b, F(0)
    if b == 0 or core == 0:
        return (a, F(0), 0)
    return (a, b, core)


def lift(x):
    """``x`` as a model value: a model value itself, or a rational."""
    return x if isinstance(x, tuple) else (F(x), F(0), 0)


def of(q):
    """The model value of a library ``QuadNumber``, read off ``a``, ``b``
    and ``m``."""
    return quad(q.a, q.b, q.m)


def sqrt(q):
    """sqrt(q) for a rational ``q >= 0``: sqrt(n/s) = sqrt(n*s)/s."""
    q = F(q)
    return quad(0, F(1, q.denominator), q.numerator * q.denominator)


def sign(x):
    a, b, m = lift(x)
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * m
    if a > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def add(x, y):
    x, y = lift(x), lift(y)
    return quad(x[0] + y[0], x[1] + y[1], max(x[2], y[2]))


def neg(x):
    a, b, m = lift(x)
    return quad(-a, -b, m)


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    x, y = lift(x), lift(y)
    m = max(x[2], y[2])
    return quad(x[0] * y[0] + x[1] * y[1] * m, x[0] * y[1] + x[1] * y[0], m)


def inverse(x):
    a, b, m = lift(x)
    norm = a * a - b * b * m
    return quad(a / norm, -b / norm, m)


def div(x, y):
    return mul(x, inverse(y))


def cmp(x, y):
    """-1, 0 or 1 as x <, =, > y."""
    return sign(sub(x, y))


def minimum(x, y):
    """The smaller of x and y, the first on a tie, as ``min`` keeps it."""
    return y if cmp(y, x) < 0 else x


def floor(x):
    """Largest integer n with sign(x - n) >= 0, by bisection."""
    a, b, m = lift(x)
    reach = math.ceil(abs(b)) * (math.isqrt(m) + 1) + 1
    lo, hi = math.floor(a) - reach, math.floor(a) + reach
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sign(sub(x, mid)) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def ceil(x):
    return -floor(neg(x))


def render(x):
    """The text ``str(QuadNumber)`` prints for the same value."""
    a, b, m = lift(x)
    if b == 0:
        return str(a)
    root = f"sqrt({m})" if abs(b) == 1 else f"{abs(b)}*sqrt({m})"
    if a == 0:
        return root if b > 0 else f"-{root}"
    return f"{a} {'+' if b > 0 else '-'} {root}"


def model_hash(x):
    """The hash ``QuadNumber`` gives the same value: a rational hashes
    as its Fraction."""
    a, b, m = lift(x)
    return hash(a) if b == 0 else hash((a, b, m))
