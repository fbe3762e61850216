"""Exact scalars: arbitrary-precision rationals and the ordered real
quadratic extension Q(sqrt(m)).

Values are kept in a canonical form at all times:

* ``Rational`` is :class:`fractions.Fraction` (already canonical:
  positive denominator, reduced).
* :class:`QuadNumber` represents ``a + b*sqrt(m)`` with ``a`` and ``b``
  Fractions, ``m`` square-free or 0, and ``b == 0`` exactly when
  ``m == 0``.  The public constructor is the one place that sets this
  form up: it splits the radicand into ``core * k**2`` with ``core``
  square-free, absorbs ``k`` into ``b``, and collapses perfect squares
  to the pure-rational form ``(a, 0, 0)``.  Arithmetic on canonical
  operands yields canonical results directly, so it never re-splits a
  radicand.  Consequently two values are syntactically compatible
  exactly when their radicands are equal or one side is rational.

Floats and bools are rejected with ``TypeError`` wherever a value
enters: the constructor's components and its radicand (which must be an
``int``), arithmetic and comparison operands, :func:`sqrt_rational` and
the functional wrappers.  Radicands above :data:`MAX_RADICAND` raise
:class:`RadicandTooLarge` before any factoring, so hostile input cannot
stall the trial division.

Every comparison is decided by exact integer sign analysis
(case analysis on the signs of ``a`` and ``b``, then comparing ``a**2``
against ``b**2 * m``); ``floor`` and ``ceil`` are closed forms over
``math.isqrt``.  Floating point is never consulted.  Decimal rendering
exists for display and for non-certified cross-checks only.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import total_ordering
from typing import Union

from .errors import IncompatibleRadicand, NegativeRadicand, RadicandTooLarge

Rational = Fraction

RationalLike = Union[int, Fraction]
QuadLike = Union[int, Fraction, "QuadNumber"]

# Trial division up to sqrt(MAX_RADICAND) = 10**5 takes at most ~0.1 s;
# desk-scale radicands (3 * degree of a space curve) sit far below it.
MAX_RADICAND = 10**10

_ZERO = Fraction(0)


def _reject_inexact(*values: object) -> None:
    """TypeError for a float or a bool, neither of which may enter exact
    arithmetic (``Fraction(0.2)`` is not 1/5, ``Fraction(True)`` is 1)."""
    for v in values:
        if isinstance(v, (float, bool)):
            raise TypeError(
                f"exact scalar expected (int or Fraction), got {type(v).__name__}")


# The layer modules bind these two under private names (``exact_int as
# _exact_int``): they check inputs rather than compute, and perfbench's
# tracer wraps every public function in a layer module's namespace.
def exact_rational(q: object) -> Fraction:
    """``Fraction(q)``, or TypeError when ``q`` is a float or a bool: the
    one coercion for rational inputs to exact paths."""
    if type(q) is Fraction:  # already exact; Fractions are immutable
        return q
    _reject_inexact(q)
    return Fraction(q)


def exact_int(n: object) -> int:
    """``n`` itself when it is an ``int``; TypeError for a bool or any
    other type, so that ``2.5`` is never truncated to ``2``."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"exact integer expected, got {type(n).__name__}")
    return n


def _square_free_split(n: int) -> tuple[int, int]:
    """Write ``n = core * k**2`` with ``core`` square-free; return (core, k).

    Trial division, so ``n`` is capped at :data:`MAX_RADICAND`.
    """
    if n < 0:
        raise NegativeRadicand(f"radicand must be nonnegative, got {n}")
    if n > MAX_RADICAND:
        raise RadicandTooLarge(
            f"radicand {n} exceeds the factoring cap {MAX_RADICAND}")
    if n == 0:
        return 0, 1
    core, k = 1, 1
    f = 2
    while f * f <= n:
        exp = 0
        while n % f == 0:
            n //= f
            exp += 1
        if exp:
            k *= f ** (exp // 2)
            if exp % 2:
                core *= f
        f += 1 if f == 2 else 2
    return core * n, k


@total_ordering
class QuadNumber:
    """An exact element ``a + b*sqrt(m)`` of Q(sqrt(m)), totally ordered
    by the real embedding with sqrt(m) >= 0.

    ``int`` and :class:`~fractions.Fraction` mix freely with
    ``QuadNumber`` in arithmetic and comparisons.  Mixing two distinct
    irrational radicands raises :class:`IncompatibleRadicand` — there is
    deliberately no tower extension.
    """

    __slots__ = ("_a", "_b", "_m")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, m: int = 0) -> None:
        _reject_inexact(a, b)
        exact_int(m)
        a = Fraction(a)
        b = Fraction(b)
        if m < 0:
            raise NegativeRadicand(f"radicand must be nonnegative, got {m}")
        if b == 0:
            m = 0
        else:
            core, k = _square_free_split(m)
            b *= k
            m = core
            if m == 0:
                b = _ZERO
            elif m == 1:
                a += b
                b = _ZERO
                m = 0
        self._a = a
        self._b = b
        self._m = m

    # -- canonical components ------------------------------------------

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def m(self) -> int:
        return self._m

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self._a

    @classmethod
    def from_rational(cls, q: RationalLike) -> "QuadNumber":
        return cls(q, 0, 0)

    # -- radicand compatibility ------------------------------------------

    def _common_radicand(self, other: "QuadNumber") -> int:
        if self._m == other._m:
            return self._m
        if self._b == 0:
            return other._m
        if other._b == 0:
            return self._m
        raise IncompatibleRadicand(
            f"cannot combine sqrt({self._m}) with sqrt({other._m})"
        )

    # -- sign and order ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, by integer case analysis."""
        a, b, m = self._a, self._b, self._m
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: the larger square wins; a**2 = b**2 * m is
        # impossible here because m is square-free and >= 2.
        lhs, rhs = a * a, b * b * m
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        if not isinstance(other, QuadNumber):
            return NotImplemented
        # Distinct square-free radicands can never produce equal values,
        # so equality is decidable even where ordering refuses.
        return (self._a, self._b, self._m) == (other._a, other._b, other._m)

    def __lt__(self, other: QuadLike) -> bool:
        rhs = _coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return (self - rhs).sign() < 0

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._m))

    # -- field arithmetic ------------------------------------------------

    def __add__(self, other: QuadLike) -> "QuadNumber":
        rhs = _coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        m = self._common_radicand(rhs)
        return _quad(self._a + rhs._a, self._b + rhs._b, m)

    __radd__ = __add__

    def __neg__(self) -> "QuadNumber":
        return _quad(-self._a, -self._b, self._m)

    def __sub__(self, other: QuadLike) -> "QuadNumber":
        rhs = _coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        m = self._common_radicand(rhs)
        return _quad(self._a - rhs._a, self._b - rhs._b, m)

    def __rsub__(self, other: QuadLike) -> "QuadNumber":
        lhs = _coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: QuadLike) -> "QuadNumber":
        rhs = _coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        m = self._common_radicand(rhs)
        a = self._a * rhs._a + self._b * rhs._b * m
        b = self._a * rhs._b + self._b * rhs._a
        return _quad(a, b, m)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNumber":
        if self.sign() == 0:
            raise ZeroDivisionError("division by zero QuadNumber")
        if self._b == 0:
            return _quad(1 / self._a, _ZERO, 0)
        # conjugate trick: norm a^2 - b^2 m is a nonzero rational
        norm = self._a * self._a - self._b * self._b * self._m
        return _quad(self._a / norm, -self._b / norm, self._m)

    def __truediv__(self, other: QuadLike) -> "QuadNumber":
        rhs = _coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other: QuadLike) -> "QuadNumber":
        return self.inverse() * other

    def __pow__(self, n: int) -> "QuadNumber":
        if n < 0:
            return self.inverse() ** (-n)
        out = _quad(Fraction(1), _ZERO, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self) -> "QuadNumber":
        return -self if self.sign() < 0 else self

    # -- exact rounding ----------------------------------------------------

    def __floor__(self) -> int:
        a, b = self._a, self._b
        if b == 0:
            return math.floor(a)
        # Scale to (A + B*sqrt(m)) / Q with integers A, B and Q > 0.
        # m is square-free, m >= 2 and B != 0, so B*sqrt(m) is
        # irrational: with r = isqrt(B**2 * m) = floor(|B|*sqrt(m)),
        # r < |B|*sqrt(m) < r + 1, hence floor(B*sqrt(m)) is r for B > 0
        # and -r - 1 for B < 0.  Since floor((A + t)/Q) equals
        # (A + floor(t)) // Q for integers A and Q > 0, no correction
        # step is needed.
        q = math.lcm(a.denominator, b.denominator)
        big_a = a.numerator * (q // a.denominator)
        big_b = b.numerator * (q // b.denominator)
        root = math.isqrt(big_b * big_b * self._m)
        return (big_a + (root if big_b > 0 else -root - 1)) // q

    def __ceil__(self) -> int:
        return -math.floor(-self)

    # -- rendering ---------------------------------------------------------

    def to_decimal(self, digits: int = 6) -> Decimal:
        """Decimal approximation to ``digits`` significant digits.

        Display/cross-check aid only; never used in certified paths.
        """
        with localcontext() as ctx:
            ctx.prec = digits + 15
            val = Decimal(self._a.numerator) / Decimal(self._a.denominator)
            if self._b:
                root = Decimal(self._m).sqrt()
                val += Decimal(self._b.numerator) / Decimal(self._b.denominator) * root
            ctx.prec = digits
            return +val

    def __repr__(self) -> str:
        return f"QuadNumber({self._a!r}, {self._b!r}, {self._m!r})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        root = f"sqrt({self._m})" if abs(self._b) == 1 else f"{abs(self._b)}*sqrt({self._m})"
        if self._a == 0:
            return root if self._b > 0 else f"-{root}"
        op = "+" if self._b > 0 else "-"
        return f"{self._a} {op} {root}"


def _quad(a: Fraction, b: Fraction, m: int) -> QuadNumber:
    """Build a QuadNumber from parts that are already canonical.

    The caller guarantees that ``a`` and ``b`` are Fractions and ``m`` is
    square-free or 0 (as in the result of field arithmetic on canonical
    operands); the only normalisation left is ``b == 0`` => ``m = 0``.
    """
    x = object.__new__(QuadNumber)
    x._a = a
    x._b = b
    x._m = m if b else 0
    return x


def _coerce(other: QuadLike) -> QuadNumber:
    """``other`` as a QuadNumber; NotImplemented for a foreign type."""
    if isinstance(other, QuadNumber):
        return other
    _reject_inexact(other)
    if isinstance(other, (int, Fraction)):
        return _quad(Fraction(other), _ZERO, 0)
    return NotImplemented  # type: ignore[return-value]


def _operand(x: QuadLike) -> QuadNumber:
    """``x`` as a QuadNumber; TypeError for anything but an exact scalar."""
    q = _coerce(x)
    if q is NotImplemented:
        raise TypeError(f"not an exact scalar: {x!r}")
    return q


# -- operation layer ---------------------------------------------------


def quad_add(x: QuadLike, y: QuadLike) -> QuadNumber:
    """Exact sum in Q(sqrt(m)); radicands must be compatible."""
    return _operand(x) + y


def quad_mul(x: QuadLike, y: QuadLike) -> QuadNumber:
    """Exact product in Q(sqrt(m)); radicands must be compatible."""
    return _operand(x) * y


def quad_neg(x: QuadLike) -> QuadNumber:
    return -_operand(x)


def quad_cmp(x: QuadLike, y: QuadLike) -> int:
    """Exact three-way comparison: -1, 0 or 1 as x <, =, > y."""
    return (_operand(x) - y).sign()


def quad_min(x: QuadNumber, y: QuadNumber) -> QuadNumber:
    return y if quad_cmp(x, y) > 0 else x


def quad_max(x: QuadNumber, y: QuadNumber) -> QuadNumber:
    return y if quad_cmp(x, y) < 0 else x


def sqrt_rational(q: RationalLike) -> QuadNumber:
    """Exact square root of a nonnegative rational, with minimal
    integer radicand: sqrt(p/s) = sqrt(p*s)/s."""
    q = exact_rational(q)
    if q < 0:
        raise NegativeRadicand(f"cannot take sqrt of {q}")
    core, k = _square_free_split(q.numerator * q.denominator)
    root = Fraction(k, q.denominator)
    if core <= 1:  # q is 0 or a perfect square
        return _quad(root * core, _ZERO, 0)
    return _quad(_ZERO, root, core)


def floor_quad(x: QuadLike) -> int:
    return math.floor(_operand(x))


def ceil_quad(x: QuadLike) -> int:
    return math.ceil(_operand(x))


# -- serialization -------------------------------------------------------


def format_rational(q: RationalLike) -> str:
    """Canonical string "p/q", or "p" when the denominator is 1."""
    return str(exact_rational(q))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def quad_to_json(x: QuadNumber) -> dict:
    return {"a": format_rational(x.a), "b": format_rational(x.b), "m": x.m}


def quad_from_json(doc: dict) -> QuadNumber:
    return QuadNumber(parse_rational(doc["a"]), parse_rational(doc["b"]), int(doc["m"]))


def decimal_str(x: QuadLike, digits: int = 6) -> str:
    """Advisory decimal rendering (display only)."""
    return str(_operand(x).to_decimal(digits))
