"""Exact scalars: arbitrary-precision rationals and the ordered real
quadratic extension Q(sqrt(m)).

Values are kept in a canonical form at all times:

* Rationals are :class:`fractions.Fraction` (already canonical:
  positive denominator, reduced).
* :class:`QuadNumber` stores ``(A + B*sqrt(m)) / Q`` as one integer
  triple over a shared denominator, with ``Q > 0``,
  ``gcd(A, B, Q) == 1`` and ``m`` square-free, or 0 exactly when
  ``B == 0``.  The form is unique, so equality is a tuple compare.  The
  public constructor is the one gate that validates input and sets this
  form up: it splits the radicand into ``core * k**2`` with ``core``
  square-free, absorbs ``k`` into the coefficient, collapses perfect
  squares to a rational, and hands the integer triple to :func:`_quad`,
  the one normaliser.  The modules that compute (``bounds``,
  ``seshadri``) carry their values as integer numerators and build each
  result once, through ``_quad`` too, which takes a positive
  denominator, divides out one three-argument ``math.gcd`` and never
  re-splits a radicand.  Two values are therefore comparable exactly
  when their radicands are equal or one side is rational.  The
  properties ``a = A/Q`` and ``b = B/Q`` are Fractions built on access.

A ``QuadNumber`` is a value, not a field: it compares, hashes, rounds,
prints and round-trips through JSON, and it has no arithmetic
operators.  ``x + 1``, ``-x``, ``x * y``, ``x / 2``, ``x ** 2`` and
``abs(x)`` raise ``TypeError``; exact arithmetic goes over
:attr:`QuadNumber.parts` in integers, or over ``Fraction`` when the
value is rational.

Floats and bools are rejected with ``TypeError`` wherever a value
enters: the constructor's components and its radicand (which must be an
``int``), comparison operands and :func:`decimal_str`.
Radicands above :data:`MAX_RADICAND` raise :class:`RadicandTooLarge`
before any factoring, so hostile input cannot stall the trial division.
Numbers that enter as text, through :func:`parse_int` and
:func:`parse_rational`, pass one digit cap, :data:`MAX_DIGITS`, and a
longer one raises :class:`TooManyDigits` before it is converted; an
``int`` that enters a descriptor passes the same cap through
:func:`capped_int`, and a curve's ``d`` and ``g`` the wider
:data:`MAX_CURVE_DIGITS`, which bounds what a descriptor derives.

Every comparison is decided by exact integer sign analysis of the
difference's numerator ``A + B*sqrt(m)``, which is never normalised
(case analysis on the signs of ``A`` and ``B``, then comparing ``A**2``
against ``B**2 * m``).  A rational against a value is one call of
:func:`_rational_cmp`; ``bounds`` and ``seshadri`` decide each such
verdict through it.  ``floor`` and ``ceil`` are closed forms over
``math.isqrt(B**2 * m)``.  Floating point is never consulted.  Decimal
rendering exists for display and for non-certified cross-checks only.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

from .errors import (IncompatibleRadicand, NegativeRadicand, RadicandTooLarge,
                     TooManyDigits)

RationalLike = Union[int, Fraction]
QuadLike = Union[int, Fraction, "QuadNumber"]

# Trial division up to sqrt(MAX_RADICAND) = 10**5 takes at most ~0.1 s;
# desk-scale radicands (3 * degree of a space curve) sit far below it.
MAX_RADICAND = 10**10

# The most digits a number may have where it enters the program: an
# integer counts its own, a rational its numerator's and denominator's
# together.  Every printed value is a polynomial of degree <= 3 in the
# inputs' numerators and denominators (d itself stays below
# MAX_RADICAND), so it has at most ~3 * MAX_DIGITS + 25 digits, within
# the 4,300 that Python converts to text by default: every derived
# value prints.
MAX_DIGITS = 1400
# The most digits a curve's d or g may have: a descriptor derives them
# from inputs within MAX_DIGITS, and a complete intersection's or a
# linked curve's genus, the widest, is of degree 3 in a and b.  With a
# rational at MAX_DIGITS, delta = eta*deg_N - d can pass 4,300 digits;
# the bound kernel refuses that pair.
MAX_CURVE_DIGITS = 3 * MAX_DIGITS
# the least integer of one digit more than each cap
_TEN_TO = {n: 10**n for n in (MAX_DIGITS, MAX_CURVE_DIGITS)}

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


def _sign(a: int, b: int, m: int) -> int:
    """Exact sign of ``a + b*sqrt(m)`` for integers, ``m`` square-free
    or 0 and ``m >= 2`` whenever ``b != 0``."""
    if b == 0:
        return (a > 0) - (a < 0)
    # opposite signs: the larger square wins; a**2 = b**2 * m is
    # impossible here because m is square-free and >= 2.
    if b > 0:
        return 1 if a >= 0 or b * b * m > a * a else -1
    return -1 if a <= 0 or b * b * m > a * a else 1


def _order(test):
    """A rich comparison of QuadNumber: ``test(sign of x - y, 0)``, or
    NotImplemented for a foreign type."""
    def compare(self: QuadNumber, other: QuadLike) -> bool:
        rhs = _coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return test(_cmp(self, rhs), 0)
    return compare


class QuadNumber:
    """An exact element ``a + b*sqrt(m)`` of Q(sqrt(m)), totally ordered
    by the real embedding with sqrt(m) >= 0.

    ``int`` and :class:`~fractions.Fraction` compare with a
    ``QuadNumber`` directly.  Ordering two distinct irrational radicands
    raises :class:`IncompatibleRadicand` — there is deliberately no
    tower extension.
    """

    __slots__ = ("_A", "_B", "_Q", "_m")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, m: int = 0) -> None:
        a = exact_rational(a)
        b = exact_rational(b)
        if exact_int(m) < 0:
            raise NegativeRadicand(f"radicand must be nonnegative, got {m}")
        # m = core * k**2; a square radicand (core 0 or 1) folds into a
        core, k = _square_free_split(m) if b else (0, 1)
        if core <= 1:
            a, b, core = a + b * k * core, _ZERO, 0
        self._A, self._B, self._Q, self._m = _quad(
            a.numerator * b.denominator, b.numerator * k * a.denominator,
            a.denominator * b.denominator, core).parts

    # -- canonical components ------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._A, self._Q)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B, self._Q)

    @property
    def m(self) -> int:
        return self._m

    @property
    def parts(self) -> tuple[int, int, int, int]:
        """The canonical ``(A, B, Q, m)``, value ``(A + B*sqrt(m))/Q``: a
        read-only integer view, like a Fraction's numerator and denominator."""
        return self._A, self._B, self._Q, self._m

    @property
    def is_rational(self) -> bool:
        return self._B == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._A, self._Q)

    # -- order -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._B == 0 and self._Q == 1 and self._A == other
        if isinstance(other, Fraction):
            return (self._B == 0 and self._A == other.numerator
                    and self._Q == other.denominator)
        if not isinstance(other, QuadNumber):
            return NotImplemented
        # Distinct square-free radicands can never produce equal values,
        # so equality is decidable even where ordering refuses.
        return ((self._A, self._B, self._Q, self._m)
                == (other._A, other._B, other._Q, other._m))

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __hash__(self) -> int:
        if self._B == 0:
            return hash(Fraction(self._A, self._Q))
        return hash((self.a, self.b, self._m))

    # -- exact rounding ----------------------------------------------------

    def __floor__(self) -> int:
        a, b, q = self._A, self._B, self._Q
        if b == 0:
            return a // q
        # m is square-free, m >= 2 and B != 0, so B*sqrt(m) is
        # irrational: with r = isqrt(B**2 * m) = floor(|B|*sqrt(m)),
        # r < |B|*sqrt(m) < r + 1, hence floor(B*sqrt(m)) is r for B > 0
        # and -r - 1 for B < 0.  Since floor((A + t)/Q) equals
        # (A + floor(t)) // Q for integers A and Q > 0, no correction
        # step is needed.
        root = math.isqrt(b * b * self._m)
        return (a + (root if b > 0 else -root - 1)) // q

    def __ceil__(self) -> int:
        a, b, q = self._A, self._B, self._Q
        if b == 0:
            return -(-a // q)
        # ceil(B*sqrt(m)) is r + 1 for B > 0 and -r for B < 0, and
        # ceil((A + t)/Q) = -((-A - ceil(t)) // Q)
        root = math.isqrt(b * b * self._m)
        return -((-a - (root + 1 if b > 0 else -root)) // q)

    # -- rendering ---------------------------------------------------------

    def to_decimal(self, digits: int = 6) -> Decimal:
        """Decimal approximation to ``digits`` significant digits.

        Display/cross-check aid only; never used in certified paths.
        """
        a, b = self.a, self.b
        with localcontext() as ctx:
            ctx.prec = digits + 15
            val = Decimal(a.numerator) / Decimal(a.denominator)
            if b:
                root = Decimal(self._m).sqrt()
                val += Decimal(b.numerator) / Decimal(b.denominator) * root
            ctx.prec = digits
            return +val

    def __repr__(self) -> str:
        return f"QuadNumber({self.a!r}, {self.b!r}, {self._m!r})"

    def __str__(self) -> str:
        a, b, q, m = self._A, self._B, self._Q, self._m
        if b == 0:
            return str(Fraction(a, q))
        root = f"sqrt({m})" if abs(b) == q else f"{Fraction(abs(b), q)}*sqrt({m})"
        if a == 0:
            return root if b > 0 else f"-{root}"
        op = "+" if b > 0 else "-"
        return f"{Fraction(a, q)} {op} {root}"


def _quad(a: int, b: int, q: int, m: int) -> QuadNumber:
    """Build ``(a + b*sqrt(m)) / q`` from integers, ``q > 0``.

    The caller guarantees that ``q`` is positive (every call site passes
    a product of denominators) and that ``m`` is square-free or 0 (as in
    a result computed from canonical parts); this divides out
    ``gcd(a, b, q)`` and sets ``m = 0`` when ``b == 0``, the only
    normalisation such a result needs.
    """
    g = math.gcd(a, b, q)
    if g != 1:
        a //= g
        b //= g
        q //= g
    x = object.__new__(QuadNumber)
    x._A = a
    x._B = b
    x._Q = q
    x._m = m if b else 0
    return x


def _cmp(x: QuadNumber, y: QuadNumber) -> int:
    """Sign of ``x - y``, read off the numerator of the difference over
    ``x.Q * y.Q`` without normalising it.  The radicands must be equal or
    one side rational (radicand 0)."""
    if x._m != y._m and x._m and y._m:
        raise IncompatibleRadicand(f"cannot compare sqrt({x._m}) with sqrt({y._m})")
    m = x._m or y._m
    p, q = x._Q, y._Q
    return _sign(x._A * q - y._A * p, x._B * q - y._B * p, m)


def _rational_cmp(p: int, q: int, x: QuadNumber) -> int:
    """Sign of ``p/q - x`` for integers ``p`` and ``q > 0``: the one test
    of a rational against a value.  With x = (A + B*sqrt(m))/Q it is the
    sign of p*Q - q*A - q*B*sqrt(m), as q*Q > 0."""
    return _sign(p * x._Q - q * x._A, -q * x._B, x._m)


def _coerce(other: QuadLike) -> QuadNumber:
    """``other`` as a QuadNumber; NotImplemented for a foreign type."""
    if isinstance(other, QuadNumber):
        return other
    _reject_inexact(other)
    if isinstance(other, int):
        return _quad(other, 0, 1, 0)
    if isinstance(other, Fraction):
        return _quad(other.numerator, 0, other.denominator, 0)
    return NotImplemented  # type: ignore[return-value]


def _operand(x: QuadLike) -> QuadNumber:
    """``x`` as a QuadNumber; TypeError for anything but an exact scalar."""
    q = _coerce(x)
    if q is NotImplemented:
        raise TypeError(f"not an exact scalar: {x!r}")
    return q


def _sqrt_parts(n: int, s: int) -> tuple[int, int, int, int]:
    """sqrt(n/s) for integers n >= 0 and s > 0 as integers (a, b, s, m),
    value (a + b*sqrt(m))/s with m square-free or 0, not reduced:
    sqrt(n/s) = sqrt(n*s)/s = k*sqrt(m)/s for n*s = m*k**2."""
    m, k = _square_free_split(n * s)
    return (k * m, 0, s, 0) if m <= 1 else (0, k, s, m)  # m <= 1: a square


# -- serialization -------------------------------------------------------


def format_rational(q: RationalLike) -> str:
    """Canonical string "p/q", or "p" when the denominator is 1."""
    return str(exact_rational(q))


def _check_digits(count: int) -> None:
    if count > MAX_DIGITS:
        raise TooManyDigits(f"a number of {count} digits, above the cap of {MAX_DIGITS}")


def capped_int(n: int, digits: int = MAX_DIGITS) -> int:
    """``n``, or TooManyDigits when it has more than ``digits`` digits
    (MAX_DIGITS or MAX_CURVE_DIGITS); ``n`` is not converted to text."""
    if abs(n) >= _TEN_TO[digits]:
        raise TooManyDigits(f"a number of more than {digits} digits, above the cap")
    return n


def capped_rational(q: object) -> Fraction:
    """``q`` as a Fraction (TypeError for a float or a bool), or
    TooManyDigits when its numerator or its denominator has more than
    MAX_DIGITS digits, the most either has in a rational that
    :func:`parse_rational` takes; ``q`` is not converted to text."""
    q = exact_rational(q)
    capped_int(q.numerator)
    capped_int(q.denominator)
    return q


def parse_int(text: str) -> int:
    """``int(text)``, or TooManyDigits before any conversion when the
    text, less surrounding whitespace and its sign, is longer than
    MAX_DIGITS; anything ``int`` refuses raises its ValueError."""
    _check_digits(len(text.strip().lstrip("+-")))
    return int(text)


def parse_rational(text: str) -> Fraction:
    """The rational written as an optional sign and ASCII digits,
    optionally followed by "/digits" or ".digits", with surrounding
    whitespace.  Anything else (an exponent, an underscore, a non-ASCII
    digit, a zero denominator) raises ValueError, and more than
    MAX_DIGITS digits in all raise TooManyDigits (a ValueError), before
    any digit is converted."""
    body = text.strip()
    negative = body.startswith("-")
    if body.startswith(("+", "-")):
        body = body[1:]
    head, sep, tail = body.partition("/" if "/" in body else ".")
    if not (body.isascii() and head.isdigit()) or (sep and not tail.isdigit()):
        raise ValueError(f"not a rational: {text!r}")
    _check_digits(len(head) + len(tail))
    if sep == "/":
        if not tail.strip("0"):
            raise ValueError(f"not a rational: {text!r} (zero denominator)")
        value = Fraction(int(head), int(tail))
    else:
        value = Fraction(int(head + tail), 10 ** len(tail))
    return -value if negative else value


def quad_to_json(x: QuadNumber) -> dict:
    return {"a": format_rational(x.a), "b": format_rational(x.b), "m": x.m}


def quad_from_json(doc: dict) -> QuadNumber:
    return QuadNumber(parse_rational(doc["a"]), parse_rational(doc["b"]), int(doc["m"]))


def decimal_str(x: QuadLike, digits: int = 6) -> str:
    """Advisory decimal rendering (display only)."""
    return str(_operand(x).to_decimal(digits))
