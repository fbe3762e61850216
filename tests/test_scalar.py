"""Exact values in Q(sqrt(m)): construction, comparison, rounding."""

import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import quad_model as model
from curvebounds.errors import (
    IncompatibleRadicand,
    NegativeRadicand,
    RadicandTooLarge,
    TooManyDigits,
)
from curvebounds.scalar import (
    MAX_DIGITS,
    MAX_RADICAND,
    QuadNumber,
    capped_int,
    decimal_str,
    format_rational,
    parse_int,
    parse_rational,
    quad_from_json,
    quad_to_json,
)
from curvebounds.scalar import _quad, _sqrt_parts

F = Fraction


def order(x, y):
    """-1, 0 or 1 as x <, =, > y, by the rich comparisons."""
    return (x > y) - (x < y)


def sqrt_of(q):
    """sqrt(q) for a rational q >= 0, as the bound kernel builds its
    roots: the integer parts of ``_sqrt_parts``, normalised by ``_quad``."""
    return _quad(*_sqrt_parts(q.numerator, q.denominator))


# -- construction and normalization -----------------------------------------


def test_default_is_zero():
    z = QuadNumber()
    assert z == 0
    assert z.is_rational
    assert z.as_rational() == 0


def test_radicand_reduced_to_square_free():
    # 5*sqrt(8) = 10*sqrt(2)
    x = QuadNumber(0, 5, 8)
    assert (x.a, x.b, x.m) == (0, 10, 2)
    y = QuadNumber(0, F(1, 2), 12)
    assert (y.a, y.b, y.m) == (0, 1, 3)


def test_square_radicand_collapses_to_rational():
    x = QuadNumber(3, 2, 1)
    assert x.is_rational and x == 5
    y = QuadNumber(0, 3, 49)  # 3*sqrt(49) = 21
    assert y == 21


def test_zero_coefficient_clears_radicand():
    x = QuadNumber(2, 0, 7)
    assert (x.a, x.b, x.m) == (2, 0, 0)
    assert x == QuadNumber(2)


def test_negative_radicand_rejected():
    with pytest.raises(NegativeRadicand):
        QuadNumber(0, 1, -2)


@pytest.mark.parametrize("bad", [1.5, 0.0, float("nan"), 2.0, 0.25, True, False])
def test_float_components_rejected(bad):
    with pytest.raises(TypeError):
        QuadNumber(bad)
    with pytest.raises(TypeError):
        QuadNumber(0, bad, 2)
    with pytest.raises(TypeError):
        QuadNumber(0, 1, bad)


def test_float_operands_rejected():
    x = QuadNumber(0, 1, 2)
    for bad in (1.5, 0.5, True, False):
        for op in (lambda: x < bad, lambda: x <= bad, lambda: x > bad,
                   lambda: x >= bad, lambda: bad >= x, lambda: bad < x,
                   lambda: order(bad, x), lambda: order(x, bad)):
            with pytest.raises(TypeError):
                op()


def test_radicand_cap():
    prime_below_cap = 9_999_999_967
    assert QuadNumber(0, 1, prime_below_cap).m == prime_below_cap
    assert sqrt_of(F(MAX_RADICAND)) == 10**5
    # trial division of this prime near 10**14 takes seconds; the cap
    # refuses it before factoring
    start = time.perf_counter()
    for make in (lambda: QuadNumber(0, 1, 99_999_999_999_973),
                 lambda: _sqrt_parts(99_999_999_999_973, 1),
                 lambda: _sqrt_parts(1, MAX_RADICAND + 1),
                 lambda: QuadNumber(0, 1, MAX_RADICAND + 1)):
        with pytest.raises(RadicandTooLarge):
            make()
    assert time.perf_counter() - start < 1.0


def test_rational_constructor_and_back():
    x = QuadNumber(F(22, 7))
    assert x.is_rational
    assert x.as_rational() == F(22, 7)
    with pytest.raises(ValueError):
        QuadNumber(0, 1, 2).as_rational()


# -- square roots ------------------------------------------------------------


def test_sqrt_parts():
    assert sqrt_of(F(9, 4)) == F(3, 2)
    assert sqrt_of(F(1, 2)) == QuadNumber(0, F(1, 2), 2)
    assert sqrt_of(F(0)) == 0
    assert sqrt_of(F(18)) == QuadNumber(0, 3, 2)
    # the radicand is the square-free core of n*s: sqrt(18/1) = 3*sqrt(2)
    assert _sqrt_parts(18, 1) == (0, 3, 1, 2)
    assert _sqrt_parts(9, 4) == (6, 0, 4, 0)
    with pytest.raises(NegativeRadicand):
        _sqrt_parts(-1, 1)


def test_sqrt_squares_back():
    for q in [F(2), F(3, 5), F(49), F(7, 11)]:
        r = model.of(sqrt_of(q))
        assert model.mul(r, r) == model.lift(q)


# -- no arithmetic operators -------------------------------------------------


ARITHMETIC = {
    "x + 1": lambda x: x + 1, "1 + x": lambda x: 1 + x, "x - x": lambda x: x - x,
    "x * x": lambda x: x * x, "-x": lambda x: -x, "abs(x)": abs,
    "x ** 2": lambda x: x ** 2, "1 / x": lambda x: 1 / x, "x / 2": lambda x: x / 2,
}


@pytest.mark.parametrize("op", sorted(ARITHMETIC))
@pytest.mark.parametrize("x", [QuadNumber(1, 1, 2), QuadNumber(F(3, 2))],
                         ids=["irrational", "rational"])
def test_quadnumber_has_no_arithmetic_operators(x, op):
    # a QuadNumber is a value: exact arithmetic goes over its parts, and
    # comparisons (test_ordering, test_float_operands_rejected) stay
    with pytest.raises(TypeError):
        ARITHMETIC[op](x)
    assert not hasattr(x, "sign") and not hasattr(x, "inverse")


def test_incompatible_radicands_do_not_combine():
    r2, r3 = QuadNumber(0, 1, 2), QuadNumber(0, 1, 3)
    with pytest.raises(IncompatibleRadicand):
        r2 < r3
    with pytest.raises(IncompatibleRadicand):
        order(r3, r2)


def test_rational_combines_with_any_radicand():
    # radicand 0 is compatible with everything
    assert QuadNumber(3) < QuadNumber(0, 3, 2)  # 3 < 4.24...
    assert QuadNumber(3) > QuadNumber(0, 1, 3)  # 3 > 1.73...


# -- comparison and sign -----------------------------------------------------


def test_sign_cases():
    # the sign of a value is its comparison with 0
    assert order(QuadNumber(0, 1, 2), 0) == 1
    assert order(QuadNumber(0, -1, 2), 0) == -1
    assert order(QuadNumber(0), 0) == 0
    # mixed-sign components: 3 - 2*sqrt(2) > 0, 1 - sqrt(2) < 0
    assert order(QuadNumber(3, -2, 2), 0) == 1
    assert order(QuadNumber(1, -1, 2), 0) == -1
    assert order(QuadNumber(-3, 2, 2), 0) == -1
    assert order(QuadNumber(-1, 1, 2), 0) == 1
    # exact zero needs m a perfect square, which normalizes away
    assert order(QuadNumber(-2, 1, 4), 0) == 0


def test_ordering():
    x = QuadNumber(1, 1, 2)  # ~2.414
    assert x > 2 and 2 < x
    assert x < F(5, 2) and F(5, 2) >= x
    assert x >= x and x <= x
    assert order(F(1), QuadNumber(0, 1, 2)) == -1
    assert order(QuadNumber(0, 1, 2), QuadNumber(0, 1, 2)) == 0


def test_cross_radicand_equality_is_false_not_an_error():
    # sqrt(2) != sqrt(3) is a sound answer; ordering them is not attempted
    assert (QuadNumber(0, 1, 2) == QuadNumber(0, 1, 3)) is False
    assert QuadNumber(0, 1, 2) != QuadNumber(0, 1, 3)


def test_min_max():
    a, b = QuadNumber(3), QuadNumber(0, 2, 2)  # 3 vs ~2.83
    assert min(a, b) == b and max(a, b) == a
    # on a tie min keeps its first argument
    x, y = QuadNumber(2), QuadNumber(F(4, 2))
    assert min(x, y) is x and min(y, x) is y


def test_hash_consistent_with_rational_equality():
    assert hash(QuadNumber(F(3, 2))) == hash(F(3, 2))
    assert hash(QuadNumber(F(1, 2))) == hash(F(1, 2))
    assert hash(QuadNumber(3)) == hash(3)
    assert QuadNumber(3) == 3 and 3 == QuadNumber(3)
    assert QuadNumber(F(6, 4)) == F(3, 2)
    assert QuadNumber(F(3, 2)) != 1 and QuadNumber(0, 1, 2) != 0
    d = {QuadNumber(F(1, 2)): "half", QuadNumber(0, 1, 5): "root5"}
    assert d[F(1, 2)] == "half"
    assert d[QuadNumber(0, 1, 5)] == "root5"


# -- floor / ceil / decimal --------------------------------------------------


@pytest.mark.parametrize("x,fl,ce", [
    (QuadNumber(0, 1, 2), 1, 2),
    (QuadNumber(0, -1, 2), -2, -1),
    (QuadNumber(5), 5, 5),
    (QuadNumber(F(35, 6)), 5, 6),
    (QuadNumber(F(1, 2), F(1, 2), 5), 1, 2),   # golden ratio
    (QuadNumber(F(-31, 2), 3, 30), 0, 1),
    (QuadNumber(-42, 18, 6), 2, 3),
])
def test_floor_ceil(x, fl, ce):
    assert math.floor(x) == fl
    assert math.ceil(x) == ce


def test_floor_ceil_accept_plain_rationals():
    assert math.floor(QuadNumber(F(7, 2))) == 3
    assert math.ceil(QuadNumber(F(7, 2))) == 4
    assert math.ceil(QuadNumber(4)) == 4


def test_to_decimal_known_digits():
    # sqrt(2), correctly rounded at 30 significant digits
    assert str(QuadNumber(0, 1, 2).to_decimal(30)) == \
        "1.41421356237309504880168872421"
    assert QuadNumber(3).to_decimal(6) == Decimal(3)


def test_decimal_str():
    assert decimal_str(QuadNumber(0, 1, 2), 12) == "1.41421356237"
    assert decimal_str(F(1, 3)) == "0.333333"
    assert decimal_str(QuadNumber(5)) == "5"


# -- parsing and serialization ----------------------------------------------


def test_parse_format_rational():
    assert parse_rational(" 3/4 ") == F(3, 4)
    assert parse_rational("-2") == -2
    assert format_rational(F(8, 4)) == "2"
    assert format_rational(F(-3, 9)) == "-1/3"
    with pytest.raises(ValueError):
        parse_rational("one half")


@pytest.mark.parametrize("text, value", [
    (" 3/4 ", F(3, 4)), ("0.2", F(1, 5)), ("-0.25", F(-1, 4)), ("+5", F(5)),
    ("007/014", F(1, 2)), ("-3/9", F(-1, 3)),
    ("1" * MAX_DIGITS, F(int("1" * MAX_DIGITS))),
    ("0." + "5" * (MAX_DIGITS - 1), F(int("5" * (MAX_DIGITS - 1)), 10 ** (MAX_DIGITS - 1))),
], ids=["spaces", "decimal", "negative-decimal", "plus", "leading-zeros", "negative",
        "cap-digits", "cap-digit-decimal"])
def test_parse_rational_accepts_sign_digits_and_one_slash_or_point(text, value):
    got = parse_rational(text)
    assert type(got) is F and got == value
    format_rational(got)  # renders back within int's digit limit


@pytest.mark.parametrize("text", [
    # exponents: "1e10000000" once took 13 s to expand, larger ones hung
    "1e10000000", "1e5000", "1E5", "2.5e-3", "1e",
    # digits outside ASCII: Arabic-Indic one, fullwidth three, superscript two
    "\u0661", "\uff13", "\u00b2",
    # other forms Fraction accepts, and malformed ones
    "1_000", ".5", "5.", "1/2/3", "1.2.3", "1/-2", "--1", "+-1", "3/ 4", "1 /2",
    "0x10", "inf", "nan", "", " ", "-", "1/0", "-1/000",
])
def test_parse_rational_rejects_everything_else(text):
    with pytest.raises(ValueError, match="^not a rational: "):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1" * (MAX_DIGITS + 1), "1/" + "1" * MAX_DIGITS,
                                  "1." + "0" * MAX_DIGITS, "7" * 10**6],
                         ids=["cap-plus-1-digits", "cap-digit-denominator",
                              "cap-decimals", "million-digits"])
def test_parse_rational_caps_the_digit_count(text):
    # refused before any conversion: a million digits fail as fast as the
    # cap plus one; TooManyDigits is a ValueError, as every refusal here is
    with pytest.raises(TooManyDigits, match=r"^a number of \d+ digits, above the cap "
                       f"of {MAX_DIGITS}$"):
        parse_rational(text)


@pytest.mark.parametrize("text, value", [
    ("7" * MAX_DIGITS, int("7" * MAX_DIGITS)), (" -" + "7" * MAX_DIGITS + " ",
                                                -int("7" * MAX_DIGITS)),
    ("+0", 0), ("1_000", 1000)])
def test_parse_int_is_int_below_the_cap(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", ["7" * (MAX_DIGITS + 1), "-" + "7" * (MAX_DIGITS + 1),
                                  "7" * 10**6])
def test_parse_int_caps_the_digit_count(text):
    with pytest.raises(TooManyDigits, match=f"^a number of {len(text.lstrip('-'))} "
                       f"digits, above the cap of {MAX_DIGITS}$"):
        parse_int(text)


@pytest.mark.parametrize("sign", [1, -1])
def test_capped_int_refuses_one_digit_past_the_cap(sign):
    assert capped_int(sign * (10**MAX_DIGITS - 1)) == sign * (10**MAX_DIGITS - 1)
    with pytest.raises(TooManyDigits, match=f"^a number of more than {MAX_DIGITS} "
                       "digits, above the cap$"):
        capped_int(sign * 10**MAX_DIGITS)


@pytest.mark.parametrize("text", ["x", "", "1.5", "1/2"])
def test_parse_int_refuses_what_int_refuses(text):
    with pytest.raises(ValueError) as exc:
        parse_int(text)
    assert not isinstance(exc.value, TooManyDigits)


def test_json_round_trip():
    x = QuadNumber(F(-31, 2), 3, 30)
    doc = quad_to_json(x)
    assert doc == {"a": "-31/2", "b": "3", "m": 30}
    assert quad_from_json(doc) == x


def test_str_rendering():
    assert str(QuadNumber(0, 1, 6)) == "sqrt(6)"
    assert str(QuadNumber(0, -1, 6)) == "-sqrt(6)"
    assert str(QuadNumber(1, 1, 5)) == "1 + sqrt(5)"
    assert str(QuadNumber(1, -2, 5)) == "1 - 2*sqrt(5)"
    assert str(QuadNumber(F(3, 2))) == "3/2"
    assert str(QuadNumber(0, F(1, 2), 2)) == "1/2*sqrt(2)"


# -- order laws (property-based) ---------------------------------------------

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=24)
radicands = st.one_of(
    st.integers(min_value=0, max_value=80),
    # the benchmark's range: sqrt(d) and sqrt(3d) with d <= 300
    st.integers(min_value=0, max_value=1000),
    # large square factors k**2 * m, absorbed into b by the constructor
    st.builds(lambda k, m: k * k * m,
              st.integers(min_value=2, max_value=40),
              st.integers(min_value=0, max_value=80)),
)


@st.composite
def quad_tuples(draw, n=2):
    m = draw(radicands)
    return tuple(QuadNumber(draw(rationals), draw(rationals), m)
                 for _ in range(n))


@given(quad_tuples(n=2))
def test_trichotomy(xy):
    x, y = xy
    # exactly one of <, ==, > holds, and <= and >= agree with them
    assert [x < y, x == y, x > y].count(True) == 1
    assert (x <= y) == (x < y or x == y)
    assert (x >= y) == (x > y or x == y)
    assert order(x, y) == -order(y, x)


def _library(x):
    """A model value as a QuadNumber, through the public constructor."""
    return QuadNumber(*x)


@given(quad_tuples(n=3))
def test_order_respects_translation_and_positive_scaling(xyz):
    # sums and products in the model, the order in the library
    x, y, z = xyz
    if x >= y:
        x, y = y, x
    if x == y:
        return
    mx, my, mz = map(model.of, (x, y, z))
    assert _library(model.add(mx, mz)) < _library(model.add(my, mz))
    if z > 0:
        assert _library(model.mul(mx, mz)) < _library(model.mul(my, mz))
    elif z < 0:
        assert _library(model.mul(mx, mz)) > _library(model.mul(my, mz))


small = st.fractions(min_value=-20, max_value=20, max_denominator=16)


# The elementary slope implication, a tautology checked in exact arithmetic:
#   (s >= alpha and a >= 2s and b >= a*s - s^2)  =>  b >= a*alpha - alpha^2,
# since a*s - s^2 is nondecreasing in s for s <= a/2.  Both sides are
# computed in the model and compared by the library's order.

def _slope_implication(s, alpha, a, b):
    def rhs(t):  # a*t - t^2
        return _library(model.sub(model.mul(a, t), model.mul(t, t)))

    q_s, q_alpha, q_a, q_b = map(_library, (s, alpha, a, b))
    if q_s >= q_alpha and q_a >= _library(model.mul(2, s)) and q_b >= rhs(s):
        assert q_b >= rhs(alpha)


@given(small, small, small, small)
def test_slope_implication_over_rationals(s, alpha, a, b):
    _slope_implication(*map(model.lift, (s, alpha, a, b)))


@given(small, small, small, small, st.integers(min_value=0, max_value=30))
def test_slope_implication_over_quadratics(p, q, r, w, m):
    _slope_implication(model.quad(p, q, m), model.quad(q, r, m),
                       model.quad(r, w, m), model.quad(w, p, m))


@given(quad_tuples(n=1))
def test_floor_sandwich(xs):
    (x,) = xs
    n = math.floor(x)
    assert F(n) <= x
    assert x < F(n + 1)
    assert math.ceil(x) == -math.floor(QuadNumber(-x.a, -x.b, x.m))


@given(quad_tuples(n=1))
def test_decimal_matches_exact_comparison(xs):
    (x,) = xs
    # 60 digits dwarf the separation of these bounded-height numbers
    approx = x.to_decimal(60)
    n = math.floor(x)
    # Decimal comparisons are exact; Decimal arithmetic would round
    assert Decimal(n) <= approx < Decimal(n + 1)


@given(quad_tuples(n=2))
def test_decimal_order_agrees(xy):
    x, y = xy
    c = order(x, y)
    dx, dy = x.to_decimal(60), y.to_decimal(60)
    if c == 0:
        assert dx == dy
    elif c < 0:
        assert dx < dy
    else:
        assert dx > dy


@given(quad_tuples(n=1))
def test_json_round_trip_property(xs):
    (x,) = xs
    assert quad_from_json(quad_to_json(x)) == x


@given(rationals, st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=30))
def test_square_factor_extraction(b, k, m):
    assert QuadNumber(0, b, k * k * m) == QuadNumber(0, b * k, m)


# -- canonical results and closed-form rounding ------------------------------


def _square_free(m):
    return all(m % (p * p) for p in range(2, math.isqrt(m) + 1))


def assert_canonical(r):
    assert isinstance(r, QuadNumber)
    assert type(r.a) is Fraction and type(r.b) is Fraction
    assert type(r.m) is int
    assert (r.b == 0) == (r.m == 0)
    assert r.m == 0 or (r.m >= 2 and _square_free(r.m))
    rebuilt = QuadNumber(r.a, r.b, r.m)
    assert (rebuilt.a, rebuilt.b, rebuilt.m) == (r.a, r.b, r.m)


@given(quad_tuples(n=1))
def test_constructed_values_are_canonical(xs):
    assert_canonical(xs[0])


@given(st.integers(min_value=0, max_value=10**4),
       st.integers(min_value=1, max_value=10**3))
def test_the_readme_replacement_for_sqrt_rational(p, s):
    # README: sqrt_rational(Fraction(p, s)) is QuadNumber(0, Fraction(1, s), p*s)
    root = QuadNumber(0, F(1, s), p * s)
    assert root == sqrt_of(F(p, s))
    assert_canonical(root)


@given(rationals.filter(lambda q: q >= 0))
def test_sqrt_parts_are_canonical(q):
    r = sqrt_of(q)
    assert_canonical(r)
    assert model.of(r) == model.sqrt(q)
    assert model.mul(model.of(r), model.of(r)) == model.lift(q)


def _int_sign(p, q, m):
    """Sign of p + q*sqrt(m) for integers p, q and m >= 0, by case
    analysis on the two terms' signs and, when they differ, their squares."""
    rad = (q > 0) - (q < 0) if m else 0
    rat = (p > 0) - (p < 0)
    if rad == 0 or rat == 0 or rad == rat:
        return rat or rad
    gap = p * p - q * q * m
    return rat if gap > 0 else rad if gap < 0 else 0


def _floor_of(a, b, m, q):
    """floor((a + b*sqrt(m)) / q) for integers with q > 0, by bisection
    on exact integer sign tests: n <= x iff a - n*q + b*sqrt(m) >= 0.
    Independent of QuadNumber's own comparison and rounding code."""
    reach = abs(b) * (math.isqrt(m) + 1)  # >= |b|*sqrt(m)
    lo, hi = (a - reach) // q, (a + reach) // q + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _int_sign(a - mid * q, b, m) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def _integer_form(x):
    """(A, B, m, Q) with x = (A + B*sqrt(m)) / Q and Q > 0."""
    q = math.lcm(x.a.denominator, x.b.denominator)
    return (x.a.numerator * (q // x.a.denominator),
            x.b.numerator * (q // x.b.denominator), x.m, q)


# r - k*sqrt(m) with r = isqrt(k**2 * m) lies just below an integer;
# scaled and shifted it puts floor/ceil right next to their boundaries
near_integers = st.builds(
    lambda k, m, shift, den: QuadNumber(
        F(math.isqrt(k * k * m) + shift, den), F(-k, den), m),
    st.integers(min_value=1, max_value=10**6), radicands,
    st.integers(min_value=-2, max_value=2), st.integers(min_value=1, max_value=24))


@given(st.one_of(quad_tuples(n=1).map(lambda xs: xs[0]), near_integers))
def test_floor_ceil_match_sign_analysis_oracle(x):
    a, b, m, q = _integer_form(x)
    assert math.floor(x) == _floor_of(a, b, m, q)
    assert math.ceil(x) == -_floor_of(-a, -b, m, q)


# -- differential test against the Fraction-pair model -----------------------
#
# tests/quad_model.py keeps a + b*sqrt(m) as two Fractions over a
# square-free m, as QuadNumber did before it moved to one integer triple
# (A + B*sqrt(m))/Q, and decides signs by case analysis on a and b.


def _parts(q):
    assert type(q.a) is Fraction and type(q.b) is Fraction
    return (q.a, q.b, q.m)


@given(radicands, rationals, rationals, rationals, rationals)
def test_kernel_matches_fraction_pair_model(m, a1, b1, a2, b2):
    x, y = QuadNumber(a1, b1, m), QuadNumber(a2, b2, m)
    mx, my = model.quad(a1, b1, m), model.quad(a2, b2, m)
    assert _parts(x) == mx and _parts(y) == my

    c = model.cmp(mx, my)
    assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)
    assert (x == y) == (mx == my) == (c == 0)
    assert order(x, y) == c
    assert order(x, 0) == model.sign(mx)
    assert hash(x) == model.model_hash(mx)

    assert math.floor(x) == model.floor(mx)
    assert math.ceil(x) == model.ceil(mx)
    assert str(x) == model.render(mx)
    assert repr(x) == f"QuadNumber({mx[0]!r}, {mx[1]!r}, {mx[2]!r})"


@given(radicands, rationals, rationals, rationals)
def test_kernel_mixes_with_rationals_like_the_model(m, a, b, q):
    x, mx = QuadNumber(a, b, m), model.quad(a, b, m)
    c = model.cmp(mx, q)
    assert (x < q, x <= q, x > q, x >= q) == (c < 0, c <= 0, c > 0, c >= 0)
    assert (q < x, q <= x, q > x, q >= x) == (c > 0, c >= 0, c < 0, c <= 0)
    assert (x == q) == (c == 0)
