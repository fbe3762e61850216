"""The benchmark's independent ceilings and boxes, against the values
pinned in tests/test_acceptance.py and against high-precision decimals."""

import random
from decimal import Decimal, getcontext
from fractions import Fraction as F

import exact
from curvebounds.catalog import standard_catalog
from curvebounds.seshadri import combine


def ci(a, b):
    return a * b, a * b * (a + b - 4) // 2 + 1


def test_gonality_ceiling_on_pinned_complete_intersections():
    # spread types: exactly the pencil degree a(b - 1)
    for b in range(2, 6):
        for a in range(b + 3, 13):
            assert exact.gonality_ceiling(*ci(a, b), F(1, a)) == a * (b - 1)
    # balanced types: zero
    for a in range(2, 9):
        assert exact.gonality_ceiling(*ci(a, a), F(1, a)) == 0


def test_ceilings_sum_to_the_pinned_catalog_totals():
    # acceptance guarantee 4 replays every k below the gonality ceiling
    # (215 values over the catalog) and every c2 below the threshold (12)
    k_values = c2_values = 0
    for desc in standard_catalog():
        eta = combine(desc.curve, list(desc.evidence)).lower
        d, g = desc.curve.d, desc.curve.g
        k_values += max(0, exact.gonality_ceiling(d, g, eta))
        c2_values += max(0, exact.restriction_ceiling(d, g, eta))
    assert (k_values, c2_values) == (215, 12)


def test_pinned_linked_line_value():
    # ll-7-3: d = 20, g = 57, eta = 1/8, gonality bound exactly 8
    assert exact.gonality_ceiling(20, 57, F(1, 8)) == 8


def test_ceil_quad_matches_decimals():
    getcontext().prec = 80
    rng = random.Random(5)
    for _ in range(2000):
        a = F(rng.randint(-10**6, 10**6), rng.randint(1, 999))
        b = F(rng.randint(-10**4, 10**4), rng.randint(1, 999))
        m = rng.randint(0, 5000)
        value = (Decimal(a.numerator) / a.denominator
                 + Decimal(b.numerator) / b.denominator * Decimal(m).sqrt())
        if abs(value - value.to_integral_value()) > Decimal("1e-40"):
            ceiling = value.to_integral_value(rounding="ROUND_CEILING")
            floor = value.to_integral_value(rounding="ROUND_FLOOR")
            assert exact.ceil_quad(a, b, m) == int(ceiling)
            assert exact.floor_quad(a, b, m) == int(floor)


def test_ceil_quad_on_exact_integers():
    assert exact.ceil_quad(F(3), F(2), 9) == 9        # 3 + 2*3
    assert exact.floor_quad(F(3), F(-2), 9) == -3
    assert exact.ceil_exact(F(-7, 2)) == -3
    assert exact.ceil_exact((F(0), F(1), 2)) == 2


def test_box_points_with_margins():
    assert exact.box_points((0, 2, -1, 0), 0) == 6
    assert exact.box_points((0, 2, -1, 0), 5) == 13 * 12
    assert exact.box_points((1, 0, 0, 0), 0) == 0
