"""Intersection ring of the blow-up along the curve, and the invariants
derived from it."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvebounds import blowup
from curvebounds.blowup import (
    E,
    H,
    ChernData,
    CurveGeometry,
    DivisorClass,
    bogomolov_unstable,
    chern_of_kernel,
    delta_eta,
    delta_eta_compact,
    delta_eta_segre,
    discriminant_dot_heta,
    genus_consistency,
    h_eta,
    halphen_f,
    lambda_eta,
    slope_identity_scan,
    top_product,
    triple_product,
)
from curvebounds.errors import ArityMismatch, UnsupportedDimension

F = Fraction

LINE = CurveGeometry(d=1, g=0)
CUBIC = CurveGeometry(d=3, g=0)
CI52 = CurveGeometry(d=10, g=16)


def ci(a, b):
    return CurveGeometry(d=a * b, g=a * b * (a + b - 4) // 2 + 1)


# -- geometry input ----------------------------------------------------------


def test_curve_validation():
    with pytest.raises(ValueError):
        CurveGeometry(d=0, g=0)
    with pytest.raises(ValueError):
        CurveGeometry(d=1, g=-1)
    with pytest.raises(ValueError):
        CurveGeometry(d=1, g=0, r=2)


@pytest.mark.parametrize("c,expected", [
    (LINE, 2),
    (CUBIC, 10),
    (CI52, 70),
    (CurveGeometry(d=9, g=12), 58),
    (CurveGeometry(d=8, g=5, r=4), 48),
])
def test_normal_bundle_degree(c, expected):
    assert c.deg_n == expected


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=20))
def test_normal_bundle_degree_complete_intersection(a, b):
    # 4ab + 2g - 2 with 2g - 2 = ab(a+b-4) collapses to ab(a+b)
    if a < b:
        a, b = b, a
    assert ci(a, b).deg_n == a * b * (a + b)


def test_divisor_class_arithmetic():
    assert H + E == DivisorClass(1, 1)
    assert H - E == DivisorClass(1, -1)
    assert -E == DivisorClass(0, -1)
    assert E.scale(F(2, 3)) == DivisorClass(0, F(2, 3))
    assert h_eta(F(1, 5)) == DivisorClass(1, F(-1, 5))
    with pytest.raises(TypeError):
        DivisorClass(1.0, 2)


# -- the monomial table ------------------------------------------------------


def test_triple_product_table():
    c = CI52
    assert triple_product(c, H, H, H) == 1
    assert triple_product(c, H, H, E) == 0
    assert triple_product(c, H, E, E) == -10
    assert triple_product(c, E, E, E) == -70


def test_triple_product_polarization_cube():
    # (H - eta*E)^3 = 1 - 3*eta^2*d + eta^3*deg_N
    eta = F(1, 5)
    assert triple_product(CI52, h_eta(eta), h_eta(eta), h_eta(eta)) == F(9, 25)


def test_triple_product_needs_r3():
    c4 = CurveGeometry(d=8, g=5, r=4)
    with pytest.raises(UnsupportedDimension):
        triple_product(c4, H, H, H)


def test_top_product_table_r4():
    c4 = CurveGeometry(d=8, g=5, r=4)
    assert top_product(c4, [H, H, H, H]) == 1
    assert top_product(c4, [H, H, H, E]) == 0
    assert top_product(c4, [H, H, E, E]) == 0
    assert top_product(c4, [H, E, E, E]) == 8
    assert top_product(c4, [E, E, E, E]) == 48


def test_top_product_arity():
    with pytest.raises(ArityMismatch):
        top_product(CI52, [H, H])
    with pytest.raises(ArityMismatch):
        top_product(CurveGeometry(d=2, g=0, r=4), [H, H, H])


curves = st.builds(
    CurveGeometry,
    d=st.integers(min_value=1, max_value=50),
    g=st.integers(min_value=0, max_value=60),
)
etas = st.fractions(min_value=F(1, 40), max_value=3, max_denominator=40)
coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12)
classes = st.builds(DivisorClass, coeffs, coeffs)


@given(curves, classes, classes, classes, coeffs, coeffs)
def test_triple_product_multilinear_and_symmetric(c, A, B, C, s, t):
    left = triple_product(c, A.scale(s) + B.scale(t), C, A)
    assert left == s * triple_product(c, A, C, A) + t * triple_product(c, B, C, A)
    assert triple_product(c, A, B, C) == triple_product(c, B, C, A)
    assert triple_product(c, A, B, C) == triple_product(c, C, B, A)


@given(curves, classes, classes, classes)
def test_top_product_matches_triple_at_r3(c, A, B, C):
    assert top_product(c, [A, B, C]) == triple_product(c, A, B, C)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=40),
       st.integers(min_value=4, max_value=6), etas)
def test_top_product_polarization_closed_form(d, g, r, eta):
    c = CurveGeometry(d=d, g=g, r=r)
    val = top_product(c, [h_eta(eta)] * r)
    assert val == 1 - r * eta ** (r - 1) * d + eta ** r * c.deg_n


# -- derived invariants ------------------------------------------------------


def test_delta_known_values():
    assert delta_eta(CI52, F(1, 5)) == 4
    assert delta_eta(CUBIC, F(1, 2)) == 2
    assert delta_eta(ci(6, 3), F(1, 6)) == 9


@pytest.mark.parametrize("a", range(2, 9))
def test_delta_and_lambda_on_ci_family(a):
    for b in range(2, a + 1):
        c = ci(a, b)
        assert delta_eta(c, F(1, a)) == b * b
        assert lambda_eta(c, F(1, a)) == 0


@given(curves, etas)
def test_delta_is_an_intersection_number(c, eta):
    assert delta_eta(c, eta) == triple_product(c, E, E, h_eta(eta))


@given(curves, etas)
def test_lambda_is_halphen_at_eta_d(c, eta):
    assert lambda_eta(c, eta) == halphen_f(c, eta * c.d)


def test_delta_conventions_agree_at_r3():
    for eta in (F(1, 5), F(1, 3), F(2, 7)):
        assert delta_eta_compact(CI52, eta) == delta_eta(CI52, eta)
        assert delta_eta_segre(CI52, eta) == delta_eta(CI52, eta)


def test_delta_conventions_split_at_r4():
    c4 = CurveGeometry(d=8, g=5, r=4)
    eta = F(1, 4)
    assert delta_eta_compact(c4, eta) == 1
    assert delta_eta_segre(c4, eta) == -1
    with pytest.raises(UnsupportedDimension):
        delta_eta(c4, eta)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=40),
       st.integers(min_value=4, max_value=6), etas)
def test_delta_convention_gap_is_the_degree_term(d, g, r, eta):
    c = CurveGeometry(d=d, g=g, r=r)
    gap = delta_eta_segre(c, eta) - delta_eta_compact(c, eta)
    assert gap == -(r - 3) * eta ** (r - 3) * d


def test_halphen_values():
    # at x = eta*d with lambda = 0 the quadratic vanishes
    assert halphen_f(CI52, 2) == 0
    assert halphen_f(CUBIC, 1) == 1 - (4 - F(2, 3)) + 3


# -- rank-two Chern data -----------------------------------------------------


def test_chern_of_kernel_signs():
    ch = chern_of_kernel(DivisorClass(0, 0), 0, 7, "pencil")
    assert ch.c1 == -E and ch.c2_h == 0 and ch.c2_f == 7
    ch = chern_of_kernel(H, F(1, 2), 7, "destabilizer")
    assert ch.c1 == H - E and ch.c2_h == F(1, 2) and ch.c2_f == -7
    with pytest.raises(ValueError):
        chern_of_kernel(H, 0, 1, "quotient")


def test_discriminant_known_values():
    ch = ChernData(H, 0, 0)
    assert discriminant_dot_heta(CI52, ch, F(1, 5)) == 1
    ch = ChernData(H, 1, 2)
    assert discriminant_dot_heta(CI52, ch, F(1, 5)) == 1 - 4 * (1 + F(2, 5))
    assert not bogomolov_unstable(CI52, ch, F(1, 5))
    assert bogomolov_unstable(CI52, ChernData(H, -1, 2), F(1, 5))


@given(curves, etas, st.integers(min_value=0, max_value=60))
def test_pencil_kernel_discriminant_is_delta_minus_4_eta_k(c, eta, k):
    # the instability threshold that feeds the degree bound's delta term
    ch = chern_of_kernel(DivisorClass(0, 0), 0, k, "pencil")
    disc = discriminant_dot_heta(c, ch, eta)
    assert disc == delta_eta(c, eta) - 4 * eta * k


def test_pencil_instability_flips_at_the_delta_term():
    # for the (5,2) complete intersection at eta = 1/5 the threshold is 5
    for k in range(5):
        ch = chern_of_kernel(DivisorClass(0, 0), 0, k, "pencil")
        assert bogomolov_unstable(CI52, ch, F(1, 5))
    ch = chern_of_kernel(DivisorClass(0, 0), 0, 5, "pencil")
    assert not bogomolov_unstable(CI52, ch, F(1, 5))


# -- genus gate --------------------------------------------------------------


def test_genus_consistency():
    assert genus_consistency(CI52, F(1, 5))
    assert not genus_consistency(CI52, F(1, 4))
    assert genus_consistency(LINE, 1)
    with pytest.raises(ZeroDivisionError):
        genus_consistency(CI52, 0)
    with pytest.raises(ValueError):
        genus_consistency(CI52, F(-1, 5))


@given(curves, etas)
def test_genus_consistency_is_the_sign_of_lambda(c, eta):
    assert genus_consistency(c, eta) == (lambda_eta(c, eta) >= 0)


# -- slope identity scan ---------------------------------------------------------


@pytest.mark.parametrize("c,eta", [(CI52, F(1, 5)), (CUBIC, F(1, 2)), (LINE, F(1))])
def test_slope_identity_scan_counts_every_class(c, eta):
    for bound, expected in [(0, 1), (1, 9), (4, 81)]:
        assert slope_identity_scan(c, eta, bound) == (expected, [])


def test_slope_identity_scan_reports_violations(monkeypatch):
    # a kernel off by one in D.D.H_eta on the classes with y = 2 must be
    # reported as exactly those classes, in scan order
    true_product = blowup.triple_product

    def off_by_one(c, A, B, C):
        return true_product(c, A, B, C) + (1 if B is A and A.y == 2 else 0)

    monkeypatch.setattr(blowup, "triple_product", off_by_one)
    checked, violations = slope_identity_scan(CI52, F(1, 5), 2)
    assert checked == 25
    assert violations == [(x, 2) for x in range(-2, 3)]


@pytest.mark.parametrize("bound", [-1, -3])
def test_slope_identity_scan_rejects_a_negative_range(bound):
    with pytest.raises(ValueError, match="scan range must be nonnegative"):
        slope_identity_scan(CI52, F(1, 5), bound)
