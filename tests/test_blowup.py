"""Intersection ring of the blow-up along the curve, and the invariants
derived from it."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import blowup_oracle as oracle
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
    discriminant_dot_heta,
    genus_consistency,
    h_eta,
    lambda_eta,
    slope_identity_scan,
    top_product,
)
from curvebounds.errors import ArityMismatch, WorkTooLarge

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


@pytest.mark.parametrize("c,expected", [
    (LINE, 2),
    (CUBIC, 10),
    (CI52, 70),
    (CurveGeometry(d=9, g=12), 58),
    (CurveGeometry(d=8, g=5), 40),
    (CurveGeometry(d=7, g=2), 30),
    (CurveGeometry(d=2, g=0), 6),
    (ci(3, 2), 30),
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
    assert H - E == DivisorClass(1, -1)
    assert h_eta(F(1, 5)) == DivisorClass(1, F(-1, 5))
    with pytest.raises(TypeError):
        DivisorClass(1.0, 2)


@pytest.mark.parametrize("op,error", [
    (lambda: H + E, TypeError),
    (lambda: -E, TypeError),
    (lambda: E.scale(F(2, 3)), AttributeError),
], ids=["sum", "negation", "scale"])
def test_divisor_class_has_only_subtraction(op, error):
    # a class is built from its coefficients; A - B is the one operator
    with pytest.raises(error):
        op()


# -- the monomial table ------------------------------------------------------


def test_top_product_table():
    c = CI52
    assert top_product(c, [H, H, H]) == 1
    assert top_product(c, [H, H, E]) == 0
    assert top_product(c, [H, E, E]) == -10
    assert top_product(c, [E, E, E]) == -70
    # integer classes still give a Fraction, as the generic expansion did
    assert all(type(top_product(c, cls)) is Fraction
               for cls in ([H, H, H], [H, E, E], [E, E, E]))


@pytest.mark.parametrize("c", [LINE, CUBIC, CI52, CurveGeometry(d=8, g=5),
                               CurveGeometry(d=9, g=12)],
                         ids=["line", "cubic", "ci52", "d8g5", "d9g12"])
def test_top_product_table_on_p3(c):
    # H^3 = 1, H^2.E = 0, H.E^2 = -d, E^3 = -deg_N, in every order
    assert top_product(c, [H, H, H]) == 1
    for cls in ([H, H, E], [H, E, H], [E, H, H]):
        assert top_product(c, cls) == 0
    for cls in ([H, E, E], [E, H, E], [E, E, H]):
        assert top_product(c, cls) == -c.d
    assert top_product(c, [E, E, E]) == -c.deg_n


# (H - eta*E)^3 = 1 - 3*eta^2*d + eta^3*deg_N, worked by hand
@pytest.mark.parametrize("c,eta,cube", [
    (CI52, F(1, 5), F(9, 25)),       # 1 - 6/5 + 14/25
    (CI52, F(1, 10), F(77, 100)),    # 1 - 3/10 + 7/100
    (CurveGeometry(d=8, g=5), F(1, 4), F(1, 8)),  # 1 - 3/2 + 5/8
    (CUBIC, F(1, 2), 0),             # 1 - 9/4 + 5/4
    (LINE, F(1), 0),                 # 1 - 3 + 2
], ids=["ci52-1/5", "ci52-1/10", "d8g5-1/4", "cubic-1/2", "line-1"])
def test_top_product_polarization_cube(c, eta, cube):
    assert top_product(c, [h_eta(eta), h_eta(eta), h_eta(eta)]) == cube


@pytest.mark.parametrize("count", [0, 1, 2, 4, 5])
def test_top_product_arity(count):
    with pytest.raises(ArityMismatch, match=f"^need exactly 3 classes, got {count}$"):
        top_product(CI52, [H] * count)


curves = st.builds(
    CurveGeometry,
    d=st.integers(min_value=1, max_value=50),
    g=st.integers(min_value=0, max_value=60),
)
etas = st.fractions(min_value=F(1, 40), max_value=3, max_denominator=40)
coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12)
classes = st.builds(DivisorClass, coeffs, coeffs)


@given(curves, classes, classes, classes, coeffs, coeffs)
def test_top_product_multilinear_and_symmetric(c, A, B, C, s, t):
    combination = DivisorClass(s * A.x + t * B.x, s * A.y + t * B.y)
    left = top_product(c, [combination, C, A])
    assert left == s * top_product(c, [A, C, A]) + t * top_product(c, [B, C, A])
    assert top_product(c, [A, B, C]) == top_product(c, [B, C, A])
    assert top_product(c, [A, B, C]) == top_product(c, [C, B, A])


@given(curves, st.lists(classes, min_size=3, max_size=3))
@example(CurveGeometry(d=8, g=5), [H, E, E])
@example(CurveGeometry(d=7, g=2), [E] * 3)
def test_top_product_matches_the_expansion_oracle(c, cls):
    got = top_product(c, cls)
    # Fractions compare numerator and denominator, so this also pins a
    # result in lowest terms
    assert type(got) is Fraction and got == oracle.top_product(c, cls)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=40),
       etas)
def test_top_product_polarization_closed_form(d, g, eta):
    c = CurveGeometry(d=d, g=g)
    val = top_product(c, [h_eta(eta)] * 3)
    assert val == 1 - 3 * eta ** 2 * d + eta ** 3 * c.deg_n


# Product grids for the polynomial identities below: an identity whose
# two sides are polynomials of degree <= n_i in the i-th variable holds
# for all inputs once it holds on a grid of n_i + 1 points per variable
# (see test_slope_identity_holds_for_every_curve_and_class).  d and g
# take the first values their domain allows.
GRID_ETAS = [F(i, 7) for i in range(1, 8)]
GRID_DS = range(1, 8)
GRID_GS = range(0, 8)


def grid(eta_points, d_points=2, g_points=2):
    """(eta, d, g) over the first ``*_points`` values of each axis."""
    return list(product(GRID_ETAS[:eta_points], GRID_DS[:d_points],
                        GRID_GS[:g_points]))


# H_eta^3 = 1 - 3*eta^2*d + eta^3*deg_N, for every (d, g, eta): the
# three classes H - eta*E give hh = 1, he = 3*eta^2 and ee = -eta^3
# against H*E^2 = -d and E^3 = -deg_N, and deg_N = 4d + 2g - 2 is
# linear, so both sides have degree <= 3 in eta and <= 1 in d and in g,
# and the 16 points of a 4 x 2 x 2 grid prove it.
POLARIZATION_GRID = grid(4)


def test_polarization_grid_is_4_by_2_by_2():
    assert len(set(POLARIZATION_GRID)) == 16
    assert [len({point[axis] for point in POLARIZATION_GRID})
            for axis in range(3)] == [4, 2, 2]


@pytest.mark.parametrize("eta,d,g", POLARIZATION_GRID,
                         ids=[f"eta={eta}-d={d}-g={g}" for eta, d, g in POLARIZATION_GRID])
def test_top_product_polarization_closed_form_on_a_grid(eta, d, g):
    c = CurveGeometry(d=d, g=g)
    assert top_product(c, [h_eta(eta)] * 3) == \
        1 - 3 * eta ** 2 * d + eta ** 3 * c.deg_n


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
    assert delta_eta(c, eta) == top_product(c, [E, E, h_eta(eta)])


def test_delta_is_an_intersection_number_on_a_grid():
    """delta_eta = eta*deg_N - d equals E.E.H_eta for every (d, g, eta).

    E, E, H - eta*E give hh = 0, he = 1 and ee = -eta, so
    E.E.H_eta = eta*deg_N - d with deg_N = 4d + 2g - 2: both sides have
    degree <= 1 in each of eta, d and g, and the 8 points of a 2 x 2 x 2
    grid prove it."""
    for eta, d, g in grid(2):
        c = CurveGeometry(d=d, g=g)
        assert delta_eta(c, eta) == top_product(c, [E, E, h_eta(eta)])


@given(curves, etas)
def test_lambda_is_halphen_at_eta_d(c, eta):
    assert lambda_eta(c, eta) == oracle.halphen_f(c, eta * c.d)


def test_lambda_is_halphen_at_eta_d_on_a_grid():
    """lambda_eta = eta^2 d^2 - eta*deg_N + d equals halphen_f at
    x = eta*d for every (d, g, eta).

    halphen_f(x) = x^2 - (4 + (2g - 2)/d)*x + d, and at x = eta*d the
    d of (2g - 2)/d cancels: it is eta^2 d^2 - 4*eta*d - (2g - 2)*eta + d
    for every d >= 1.  Both sides have degree <= 2 in eta and in d and
    <= 1 in g, so a 3 x 3 x 2 grid (18 points) proves it."""
    points = grid(3, d_points=3)
    assert len(points) == 18
    for eta, d, g in points:
        c = CurveGeometry(d=d, g=g)
        assert lambda_eta(c, eta) == oracle.halphen_f(c, eta * d)


def test_halphen_values():
    # at x = eta*d with lambda = 0 the quadratic vanishes
    assert oracle.halphen_f(CI52, 2) == 0
    assert oracle.halphen_f(CUBIC, 1) == 1 - (4 - F(2, 3)) + 3


# -- rank-two Chern data -----------------------------------------------------


def test_chern_of_kernel_signs():
    ch = chern_of_kernel(DivisorClass(0, 0), 0, 7, "pencil")
    assert ch.c1 == DivisorClass(0, -1) and ch.c2_h == 0 and ch.c2_f == 7
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


def test_pencil_kernel_discriminant_is_delta_minus_4_eta_k_on_a_grid():
    """The pencil kernel's discriminant against H_eta is
    delta_eta - 4*eta*k for every (d, g, eta, k).

    Its c1 = -E squares to E.E.H_eta = eta*deg_N - d, and its c2 is
    k times the fiber, which pairs to k*eta: both sides have degree <= 1
    in each of eta, d, g and k, so the 16 points of a 2 x 2 x 2 x 2 grid
    prove it."""
    points = list(product(grid(2), range(2)))
    assert len(points) == 16
    for (eta, d, g), k in points:
        c = CurveGeometry(d=d, g=g)
        ch = chern_of_kernel(DivisorClass(0, 0), 0, k, "pencil")
        assert discriminant_dot_heta(c, ch, eta) == delta_eta(c, eta) - 4 * eta * k


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


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=20000),
       st.fractions(min_value=F(1, 1000), max_value=4, max_denominator=1000))
@example(10, 16, F(1, 5))  # equality: the (5, 2) complete intersection
@example(10, 17, F(1, 5))
def test_genus_consistency_matches_the_fraction_formula(d, g, eps):
    # the integer test against the formula it clears denominators from
    c = CurveGeometry(d=d, g=g)
    assert genus_consistency(c, eps) == (g <= F(d * d) * eps / 2
                                         + d * (1 / (2 * eps) - 2) + 1)


@pytest.mark.parametrize("eps,error", [(0, ZeroDivisionError), (F(0), ZeroDivisionError),
                                       (F(-1, 5), ValueError), (-3, ValueError),
                                       (0.2, TypeError), (True, TypeError)])
def test_genus_consistency_rejects(eps, error):
    with pytest.raises(error):
        genus_consistency(CI52, eps)


# -- slope identity scan ---------------------------------------------------------


@pytest.mark.parametrize("c,eta", [(CI52, F(1, 5)), (CUBIC, F(1, 2)), (LINE, F(1))])
def test_slope_identity_scan_counts_every_class(c, eta):
    for bound, expected in [(0, 1), (1, 9), (4, 81)]:
        assert slope_identity_scan(c, eta, bound) == (expected, [])


@pytest.mark.parametrize("perturbs", [
    lambda A, B, C: B is A,   # D.D.H_eta
    lambda A, B, C: C is E,   # D.H_eta.E
    lambda A, B, C: C is H,   # s = D.H_eta.H
], ids=["D.D.H_eta", "D.H_eta.E", "D.H_eta.H"])
def test_slope_identity_scan_reports_violations(monkeypatch, perturbs):
    # a kernel off by one in one of the three products on the classes
    # with y = 2 must be reported as exactly those classes, in scan
    # order; a scan that evaluated that product in a closed form of its
    # own would report none
    true_product = blowup.top_product

    def off_by_one(c, classes):
        A, B, C = classes
        return true_product(c, classes) + (1 if perturbs(A, B, C) and A.y == 2 else 0)

    monkeypatch.setattr(blowup, "top_product", off_by_one)
    checked, violations = slope_identity_scan(CI52, F(1, 5), 2)
    assert checked == 25
    assert violations == [(x, 2) for x in range(-2, 3)]


def slope_identity_defect(x, y, eta, d, g, lam=lambda_eta):
    """lhs - rhs of the slope identity for D = x*H + y*E, evaluated as
    slope_identity_scan does: through top_product and ``lam``."""
    c = CurveGeometry(d=d, g=g)
    dcls, heta = DivisorClass(x, y), h_eta(eta)
    lhs = top_product(c, (dcls, dcls, heta)) - top_product(c, (dcls, heta, E))
    s = top_product(c, (dcls, heta, H))
    return lhs - (s * s - s * eta * d - lam(c, eta) * (y * y - y))


# one more point per variable than its degree in lhs - rhs
UNIVERSAL_GRID = [(x, y, eta, d, g) for x in range(3) for y in range(3)
                  for eta in (F(1, 7), F(2, 7), F(3, 7)) for d in (1, 2, 3)
                  for g in (0, 1)]


def vanishes_on_the_grid(defect):
    return all(defect(*point) == 0 for point in UNIVERSAL_GRID)


def test_slope_identity_holds_for_every_curve_and_class():
    """The slope identity, as a polynomial identity in (x, y, eta, d, g).

    D.D.H_eta, D.H_eta.E and s = D.H_eta.H = x + y*eta*d expand through
    the monomial table into terms of degree <= 2 in each of x, y and
    eta, with d entering through H.E.E = -d and deg_N = 4d + 2g - 2
    through E^3 = -deg_N.  deg_N is linear and is never multiplied by
    d, and lambda_eta = eta^2 d^2 - eta*deg_N + d.  So lhs - rhs has
    degree <= 2 in each of x, y, eta and d, and <= 1 in g.  A polynomial
    of degree <= k_i in its i-th variable that vanishes on a product
    grid of k_i + 1 points per variable is identically zero (induct on
    the variables: a one-variable polynomial of degree <= k with k + 1
    roots is zero; Alon, "Combinatorial Nullstellensatz", 1999).  The
    grid {0,1,2}^2 x {1/7, 2/7, 3/7} x {1,2,3} x {0,1} has 162 points,
    so evaluating the defect there proves the identity for every class
    of every smooth curve in P^3 and every eta, not only the classes a
    scan visits."""
    assert len(UNIVERSAL_GRID) == 162
    assert vanishes_on_the_grid(slope_identity_defect)


def test_slope_identity_scan_holds_on_the_grid():
    """The scan's own expression, not slope_identity_defect's copy of
    it: its classes {-2..2}^2 contain the grid's {0,1,2}^2, so no
    violation for each grid (eta, d, g) proves, by the degree argument
    above, the identity as the scan evaluates it for every class, curve
    and eta."""
    curves = sorted({(eta, d, g) for _, _, eta, d, g in UNIVERSAL_GRID})
    assert len(curves) == 18
    for eta, d, g in curves:
        assert slope_identity_scan(CurveGeometry(d=d, g=g), eta, 2) == (25, [])


@pytest.mark.parametrize("perturbed", [
    # lambda_eta without its "+ d" term
    lambda c, eta: eta ** 2 * c.d ** 2 - eta * c.deg_n,
    # lambda_eta with deg_N taken as 4d - 2, as if g were 0
    lambda c, eta: lambda_eta(c, eta) + 2 * c.g * eta,
    # a defect that vanishes on every class with y in {0, 1}
    lambda c, eta: lambda_eta(c, eta) + F(1, 3),
], ids=["lambda-without-d", "genus-dropped", "lambda-shifted"])
def test_a_perturbed_slope_identity_fails_the_grid(perturbed):
    def defect(*point):
        return slope_identity_defect(*point, lam=perturbed)
    assert not vanishes_on_the_grid(defect)


@pytest.mark.parametrize("bound", [-1, -3])
def test_slope_identity_scan_rejects_a_negative_range(bound):
    with pytest.raises(ValueError, match="scan range must be nonnegative"):
        slope_identity_scan(CI52, F(1, 5), bound)


def test_work_cap_admits_the_scan_to_range_407():
    # the largest --range the README states: (2R + 1)^2 classes at
    # _CLASS_POINTS replay points each
    def work(bound):
        return (2 * bound + 1) ** 2 * blowup._CLASS_POINTS
    assert work(407) <= blowup.MAX_POINTS < work(408)


def test_slope_identity_scan_refuses_more_classes_than_the_cap(monkeypatch):
    # each class is charged as _CLASS_POINTS replay points
    work = 25 * blowup._CLASS_POINTS
    monkeypatch.setattr(blowup, "MAX_POINTS", work)
    assert slope_identity_scan(CI52, F(1, 5), 2) == (25, [])
    monkeypatch.setattr(blowup, "MAX_POINTS", work - 1)
    monkeypatch.setattr(blowup, "top_product", None)  # no class is evaluated
    with pytest.raises(WorkTooLarge, match=f"range 2 has 25 classes: work of {work} "):
        slope_identity_scan(CI52, F(1, 5), 2)
    monkeypatch.undo()
    with pytest.raises(WorkTooLarge, match="range 100000 has 40000400001 classes"):
        slope_identity_scan(CI52, F(1, 5), 10**5)
