"""Acceptance suite: six end-to-end guarantees, each printing a single
verdict line (run with ``pytest -s`` to see them on passing runs).

Everything here is exact arithmetic; every assertion is equality or a
structural check, never a tolerance.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

import quad_model as model
from blowup_oracle import halphen_f
from curvebounds.blowup import (
    E,
    CurveGeometry,
    delta_eta,
    h_eta,
    lambda_eta,
    slope_identity_scan,
    top_product,
)
from curvebounds.bounds import (
    gonality_bound,
    linked_line_claim_gap,
    restriction_threshold,
    surface_restriction_checks,
)
from curvebounds.catalog import standard_catalog
from curvebounds.errors import NullCorrelationExcluded
from curvebounds.replay import (
    GonalityMode,
    RestrictionMode,
    build_system,
    region_empty,
)
from curvebounds.scalar import QuadNumber
from curvebounds.seshadri import combine

F = Fraction


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def ci_geometry(a, b):
    return CurveGeometry(d=a * b, g=a * b * (a + b - 4) // 2 + 1)


def interval_of(desc):
    return combine(desc.curve, list(desc.evidence))


def assert_point_interval(desc, value):
    iv = interval_of(desc)
    assert iv.lower == value, (desc.name, iv.lower)
    assert iv.upper == value, (desc.name, iv.upper)


# -- 1: pinned exact values ----------------------------------------------------


def test_pinned_values_match_the_catalog():
    with verdict("1/6 exact-value regression (eps, delta/lambda, gonality, "
                 "surface criteria)"):
        cat = {desc.name: desc for desc in standard_catalog()}

        assert_point_interval(cat["line"], F(1))
        for a, b in [(2, 2), (3, 2), (5, 2), (6, 3), (8, 5)]:
            assert_point_interval(cat[f"ci-{a}-{b}"], F(1, a))
        for a, b in [(5, 2), (7, 3)]:
            assert_point_interval(cat[f"ll-{a}-{b}"], F(1, a + b - 2))

        for a in range(2, 9):
            for b in range(2, a + 1):
                c = ci_geometry(a, b)
                assert delta_eta(c, F(1, a)) == b * b
                assert lambda_eta(c, F(1, a)) == 0

        # on spread types the bound is exactly the pencil degree a(b-1);
        # on balanced types it degenerates to zero
        for b in range(2, 6):
            for a in range(b + 3, 13):
                assert gonality_bound(ci_geometry(a, b), F(1, a)).value == a * (b - 1)
        for a in range(2, 9):
            assert gonality_bound(ci_geometry(a, a), F(1, a)).value == 0

        assert surface_restriction_checks("c2plus2", 2, b=4) is True
        assert surface_restriction_checks("barth", 2, a=5) is True
        assert surface_restriction_checks("barth", 2, a=4) is False
        for a in (3, 5, 12):
            with pytest.raises(NullCorrelationExcluded):
                surface_restriction_checks("barth", 1, a=a)
        assert surface_restriction_checks("ci_curve", 2, a=10, b=4) is True


# -- 2: the slope identity on a full grid --------------------------------------


def test_slope_identity_has_no_violations_on_the_grid():
    with verdict("2/6 slope identity exact on |x|, |y| <= 20 "
                 "(4 curves x 4 polarizations)"):
        curves = [
            ci_geometry(3, 2),
            ci_geometry(5, 2),
            CurveGeometry(d=3, g=0),
            CurveGeometry(d=1, g=0),
        ]
        etas = [F(1, 5), F(1, 3), F(1, 2), F(1)]
        checked = 0
        violations = []
        for c in curves:
            for eta in etas:
                n, bad = slope_identity_scan(c, eta, 20)
                checked += n
                violations.extend((c.d, c.g, eta, x, y) for x, y in bad)
        assert checked == 4 * 4 * 41 * 41
        assert violations == []


# -- 3: one invariant, two derivations -----------------------------------------


def test_delta_and_lambda_agree_along_both_derivations():
    with verdict("3/6 delta == E^2.H_eta and lambda == halphen(eta*d) "
                 "on 10^3 random inputs"):
        rng = random.Random(1723)
        for _ in range(1000):
            c = CurveGeometry(d=rng.randint(1, 80), g=rng.randint(0, 400))
            eta = F(rng.randint(1, 40), rng.randint(1, 40))
            assert delta_eta(c, eta) == top_product(c, [E, E, h_eta(eta)])
            assert lambda_eta(c, eta) == halphen_f(c, eta * c.d)


# -- 4: enumeration below every published bound --------------------------------


def test_replay_confirms_every_catalog_bound():
    with verdict("4/6 replay regions empty below every catalog bound, "
                 "margins 0 and +5"):
        k_values = c2_values = 0
        for desc in standard_catalog():
            iv = interval_of(desc)
            eta = iv.lower

            gon = gonality_bound(desc.curve, eta, iv)
            for k in range(gon.value_ceiling):
                k_values += 1
                for margin in (0, 5):
                    out = region_empty(
                        build_system(desc.curve, eta, GonalityMode(k)),
                        margin=margin)
                    assert out.empty, (desc.name, "k", k, margin, out.witness)

            res = restriction_threshold(desc.curve, eta, iv)
            for c2 in range(res.value_ceiling):
                c2_values += 1
                for margin in (0, 5):
                    out = region_empty(
                        build_system(desc.curve, eta, RestrictionMode(c2)),
                        margin=margin)
                    assert out.empty, (desc.name, "c2", c2, margin, out.witness)

        # totals pinned against the per-curve ceilings frozen in test_bounds
        assert k_values == 215
        assert c2_values == 12


# -- 5: scalar order under fire ----------------------------------------------


def order(x, y):
    """-1, 0 or 1 as x <, =, > y, by the rich comparisons."""
    return (x > y) - (x < y)



def test_scalar_order_and_decimal_agreement():
    # sums in the Fraction-pair model, the order and rounding in the library
    with verdict("5/6 10^4 order checks against the Fraction-pair model; "
                 "the order matches 100-digit decimals throughout"):
        rng = random.Random(40961)

        def rand_quad(m):
            a = F(rng.randint(-60, 60), rng.randint(1, 12))
            b = F(rng.randint(-60, 60), rng.randint(1, 12))
            return model.quad(a, b, m)

        for _ in range(10_000):
            m = rng.choice([0, 1, 2, 3, 5, 6, 7, 10, 30])
            mx, my, mz = rand_quad(m), rand_quad(m), rand_quad(m)
            x, y = QuadNumber(*mx), QuadNumber(*my)
            assert (x.a, x.b, x.m) == mx

            cmp_xy = order(x, y)
            assert cmp_xy == model.cmp(mx, my) == -order(y, x)
            assert (x == y) == (cmp_xy == 0)
            assert cmp_xy == order(QuadNumber(*model.add(mx, mz)),
                                   QuadNumber(*model.add(my, mz)))

            n = math.floor(x)
            assert model.cmp(mx, n) >= 0 > model.cmp(mx, n + 1)

            dx, dy = x.to_decimal(100), y.to_decimal(100)
            assert cmp_xy == (dx > dy) - (dx < dy)


# -- 6: discrepancies stay warnings --------------------------------------------


def test_pencil_gap_surfaces_as_a_warning():
    with verdict("6/6 linked-line pencil gap reported as a warning, "
                 "never certified"):
        for a, b in [(5, 2), (7, 3)]:
            gap = linked_line_claim_gap(a, b)
            assert gap is not None
            assert gap.code == "linked-line-pencil-gap"
            assert gap.data["pencil_degree"] == (a - 1) * (b - 1)

        # the certified value itself is never inflated to the claimed degree
        ll73 = CurveGeometry(d=20, g=57)
        assert gonality_bound(ll73, F(1, 8)).value == 8
        assert linked_line_claim_gap(7, 3).data["pencil_degree"] == 12
