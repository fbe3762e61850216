"""Floats and bools never reach an exact path: every public entry point
that takes a rational or an integer raises TypeError for them instead
of converting (``Fraction(0.2)`` is not 1/5, ``int(2.5)`` is 2)."""

from fractions import Fraction

import pytest

from curvebounds.blowup import (
    ChernData,
    CurveGeometry,
    DivisorClass,
    H,
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
)
from curvebounds.bounds import (
    barth_check,
    c2plus2_check,
    certify_restriction_stable,
    ci_curve_check,
    gamma_lower,
    gonality_bound,
    gonality_bound_general_r,
    pencil_degree_bound_subvariety,
    restriction_threshold,
    surface_restriction_checks,
)
from curvebounds.replay import (
    GonalityMode,
    RestrictionMode,
    build_system,
    region_empty,
    sweep,
)
from curvebounds.scalar import QuadNumber, exact_int, exact_rational, format_rational
from curvebounds.seshadri import (
    assert_exact,
    bundle_seshadri,
    combine,
    complete_intersection,
    global_generation,
    linked_line,
    normal_bundle_s,
    regularity,
    residual_reduced,
    secant_line,
)

CI52 = CurveGeometry(10, 16)
IV52 = combine(CI52, [complete_intersection(5, 2)])

RATIONAL_ENTRY_POINTS = {
    "exact_rational": exact_rational,
    "format_rational": format_rational,
    "DivisorClass.x": lambda q: DivisorClass(q, 0),
    "DivisorClass.y": lambda q: DivisorClass(0, q),
    "DivisorClass.scale": lambda q: H.scale(q),
    "h_eta": h_eta,
    "ChernData.c2_h": lambda q: ChernData(H, q, 0),
    "ChernData.c2_f": lambda q: ChernData(H, 0, q),
    "chern_of_kernel.c2": lambda q: chern_of_kernel(H, q, 1, "pencil"),
    "chern_of_kernel.degree": lambda q: chern_of_kernel(H, 0, q, "pencil"),
    "delta_eta": lambda q: delta_eta(CI52, q),
    "delta_eta_compact": lambda q: delta_eta_compact(CI52, q),
    "delta_eta_segre": lambda q: delta_eta_segre(CI52, q),
    "lambda_eta": lambda q: lambda_eta(CI52, q),
    "halphen_f": lambda q: halphen_f(CI52, q),
    "discriminant_dot_heta": lambda q: discriminant_dot_heta(
        CI52, ChernData(H, 0, 0), q),
    "genus_consistency": lambda q: genus_consistency(CI52, q),
    "gonality_bound": lambda q: gonality_bound(CI52, q),
    "gonality_bound_general_r": lambda q: gonality_bound_general_r(CI52, q),
    "pencil_degree_bound_subvariety": lambda q: pencil_degree_bound_subvariety(
        10, 70, 1, q, 3),
    "restriction_threshold": lambda q: restriction_threshold(CI52, q),
    "certify_restriction_stable": lambda q: certify_restriction_stable(CI52, q, 0),
    "build_system.gonality": lambda q: build_system(CI52, q, GonalityMode(3)),
    "build_system.restriction": lambda q: build_system(CI52, q, RestrictionMode(3)),
    "normal_bundle_s": normal_bundle_s,
    "assert_exact": assert_exact,
    "SeshadriInterval.__contains__": lambda q: q in IV52,
    "slope_identity_scan.eta": lambda q: slope_identity_scan(CI52, q, 1),
}


@pytest.mark.parametrize("name", sorted(RATIONAL_ENTRY_POINTS))
def test_rational_entry_points_reject_float_and_bool(name):
    call = RATIONAL_ENTRY_POINTS[name]
    for bad in (0.2, True):
        with pytest.raises(TypeError):
            call(bad)
    call(Fraction(1, 5))


INTEGER_ENTRY_POINTS = {
    "exact_int": exact_int,
    "QuadNumber.__pow__": lambda n: QuadNumber(0, 1, 2) ** n,
    "global_generation.n": lambda n: global_generation(n, 5),
    "global_generation.m": lambda n: global_generation(1, n),
    "regularity": regularity,
    "secant_line": secant_line,
    "complete_intersection.a": lambda n: complete_intersection(n, 2),
    "complete_intersection.b": lambda n: complete_intersection(5, n),
    "linked_line.a": lambda n: linked_line(n, 2),
    "linked_line.b": lambda n: linked_line(5, n),
    "bundle_seshadri.n": lambda n: bundle_seshadri(n, 5),
    "bundle_seshadri.m": lambda n: bundle_seshadri(1, n),
    "residual_reduced.a": lambda n: residual_reduced(n, 2),
    "residual_reduced.b": lambda n: residual_reduced(5, n),
    "CurveGeometry.d": lambda n: CurveGeometry(d=n, g=1),
    "CurveGeometry.g": lambda n: CurveGeometry(d=5, g=n),
    "CurveGeometry.r": lambda n: CurveGeometry(d=5, g=1, r=n),
    "certify_restriction_stable.c2": lambda n: certify_restriction_stable(
        CI52, Fraction(1, 5), n),
    "gamma_lower.degree": lambda n: gamma_lower(CI52, [(n, True)], IV52),
    "pencil_degree_bound_subvariety.n": lambda n: pencil_degree_bound_subvariety(
        10, 70, n, Fraction(1, 5), 3),
    "pencil_degree_bound_subvariety.r": lambda n: pencil_degree_bound_subvariety(
        10, 70, 1, Fraction(1, 5), n),
    "barth_check.a": lambda n: barth_check(n, 2),
    "barth_check.c2": lambda n: barth_check(9, n),
    "c2plus2_check.b": lambda n: c2plus2_check(n, 0),
    "c2plus2_check.c2": lambda n: c2plus2_check(5, n),
    "ci_curve_check.a": lambda n: ci_curve_check(n, 2, 0),
    "ci_curve_check.b": lambda n: ci_curve_check(10, n, 0),
    "ci_curve_check.c2": lambda n: ci_curve_check(10, 2, n),
    "surface_restriction_checks.c2": lambda n: surface_restriction_checks(
        "c2plus2", n, b=5),
    "surface_restriction_checks.a": lambda n: surface_restriction_checks(
        "barth", 2, a=n),
    "GonalityMode.k": lambda n: build_system(CI52, Fraction(1, 5), GonalityMode(n)),
    "RestrictionMode.c2": lambda n: build_system(
        CI52, Fraction(1, 5), RestrictionMode(n)),
    "RestrictionMode.l_min": lambda n: build_system(
        CI52, Fraction(1, 5), RestrictionMode(0, n)),
    "region_empty.margin": lambda n: region_empty(
        build_system(CI52, Fraction(1, 5), GonalityMode(3)), margin=n),
    "sweep.margin": lambda n: sweep(CI52, Fraction(1, 5), "gonality", range(3, 5),
                                    margin=n),
    "slope_identity_scan.bound": lambda n: slope_identity_scan(
        CI52, Fraction(1, 5), n),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
def test_integer_entry_points_reject_float_bool_and_fraction(name):
    call = INTEGER_ENTRY_POINTS[name]
    for bad in (3.5, 3.0, True, Fraction(3)):
        with pytest.raises(TypeError):
            call(bad)
    call(3)

