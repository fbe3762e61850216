"""Floats and bools never reach an exact path: every public entry point
that takes a rational or an integer raises TypeError for them instead
of converting (``Fraction(0.2)`` is not 1/5, ``int(2.5)`` is 2)."""

import inspect
from fractions import Fraction

import pytest

import curvebounds
from cases import CI52
from curvebounds.blowup import (
    ChernData,
    CurveGeometry,
    DivisorClass,
    H,
    bogomolov_unstable,
    chern_of_kernel,
    delta_eta,
    discriminant_dot_heta,
    h_eta,
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
from curvebounds.scalar import (
    QuadNumber,
    decimal_str,
    exact_int,
    exact_rational,
    format_rational,
)
from curvebounds.seshadri import (
    EVIDENCE_KINDS,
    Evidence,
    combine,
)

IV52 = combine(CI52, [Evidence("complete_intersection", (5, 2))])

RATIONAL_ENTRY_POINTS = {
    "exact_rational": exact_rational,
    "format_rational": format_rational,
    "QuadNumber.a": QuadNumber,
    "QuadNumber.b": lambda q: QuadNumber(0, q, 2),
    # the order's two operands, as (x > y) - (x < y)
    "order.x": lambda q: (q > QuadNumber(0, 1, 2)) - (q < QuadNumber(0, 1, 2)),
    "order.y": lambda q: (QuadNumber(0, 1, 2) > q) - (QuadNumber(0, 1, 2) < q),
    "decimal_str.x": decimal_str,
    "DivisorClass.x": lambda q: DivisorClass(q, 0),
    "DivisorClass.y": lambda q: DivisorClass(0, q),
    "h_eta": h_eta,
    "ChernData.c2_h": lambda q: ChernData(H, q, 0),
    "ChernData.c2_f": lambda q: ChernData(H, 0, q),
    "chern_of_kernel.c2": lambda q: chern_of_kernel(H, q, 1, "pencil"),
    "chern_of_kernel.degree": lambda q: chern_of_kernel(H, 0, q, "pencil"),
    "delta_eta": lambda q: delta_eta(CI52, q),
    "lambda_eta": lambda q: lambda_eta(CI52, q),
    "discriminant_dot_heta": lambda q: discriminant_dot_heta(
        CI52, ChernData(H, 0, 0), q),
    "bogomolov_unstable": lambda q: bogomolov_unstable(CI52, ChernData(H, 0, 0), q),
    "gonality_bound": lambda q: gonality_bound(CI52, q),
    "restriction_threshold": lambda q: restriction_threshold(CI52, q),
    "certify_restriction_stable": lambda q: certify_restriction_stable(CI52, q, 0),
    "build_system.gonality": lambda q: build_system(CI52, q, GonalityMode(3)),
    "build_system.restriction": lambda q: build_system(CI52, q, RestrictionMode(3)),
    "Evidence.normal_bundle_s": lambda q: Evidence("normal_bundle_s", (q,)),
    "Evidence.assert_exact": lambda q: Evidence("assert_exact", (q,)),
    "SeshadriInterval.__contains__": lambda q: q in IV52,
    "slope_identity_scan.eta": lambda q: slope_identity_scan(CI52, q, 1),
    "sweep.eta": lambda q: sweep(CI52, q, "gonality", range(3, 5)),
    "sweep.eta.empty_range": lambda q: sweep(CI52, q, "gonality", range(0)),
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
    "QuadNumber.m": lambda n: QuadNumber(0, 1, n),
    "Evidence.global_generation.n": lambda n: Evidence("global_generation", (n, 5)),
    "Evidence.global_generation.m": lambda n: Evidence("global_generation", (1, n)),
    "Evidence.regularity": lambda n: Evidence("regularity", (n,)),
    "Evidence.secant_line": lambda n: Evidence("secant_line", (n,)),
    "Evidence.complete_intersection.a": lambda n: Evidence(
        "complete_intersection", (n, 2)),
    "Evidence.complete_intersection.b": lambda n: Evidence(
        "complete_intersection", (5, n)),
    "Evidence.linked_line.a": lambda n: Evidence("linked_line", (n, 2)),
    "Evidence.linked_line.b": lambda n: Evidence("linked_line", (5, n)),
    "Evidence.bundle_seshadri.n": lambda n: Evidence("bundle_seshadri", (n, 5)),
    "Evidence.bundle_seshadri.m": lambda n: Evidence("bundle_seshadri", (1, n)),
    "Evidence.residual_reduced.a": lambda n: Evidence("residual_reduced", (n, 2)),
    "Evidence.residual_reduced.b": lambda n: Evidence("residual_reduced", (5, n)),
    "CurveGeometry.d": lambda n: CurveGeometry(d=n, g=1),
    "CurveGeometry.g": lambda n: CurveGeometry(d=5, g=n),
    "certify_restriction_stable.c2": lambda n: certify_restriction_stable(
        CI52, Fraction(1, 5), n),
    "gamma_lower.degree": lambda n: gamma_lower(CI52, [(n, True)], IV52),
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
    "surface_restriction_checks.b": lambda n: surface_restriction_checks(
        "c2plus2", 2, b=n),
    "GonalityMode.k": lambda n: build_system(CI52, Fraction(1, 5), GonalityMode(n)),
    "RestrictionMode.c2": lambda n: build_system(
        CI52, Fraction(1, 5), RestrictionMode(n)),
    "RestrictionMode.l_min": lambda n: build_system(
        CI52, Fraction(1, 5), RestrictionMode(0, n)),
    "region_empty.margin": lambda n: region_empty(
        build_system(CI52, Fraction(1, 5), GonalityMode(3)), margin=n),
    "sweep.margin": lambda n: sweep(CI52, Fraction(1, 5), "gonality", range(3, 5),
                                    margin=n),
    "sweep.l_min": lambda n: sweep(CI52, Fraction(1, 5), "restriction", range(0, 1),
                                   l_min=n),
    "sweep.l_min.gonality": lambda n: sweep(CI52, Fraction(1, 5), "gonality",
                                            range(3, 5), l_min=n),
    "sweep.l_min.empty_range": lambda n: sweep(CI52, Fraction(1, 5), "restriction",
                                               range(0), l_min=n),
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


INTERVAL_ENTRY_POINTS = {
    "gonality_bound": lambda iv: gonality_bound(CI52, Fraction(1, 5), iv),
    "restriction_threshold": lambda iv: restriction_threshold(CI52, Fraction(1, 5), iv),
    "certify_restriction_stable": lambda iv: certify_restriction_stable(
        CI52, Fraction(1, 5), 0, iv),
}


@pytest.mark.parametrize("name", sorted(INTERVAL_ENTRY_POINTS))
def test_interval_is_a_seshadri_interval_or_none(name):
    # a tuple that holds eta, like a str or a float, is refused at entry
    # with its own message, not by an accident of ``eta in interval``
    call = INTERVAL_ENTRY_POINTS[name]
    for bad in ("x", [], 0.2, (Fraction(1, 5), Fraction(1, 5))):
        with pytest.raises(TypeError, match="interval must be a SeshadriInterval"):
            call(bad)
    call(None)
    call(IV52)


def test_every_evidence_field_has_a_float_and_bool_test():
    # evidence is built through Evidence; the parameters come in one
    # tuple, so each (kind, field) pair needs its own row, keyed
    # "Evidence.kind.field", or "Evidence.kind" when the kind has one field
    table = {**RATIONAL_ENTRY_POINTS, **INTEGER_ENTRY_POINTS}
    missing = [f"Evidence.{kind}.{field}" for kind, row in EVIDENCE_KINDS.items()
               for field in row.fields
               if f"Evidence.{kind}.{field}" not in table
               and not (row.fields == (field,) and f"Evidence.{kind}" in table)]
    assert not missing


# -- drift guard: every re-exported exact-scalar parameter is tested --------

SCALAR_ANNOTATIONS = {"int", "Optional[int]", "RationalLike", "QuadLike"}

# parameters that take an exact scalar but need no float/bool test here
EXEMPT = {
    "BoundReport": "result record: built by the library from checked values",
    "Box": "result record: built by build_system from checked values",
    "CertificationResult": "result record: c2 was checked by certify_restriction_stable",
    "ReplayOutcome": "result record: built by region_empty",
    "SweepResult": "result record: built by sweep",
    "decimal_str.digits": "display precision only; no exact value depends on it",
}


def _scalar_parameters(obj) -> list[str]:
    """Parameters of a callable (or fields of a record class without its
    own constructor) annotated as an exact scalar."""
    params = inspect.signature(obj).parameters
    if isinstance(obj, type) and "args" in params:
        annotations = obj.__annotations__
    else:
        annotations = {name: p.annotation for name, p in params.items()}
    return [name for name, ann in annotations.items() if ann in SCALAR_ANNOTATIONS]


def _tested_parameters(name: str, params: list[str]) -> set[str]:
    """The parameters of ``name`` that the entry-point tables exercise.
    A key ``name.param`` names its parameter; a bare ``name`` (or a
    ``name.label`` whose label is no parameter) stands for the one
    parameter that no other key of ``name`` names."""
    keys = [k for k in (*RATIONAL_ENTRY_POINTS, *INTEGER_ENTRY_POINTS)
            if k.split(".")[0] == name]
    named = {k.split(".", 1)[1] for k in keys if "." in k} & set(params)
    rest = [p for p in params if p not in named]
    if len(rest) == 1 and len(keys) > len(named):
        named.add(rest[0])
    return named


def _is_entry_point(obj) -> bool:
    return callable(obj) and not (isinstance(obj, type)
                                  and issubclass(obj, BaseException))


REEXPORTED = sorted(name for name in dir(curvebounds) if not name.startswith("_")
                    and _is_entry_point(getattr(curvebounds, name)))


@pytest.mark.parametrize("name", REEXPORTED)
def test_every_exact_scalar_parameter_has_a_float_and_bool_test(name):
    if name in EXEMPT:
        return
    params = _scalar_parameters(getattr(curvebounds, name))
    missing = [p for p in params if f"{name}.{p}" not in EXEMPT
               and p not in _tested_parameters(name, params)]
    assert not missing, (
        f"{name}({', '.join(missing)}) takes an exact scalar: add a "
        "RATIONAL_ENTRY_POINTS or INTEGER_ENTRY_POINTS entry, or an EXEMPT reason")


def test_exempt_names_are_reexported():
    for key in EXEMPT:
        name, _, param = key.partition(".")
        assert name in REEXPORTED
        assert not param or param in _scalar_parameters(getattr(curvebounds, name))
