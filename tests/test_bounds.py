"""Gonality lower bounds, restriction-stability thresholds, and the
surface criteria, pinned against hand-computed values and compared with
the generic-arithmetic oracle in bounds_oracle.py."""

import math
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

import bounds_oracle as oracle
import quad_model as model
import seshadri_oracle
from curvebounds import bounds
from curvebounds.blowup import CurveGeometry
from curvebounds.bounds import (
    BoundReport,
    _with_liaison_gap,
    barth_check,
    c2plus2_check,
    certify_restriction_stable,
    ci_curve_check,
    gamma_lower,
    gonality_bound,
    restriction_threshold,
    surface_restriction_checks,
)
from curvebounds.catalog import load_descriptor
from curvebounds.errors import (
    InconsistentEvidence,
    NoEvidence,
    NonpositiveEta,
    NonpositiveGamma,
    NullCorrelationExcluded,
    RadicandTooLarge,
)
from curvebounds.scalar import MAX_RADICAND, QuadNumber
from curvebounds.seshadri import Evidence, SeshadriInterval, combine

F = Fraction

LINE = CurveGeometry(d=1, g=0)
CUBIC = CurveGeometry(d=3, g=0)
CI22 = CurveGeometry(d=4, g=1)
CI32 = CurveGeometry(d=6, g=4)
CI52 = CurveGeometry(d=10, g=16)
CI63 = CurveGeometry(d=18, g=46)
CI85 = CurveGeometry(d=40, g=181)
CI504 = CurveGeometry(d=200, g=5001)
LL52 = CurveGeometry(d=9, g=12)
LL73 = CurveGeometry(d=20, g=57)


# -- gonality bound: frozen values -------------------------------------------

GONALITY_CASES = [
    # curve, eta, value, ceiling
    (LINE, F(1), QuadNumber(0), 0),
    (CUBIC, F(1, 2), QuadNumber(-15, 9, 3), 1),
    (CI22, F(1, 2), QuadNumber(0), 0),
    (CI32, F(1, 3), QuadNumber(-42, 18, 6), 3),
    (CI52, F(1, 5), QuadNumber(5), 5),
    (CI63, F(1, 6), QuadNumber(12), 12),
    (CI85, F(1, 8), QuadNumber(32), 32),
    (CI504, F(1, 50), QuadNumber(150), 150),
    (LL52, F(1, 5), QuadNumber(F(13, 4)), 4),
    (LL73, F(1, 8), QuadNumber(8), 8),
]


@pytest.mark.parametrize("c,eta,value,ceiling", GONALITY_CASES)
def test_gonality_values(c, eta, value, ceiling):
    rep = gonality_bound(c, eta)
    assert rep.value == value
    assert rep.value_ceiling == ceiling


def test_gonality_report_details_quintic_quadric():
    rep = gonality_bound(CI52, F(1, 5))
    assert rep.term_delta == 5
    assert rep.alpha == 1
    assert rep.term_alpha == 5
    assert rep.inputs == {"d": 10, "g": 16, "r": 3, "eta": F(1, 5)}
    assert "delta = eta*deg_N - d = 4" in rep.trace
    assert rep.discrepancies == ()


def test_gonality_report_details_cubic():
    rep = gonality_bound(CUBIC, F(1, 2))
    assert rep.term_delta == 1
    assert rep.alpha == QuadNumber(F(-3, 2), 1, 3)
    assert rep.term_alpha == QuadNumber(-15, 9, 3)


def test_gonality_trace_is_pinned_at_d8_g5():
    # the values the removed general-r report printed at r = 3, under
    # the certified bound's own step texts
    rep = gonality_bound(CurveGeometry(d=8, g=5), F(1, 4))
    assert rep.trace == (
        "inputs: d = 8, g = 5, r = 3, eta = 1/4",
        "deg_N = (r+1)d + 2g - 2 = 40",
        "delta = eta*deg_N - d = 2",
        "delta term: delta/(4*eta) = 2",
        "alpha = min(1, sqrt(8) - eta*d) = -2 + 2*sqrt(2)",
        "alpha term: alpha*(d - alpha/eta) = -64 + 48*sqrt(2)",
        "value = min of the two terms = 2; smallest integer >= value: 2",
    )
    assert rep.alpha == QuadNumber(-2, 2, 2)
    assert rep.term_alpha == QuadNumber(-64, 48, 2)


@pytest.mark.parametrize("b", range(2, 6))
def test_gonality_matches_pencil_degree_for_spread_types(b):
    # alpha saturates at 1 once a >= b + 3, and the delta term never
    # undercuts a(b-1), so the bound is exactly the pencil degree
    for a in range(b + 3, 13):
        c = CurveGeometry(d=a * b, g=a * b * (a + b - 4) // 2 + 1)
        rep = gonality_bound(c, F(1, a))
        assert rep.value == a * (b - 1)
        assert rep.term_delta == F(a * b * b, 4)
        assert rep.term_delta >= a * (b - 1)


@pytest.mark.parametrize("a", range(2, 9))
def test_gonality_vanishes_on_balanced_types(a):
    c = CurveGeometry(d=a * a, g=a * a * (2 * a - 4) // 2 + 1)
    rep = gonality_bound(c, F(1, a))
    assert rep.value == 0
    assert rep.alpha == 0


def test_gonality_input_validation():
    with pytest.raises(NonpositiveEta, match="^eta must be positive, got 0$"):
        gonality_bound(CI52, 0)
    with pytest.raises(NonpositiveEta, match="^eta must be positive, got -1/5$"):
        gonality_bound(CI52, F(-1, 5))


def test_gonality_interval_warning():
    iv = combine(CI52, [Evidence("complete_intersection", (5, 2))])
    rep = gonality_bound(CI52, F(1, 4), interval=iv)
    assert any("outside the certified interval" in t for t in rep.trace)
    rep = gonality_bound(CI52, F(1, 5), interval=iv)
    assert not any("outside" in t for t in rep.trace)


def test_reports_are_deterministic():
    assert gonality_bound(CI52, F(1, 5)) == gonality_bound(CI52, F(1, 5))
    assert restriction_threshold(LL73, F(1, 8)) == restriction_threshold(LL73, F(1, 8))


@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40),
       st.fractions(min_value=F(1, 30), max_value=1, max_denominator=30))
def test_gonality_monotone_in_genus(d, g, extra, eta):
    lo = gonality_bound(CurveGeometry(d=d, g=g), eta)
    hi = gonality_bound(CurveGeometry(d=d, g=g + extra), eta)
    # only the delta term depends on g, and it grows with deg_N
    assert lo.value <= hi.value


# -- restriction threshold: frozen values -------------------------------------

RESTRICTION_CASES = [
    (LINE, F(1), QuadNumber(0), 0),
    (CUBIC, F(1, 2), QuadNumber(0), 0),
    (CI22, F(1, 2), QuadNumber(0), 0),
    (CI32, F(1, 3), QuadNumber(F(-25, 2), 9, 2), 1),
    (CI52, F(1, 5), QuadNumber(F(-31, 2), 3, 30), 1),
    (CI63, F(1, 6), QuadNumber(F(-63, 2), F(27, 2), 6), 2),
    (CI85, F(1, 8), QuadNumber(-80, 15, 30), 3),
    (CI504, F(1, 50), QuadNumber(3), 3),
    (LL52, F(1, 5), QuadNumber(F(13, 20)), 1),
    (LL73, F(1, 8), QuadNumber(1), 1),
]


@pytest.mark.parametrize("c,gamma,value,ceiling", RESTRICTION_CASES)
def test_restriction_values(c, gamma, value, ceiling):
    rep = restriction_threshold(c, gamma)
    assert rep.value == value
    assert rep.value_ceiling == ceiling


def test_restriction_report_details():
    rep = restriction_threshold(CI504, F(1, 50))
    assert rep.term_delta == 4
    assert rep.alpha == 1
    assert rep.term_alpha == 3
    rep = restriction_threshold(LINE, 1)
    assert rep.alpha == 0
    assert any("clamped to 0" in t for t in rep.trace)


def test_restriction_input_validation():
    # both restriction entry points raise the threshold's own error
    with pytest.raises(NonpositiveGamma, match="^gamma must be positive, got 0$"):
        restriction_threshold(CI52, 0)
    with pytest.raises(NonpositiveGamma, match="^gamma must be positive, got -1/5$"):
        certify_restriction_stable(CI52, F(-1, 5), 0)


@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=40),
       st.fractions(min_value=F(1, 30), max_value=1, max_denominator=30))
def test_restriction_monotone_in_genus(d, g, extra, gamma):
    lo = restriction_threshold(CurveGeometry(d=d, g=g), gamma)
    hi = restriction_threshold(CurveGeometry(d=d, g=g + extra), gamma)
    assert lo.value <= hi.value


# -- certification ------------------------------------------------------------


def test_certify_strictly_below_threshold():
    res = certify_restriction_stable(CI504, F(1, 50), 2)
    assert res.certified and res.verdict == "certified"
    assert "strict" in res.reason


def test_certify_at_threshold_is_inconclusive():
    # the threshold is exactly 3: equality must not certify
    res = certify_restriction_stable(CI504, F(1, 50), 3)
    assert not res.certified and res.verdict == "inconclusive"


def test_certify_zero_threshold_never_certifies():
    res = certify_restriction_stable(CUBIC, F(1, 2), 0)
    assert not res.certified


def test_certify_antitone_in_c2():
    verdicts = [certify_restriction_stable(CI504, F(1, 50), c2).certified
                for c2 in range(6)]
    assert verdicts == sorted(verdicts, reverse=True)
    assert verdicts == [True, True, True, False, False, False]


# -- stability constant from surfaces ------------------------------------------


def test_gamma_lower_from_one_surface():
    iv = combine(CI52, [Evidence("complete_intersection", (5, 2))])
    sc = gamma_lower(CI52, [(5, True)], iv)
    assert sc.gamma_lower == F(1, 5)
    assert any("degree 5" in t for t in sc.trace)


def test_gamma_lower_picks_the_best_stable_surface():
    iv = combine(CI52, [Evidence("complete_intersection", (5, 2))])
    sc = gamma_lower(CI52, [(3, False), (7, True), (9, True)], iv)
    assert sc.gamma_lower == F(1, 7)
    assert any("skipped" in t for t in sc.trace)


def test_gamma_lower_needs_a_stable_surface():
    iv = combine(CI52, [Evidence("complete_intersection", (5, 2))])
    with pytest.raises(NoEvidence):
        gamma_lower(CI52, [(3, False)], iv)
    with pytest.raises(ValueError):
        gamma_lower(CI52, [(0, True)], iv)


@pytest.mark.parametrize("flag", ["no", "", 1, 0, 0.0, [0], None], ids=repr)
def test_gamma_lower_takes_only_a_bool_stable_flag(flag):
    # read by truthiness, "no", 1 and [0] would certify gamma >= 1/5 and
    # 0.0 would skip the surface; only True or False is a flag
    iv = combine(CI52, [Evidence("complete_intersection", (5, 2))])
    with pytest.raises(TypeError, match="stable flag must be a bool"):
        gamma_lower(CI52, [(4, flag)], iv)
    with pytest.raises(TypeError):
        gamma_lower(CI52, [(5, True), (4, flag)], iv)


# -- surface/CI-curve restriction criteria -------------------------------------


def test_barth_criterion():
    assert barth_check(5, 2)
    assert not barth_check(4, 2)
    with pytest.raises(NullCorrelationExcluded):
        barth_check(10, 1)


def test_c2_plus_2_criterion():
    assert c2plus2_check(4, 2)
    assert not c2plus2_check(3, 2)


def test_ci_curve_criterion():
    assert ci_curve_check(10, 4, 2)
    assert not ci_curve_check(8, 4, 2)      # needs a >= 26/3
    assert not ci_curve_check(10, 4, 9)     # needs b >= c2 + 2


def test_surface_restriction_dispatch():
    assert surface_restriction_checks("barth", 2, a=5)
    assert surface_restriction_checks("c2plus2", 2, b=4)
    assert surface_restriction_checks("ci_curve", 2, a=10, b=4)
    with pytest.raises(ValueError):
        surface_restriction_checks("barth", 2)
    with pytest.raises(ValueError):
        surface_restriction_checks("ci_curve", 2, a=10)
    with pytest.raises(ValueError):
        surface_restriction_checks("hodge", 2, a=10)


# -- sharpness gap for curves linked to a line ---------------------------------


def liaison_gap(a, b):
    """The pencil gap of the gonality report on the curve linked to a
    line by type (a, b) surfaces, at its liaison eta, or None."""
    c = CurveGeometry(d=a * b - 1, g=(a + b - 4) * (a * b - 2) // 2)
    report = _with_liaison_gap(gonality_bound(c, F(1, a + b - 2)), a, b)
    gaps = [d for d in report.discrepancies if d.code == "linked-line-pencil-gap"]
    assert len(gaps) <= 1
    return gaps[0] if gaps else None


def test_linked_line_gap_is_reported():
    disc = liaison_gap(5, 2)
    assert disc is not None
    assert disc.code == "linked-line-pencil-gap"
    assert disc.data["pencil_degree"] == 4
    assert disc.data["bound_value"] == F(13, 4)
    assert disc.data["bound_ceiling"] == 4

    disc = liaison_gap(7, 3)
    assert disc.data["pencil_degree"] == 12
    assert disc.data["bound_value"] == 8


def test_linked_line_gap_absent_in_the_degenerate_case():
    # type (2,1) links the line to itself: bound 0, pencil degree 0
    assert liaison_gap(2, 1) is None


def test_linked_line_gap_only_on_the_liaison_curve():
    # a genus override or another eta is a report on a different curve
    for g, eta in [(3, F(1, 5)), (12, F(1, 6))]:
        report = gonality_bound(CurveGeometry(d=9, g=g), eta)
        assert _with_liaison_gap(report, 5, 2) is report


# -- differential tests against the generic-arithmetic oracle -----------------
#
# The library evaluates each bound in one pass over integer numerators;
# tests/bounds_oracle.py evaluates the same formulas in Fraction and
# QuadNumber arithmetic.  Whole reports must agree: every value field,
# and the trace the library renders from its steps.

# d = k^2 makes sqrt(d) rational, d = 3k^2 makes sqrt(3d) rational
DEGREES = st.one_of(st.integers(min_value=1, max_value=150),
                    st.integers(min_value=1, max_value=12).map(lambda k: k * k),
                    st.integers(min_value=1, max_value=7).map(lambda k: 3 * k * k))
GENERA = st.integers(min_value=0, max_value=400)
# from far below 1/d (alpha = 1) to far above 1/sqrt(d) (alpha clamped)
ETAS = st.fractions(min_value=F(1, 300), max_value=F(3, 2), max_denominator=300)
# the degree-default interval [1/k, 1/sqrt(k)] of some degree k: eta
# falls on both sides of it and inside it
INTERVALS = st.one_of(st.none(), st.integers(min_value=1, max_value=150).map(
    lambda k: SeshadriInterval(lower=F(1, k), upper=QuadNumber(0, F(1, k), k),
                               lower_trace=(), upper_trace=())))



@st.composite
def headline_args(draw):
    """(curve, eta, interval or None).  Half the etas put eta*d between
    sqrt(d) - 1 and sqrt(3d)/2 + 2, where the raw alpha of either bound
    lies in [0, 1]."""
    c = draw(st.builds(CurveGeometry, d=DEGREES, g=GENERA))
    near = st.fractions(min_value=max(math.isqrt(c.d) - 1, F(1, 12)),
                        max_value=math.isqrt(3 * c.d) // 2 + 2, max_denominator=12)
    return c, draw(st.one_of(ETAS, near.map(lambda x: x / c.d))), draw(INTERVALS)


HEADLINE_ARGS = headline_args()


view = oracle.report_view


def test_oracle_view_covers_every_report_field():
    # the oracle compares each field but the steps, and the trace they
    # render; a new BoundReport field must join the comparison
    assert (set(BoundReport.__record_fields__) - {"steps"}) | {"trace"} \
        == set(oracle.FIELDS)


@given(HEADLINE_ARGS)
def test_gonality_bound_matches_the_oracle(args):
    assert view(gonality_bound(*args)) == oracle.gonality_bound(*args)


@given(HEADLINE_ARGS)
def test_restriction_threshold_matches_the_oracle(args):
    c, gamma, interval = args
    expected = oracle.restriction_threshold(c, gamma, interval)
    assert view(restriction_threshold(c, gamma, interval)) == expected
    assert certify_restriction_stable(c, gamma, 0, interval).threshold == expected["value"]


@given(HEADLINE_ARGS)
def test_certification_threshold_is_the_reports_value(args):
    # the integer core alone gives the value the whole report gives
    c, gamma, interval = args
    assert (certify_restriction_stable(c, gamma, 0, interval).threshold
            == restriction_threshold(c, gamma, interval).value)


def test_certification_builds_no_report(monkeypatch):
    # a verdict needs the threshold value only: no steps, no report
    def no_report(*args):
        raise AssertionError("a report was built")

    monkeypatch.setattr(bounds, "BoundReport", no_report)
    with pytest.raises(AssertionError, match="a report was built"):
        restriction_threshold(CI504, F(1, 50))
    res = certify_restriction_stable(CI504, F(1, 50), 2, combine(
        CI504, [Evidence("complete_intersection", (50, 4))]))
    assert (res.verdict, res.threshold) == ("certified", 3)


def _kernel_cases(rep):
    """The branches of the two-term kernel that one report went through."""
    clamped = any("clamped to 0" in line for line in rep.trace)
    delta_wins = rep.term_delta <= rep.term_alpha
    return {
        "alpha clamped to 0": clamped,
        "alpha = 1": not clamped and rep.alpha == 1,
        "irrational alpha": not rep.alpha.is_rational,
        "rational alpha strictly between 0 and 1":
            rep.alpha.is_rational and 0 < rep.alpha < 1,
        "delta term is the minimum": delta_wins,
        "alpha term is the minimum": not delta_wins,
        "eta outside the interval": any(line.startswith("warning:")
                                        for line in rep.trace),
    }


# a fixed draw without shrinking: the first example that hits the case.
# Hypothesis mixes the literals of the loaded src/ modules into its draws,
# so a new literal there changes the draw; 1,000 draws keep the rarest
# case (a consistent residual pair, ~1 draw in 125) from being missed by
# luck, where 100 missed it on 45 of 100 random draw sequences
REACH = settings(database=None, derandomize=True, phases=[Phase.generate],
                 max_examples=1_000)


@pytest.mark.parametrize("case", sorted(_kernel_cases(
    gonality_bound(CI52, F(1, 5)))))
@pytest.mark.parametrize("bound", [gonality_bound, restriction_threshold])
def test_differential_strategies_reach_every_kernel_case(bound, case):
    find(HEADLINE_ARGS, lambda args: _kernel_cases(bound(*args))[case],
         settings=REACH)


# -- text is rendered only when it is read -----------------------------------


@pytest.mark.parametrize("descriptor", [
    '{"kind": {"complete_intersection": {"a": 7, "b": 3}}}',
    '{"kind": {"linked_line": {"a": 6, "b": 4}}}',
    '{"kind": {"raw": {"d": 37, "g": 50}}, "flags": {"nondegenerate": true}}',
])
def test_table_calls_render_no_text(monkeypatch, descriptor):
    # a table op's calls build their reports from exact values only:
    # with no way to print a Fraction or a QuadNumber they still run,
    # and only reading trace or reason needs the text
    def no_text(self):
        raise AssertionError("rendered before it was read")

    monkeypatch.setattr(QuadNumber, "__str__", no_text)
    monkeypatch.setattr(Fraction, "__str__", no_text)
    desc = load_descriptor(descriptor)
    interval = combine(desc.curve, list(desc.evidence))
    eta = interval.lower
    gon = gonality_bound(desc.curve, eta, interval)
    thr = restriction_threshold(desc.curve, eta, interval)
    t = thr.value_ceiling
    certs = [certify_restriction_stable(desc.curve, eta, c2, interval)
             for c2 in (t - 1, t, t + 3)]
    # eta outside the interval (every upper end is at most 1) adds the
    # warning step, unrendered too
    outside = gonality_bound(desc.curve, F(2), interval)
    for rep in (gon, thr, outside):
        with pytest.raises(AssertionError, match="rendered before"):
            rep.trace
    for res in certs:
        with pytest.raises(AssertionError, match="rendered before"):
            res.reason
    monkeypatch.undo()
    assert outside.trace[2].startswith("warning: eta = ")
    assert [r.verdict for r in certs] == ["certified", "inconclusive", "inconclusive"]


# -- the verdicts against the model -------------------------------------------
#
# The interval warning and the certification verdict are decided by
# scalar's one test of a rational against a value, on the parts of exact
# values; the Fraction-pair model, which shares no code with scalar,
# decides the same comparisons.


@st.composite
def interval_args(draw):
    """(curve, eta, certified interval): eta on the interval's lower
    end, on a rational upper end, next to either end, or anywhere."""
    c, evidence = draw(seshadri_oracle.CURVE_EVIDENCE)
    try:
        interval = combine(c, evidence)
    except InconsistentEvidence:
        assume(False)
    lower, upper = interval.lower, interval.upper
    # the upper end itself when rational, else a close rational
    top = (upper.as_rational() if upper.is_rational
           else Fraction(str(upper.to_decimal(12))))
    ends = [lower, top, lower * F(999, 1000), lower * F(1001, 1000),
            top * F(999, 1000), top * F(1001, 1000)]
    eta = draw(st.one_of(st.sampled_from(ends), ETAS))
    return c, eta, interval


INTERVAL_ARGS = interval_args()


@given(INTERVAL_ARGS)
def test_interval_warning_iff_eta_outside_by_the_model(args):
    c, eta, interval = args
    outside = (model.cmp(eta, interval.lower) < 0
               or model.cmp(eta, model.of(interval.upper)) > 0)
    for bound in (gonality_bound, restriction_threshold):
        warnings = [t for t in bound(c, eta, interval).trace if t.startswith("warning:")]
        assert len(warnings) == outside


@st.composite
def certification_args(draw):
    """(curve, gamma, c2) with c2 within 2 of the threshold's floor, so
    an integral threshold is itself drawn as c2.  At gamma = (d - 4j)/deg_N
    the delta term is -j, below any alpha term when j >= 1: the threshold
    is then a negative integer."""
    c = draw(st.builds(CurveGeometry, d=DEGREES, g=GENERA))
    integral = [F(c.d - 4 * j, c.deg_n) for j in (1, 2, 3) if c.d > 4 * j]
    gamma = draw(st.one_of(ETAS, st.integers(min_value=1, max_value=40).map(
        lambda k: F(1, k)), *([st.sampled_from(integral)] if integral else [])))
    base = math.floor(restriction_threshold(c, gamma).value)
    return c, gamma, draw(st.integers(min_value=base - 2, max_value=base + 2))


CERTIFICATION_ARGS = certification_args()


@given(CERTIFICATION_ARGS)
def test_certification_verdict_is_the_models(args):
    c, gamma, c2 = args
    res = certify_restriction_stable(c, gamma, c2)
    below = model.cmp(c2, model.of(res.threshold)) < 0
    assert res.verdict == ("certified" if below else "inconclusive")
    assert res.certified is below


@pytest.mark.parametrize("case", [
    "eta is the lower end", "eta is a rational upper end",
    "eta just above a rational upper end", "eta just below the lower end"])
def test_sign_test_strategies_reach_the_interval_ends(case):
    def hit(args):
        _, eta, iv = args
        return {"eta is the lower end": eta == iv.lower,
                "eta is a rational upper end": iv.upper.is_rational and eta == iv.upper,
                "eta just above a rational upper end":
                    iv.upper.is_rational and eta == iv.upper.as_rational() * F(1001, 1000),
                "eta just below the lower end": eta == iv.lower * F(999, 1000)}[case]
    find(INTERVAL_ARGS, hit, settings=REACH)


@pytest.mark.parametrize("nonzero", [False, True])
def test_sign_test_strategies_reach_an_integral_threshold(nonzero):
    def hit(args):
        c, gamma, c2 = args
        value = restriction_threshold(c, gamma).value
        return value == c2 and (c2 != 0 or not nonzero)
    find(CERTIFICATION_ARGS, hit, settings=REACH)


def test_radicand_cap_is_unchanged():
    # the library splits the same radicands as the oracle: d for the
    # gonality bound, 3d for the restriction threshold
    d = MAX_RADICAND // 3
    assert view(restriction_threshold(CurveGeometry(d, 0), 1)) == \
        oracle.restriction_threshold(CurveGeometry(d, 0), 1)
    assert view(gonality_bound(CurveGeometry(MAX_RADICAND, 0), 1)) == \
        oracle.gonality_bound(CurveGeometry(MAX_RADICAND, 0), 1)
    for call in (lambda: restriction_threshold(CurveGeometry(d + 1, 0), 1),
                 lambda: gonality_bound(CurveGeometry(MAX_RADICAND + 1, 0), 1)):
        with pytest.raises(RadicandTooLarge):
            call()
