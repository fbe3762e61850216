"""Brute-force enumeration of destabilizing classes over a derived box."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import exact
import quad_model as model
import replay_oracle as oracle
from curvebounds import blowup, replay
from curvebounds.blowup import MAX_POINTS, CurveGeometry, lambda_eta
from curvebounds.catalog import standard_catalog
from curvebounds.errors import LambdaNegative, NonpositiveEta, UnboundedBox, WorkTooLarge
from curvebounds.replay import (
    NECESSARY_ONLY_NOTE,
    Box,
    ConstraintSystem,
    GonalityMode,
    RestrictionMode,
    build_system,
    region_empty,
    sweep,
)
from curvebounds.seshadri import combine

F = Fraction

CUBIC = CurveGeometry(d=3, g=0)
CI32 = CurveGeometry(d=6, g=4)
CI52 = CurveGeometry(d=10, g=16)
CI63 = CurveGeometry(d=18, g=46)
CI85 = CurveGeometry(d=40, g=181)
CI504 = CurveGeometry(d=200, g=5001)
LL52 = CurveGeometry(d=9, g=12)
LL73 = CurveGeometry(d=20, g=57)


# -- box derivation ------------------------------------------------------------


def test_gonality_box_quintic_quadric():
    sys = build_system(CI52, F(1, 5), GonalityMode(k=4))
    assert (sys.box.x_min, sys.box.x_max) == (0, 1)
    assert (sys.box.y_min, sys.box.y_max) == (0, 0)
    assert any("y > 0 infeasible" in n for n in sys.box.notes)
    assert "x >= |y|*sqrt(d)" in sys.constraints
    assert "s = x + y*eta*d >= 0" in sys.constraints
    assert any("[k = 4]" in c for c in sys.constraints)


def test_gonality_box_cubic():
    sys = build_system(CUBIC, F(1, 2), GonalityMode(k=0))
    assert (sys.box.x_min, sys.box.x_max) == (0, 5)
    assert (sys.box.y_min, sys.box.y_max) == (-3, 0)


def test_gonality_box_type_3_2():
    sys = build_system(CI32, F(1, 3), GonalityMode(k=2))
    assert (sys.box.x_min, sys.box.x_max) == (0, 5)
    assert (sys.box.y_min, sys.box.y_max) == (-2, 0)


def test_restriction_box_can_be_empty():
    # eta*d/2 < 1 leaves no integer x >= 1 at all
    sys = build_system(LL52, F(1, 5), RestrictionMode(c2=0))
    assert sys.box.x_max < sys.box.x_min or sys.box.y_max < sys.box.y_min
    out = region_empty(sys)
    assert out.empty and out.checked == 0


def test_restriction_box_grows_with_c2():
    sys = build_system(CI85, F(1, 8), RestrictionMode(c2=4))
    assert (sys.box.x_min, sys.box.x_max) == (1, 12)
    assert (sys.box.y_min, sys.box.y_max) == (-2, 0)


def test_build_system_validation():
    with pytest.raises(NonpositiveEta):
        build_system(CI52, 0, GonalityMode(k=1))
    with pytest.raises(LambdaNegative):
        build_system(CI52, F(1, 4), GonalityMode(k=1))
    with pytest.raises(UnboundedBox):
        build_system(CurveGeometry(d=2, g=0), 1, GonalityMode(k=1))
    with pytest.raises(ValueError):
        build_system(CI52, F(1, 5), GonalityMode(k=-1))
    with pytest.raises(ValueError):
        build_system(CI52, F(1, 5), RestrictionMode(c2=-1))
    with pytest.raises(ValueError):
        build_system(CI52, F(1, 5), RestrictionMode(c2=0, l_min=-1))


def corners(box):
    """(x_min, x_max, y_min, y_max), as ``exact.replay_box`` returns a box."""
    return box.x_min, box.x_max, box.y_min, box.y_max


@st.composite
def eta_below_critical(draw):
    """(d, eta) with eta^2*d < 1, most draws within a few steps of 1."""
    d = draw(st.one_of(st.integers(min_value=4, max_value=2000),
                       st.integers(min_value=2, max_value=44).map(lambda k: k * k)))
    r = draw(st.integers(min_value=math.isqrt(d) + 1, max_value=48))
    # largest p with p^2*d < r^2, then a step or two down
    p = math.isqrt((r * r - 1) // d) - draw(st.integers(min_value=0, max_value=2))
    assume(p >= 1)
    return d, F(p, r)


@given(eta_below_critical(), st.integers(min_value=0, max_value=10**4),
       st.integers(min_value=1, max_value=40))
def test_box_matches_the_exact_replay_box(d_eta, c2, k):
    d, eta = d_eta
    curve = CurveGeometry(d=d, g=0)  # lambda_eta > 0 for g = 0, d >= 4
    ed = eta * d

    gon = build_system(curve, eta, GonalityMode(k=0)).box
    assert corners(gon) == exact.replay_box(d, eta, "gonality")

    # the least c2 whose box reaches |y| = k, from replay_box's closed
    # form at t = k: take the integers on both sides of it as well as
    # the drawn one
    edge = math.ceil(k * k * d * (1 - eta * ed) - k * eta * ed * d - ed * ed / 4)
    for c2 in {c2, max(0, edge - 1), max(0, edge)}:
        res = build_system(curve, eta, RestrictionMode(c2=c2)).box
        assert corners(res) == exact.replay_box(d, eta, "restriction", c2)


@st.composite
def gonality_etas(draw):
    """(d, eta) with eta^2*d < 1 and d <= 400, square d included, most
    draws with eta^2*d just below 1."""
    d = draw(st.one_of(st.integers(min_value=1, max_value=400),
                       st.integers(min_value=1, max_value=20).map(lambda k: k * k)))
    r = draw(st.integers(min_value=math.isqrt(d) + 1, max_value=400))
    top = math.isqrt((r * r - 1) // d)  # largest p with p^2*d < r^2
    p = draw(st.one_of(st.integers(min_value=top - 2, max_value=top),
                       st.integers(min_value=1, max_value=max(top, 1))))
    assume(p >= 1)
    return d, F(p, r)


def _saturation_meets_cap(t, d, eta):
    """t*sqrt(d) <= eta*d*(t + 1/2): a class with y = -t can meet both the
    saturation and the cap.  Decided in Q(sqrt(d)) by the Fraction-pair
    model, not by the integer quadratic that build_system solves."""
    return model.cmp(model.mul(t, model.sqrt(d)), eta * d * (t + F(1, 2))) <= 0


@given(gonality_etas())
# equality at t = 2: 2*sqrt(4) = (2/5)*4*(2 + 1/2)
@example((4, F(2, 5)))
@example((400, F(19, 400)))
def test_gonality_t_max_is_the_last_t_the_saturation_allows(d_eta):
    d, eta = d_eta
    try:
        box = build_system(CurveGeometry(d=d, g=0), eta, GonalityMode(k=0)).box
    except LambdaNegative:
        assume(False)
    t_max = -box.y_min
    assert t_max >= 0
    assert _saturation_meets_cap(t_max, d, eta)
    assert not _saturation_meets_cap(t_max + 1, d, eta)


@st.composite
def gonality_systems(draw):
    """(curve, eta) that build_system takes in gonality mode: a (d, eta)
    of gonality_etas and a genus up to the largest with lambda_eta >= 0."""
    d, eta = draw(gonality_etas())
    # lambda_eta >= 0 iff 2*eta*g <= eta^2*d^2 + d - 4*eta*d + 2*eta
    g_max = math.floor((eta * eta * d * d + d - 4 * eta * d + 2 * eta) / (2 * eta))
    assume(g_max >= 0)
    return CurveGeometry(d=d, g=draw(st.integers(min_value=0, max_value=g_max))), eta


@given(gonality_systems())
@example((CurveGeometry(d=4, g=0), F(2, 5)))
def test_gonality_box_matches_the_saturation_quadratic(case):
    # build_system solves the restriction row's quadratic at c2 = 0,
    # d times the saturation's own: the roots, and so the boxes, agree
    curve, eta = case
    box = build_system(curve, eta, GonalityMode(k=0)).box
    assert corners(box) == exact.replay_box(curve.d, eta, "gonality")


def test_catalog_gonality_boxes_match_the_saturation_quadratic():
    built = 0
    for desc in standard_catalog():
        lower = combine(desc.curve, list(desc.evidence)).lower
        for eta in {lower, *(F(1, n) for n in range(1, 60))}:
            try:
                box = build_system(desc.curve, eta, GonalityMode(k=0)).box
            except (LambdaNegative, UnboundedBox):
                continue
            built += 1
            assert corners(box) == exact.replay_box(desc.curve.d, eta, "gonality")
    assert built == 509


# -- emptiness below the bound ---------------------------------------------------


@pytest.mark.parametrize("c,eta,below", [
    (CUBIC, F(1, 2), 1),
    (CI32, F(1, 3), 3),
    (CI52, F(1, 5), 5),
    (CI63, F(1, 6), 12),
    (LL73, F(1, 8), 8),
])
def test_gonality_region_empty_below_the_bound(c, eta, below):
    for k in range(below):
        out = region_empty(build_system(c, eta, GonalityMode(k=k)))
        assert out.empty, f"unexpected witness at k = {k}"
        assert out.witness is None
        assert out.note == NECESSARY_ONLY_NOTE


def test_restriction_region_empty_below_the_threshold():
    for c2 in range(3):
        out = region_empty(build_system(CI504, F(1, 50), RestrictionMode(c2=c2)))
        assert out.empty
    out = region_empty(build_system(CI504, F(1, 50), RestrictionMode(c2=2)))
    assert out.checked == 2      # the box is tiny: (1,0) and (2,0)


# -- frontiers and witnesses ------------------------------------------------------


def test_gonality_frontier_quintic_quadric():
    res = sweep(CI52, F(1, 5), "gonality", range(0, 8))
    assert res.frontier == 5
    outcomes = dict(res.entries)
    assert outcomes[4].empty
    assert outcomes[5].witness == (1, 0)
    assert res.note == NECESSARY_ONLY_NOTE


def test_gonality_frontier_cubic():
    res = sweep(CUBIC, F(1, 2), "gonality", range(0, 3))
    assert res.frontier == 1
    assert dict(res.entries)[1].witness == (2, -1)


@pytest.mark.parametrize("c,eta,frontier", [
    (CI32, F(1, 3), 3),
    (CI85, F(1, 8), 32),
    (LL73, F(1, 8), 12),
])
def test_gonality_frontiers(c, eta, frontier):
    res = sweep(c, eta, "gonality", range(frontier - 2, frontier + 1))
    assert res.frontier == frontier


def test_gonality_frontier_can_exceed_the_bound_ceiling():
    # bound ceiling for this curve is 8; the necessary conditions only
    # become satisfiable at 12, the residual-pencil degree
    res = sweep(LL73, F(1, 8), "gonality", range(8, 13))
    assert res.frontier == 12


def test_restriction_frontier():
    res = sweep(CI504, F(1, 50), "restriction", range(0, 5))
    assert res.frontier == 3
    assert dict(res.entries)[3].witness == (1, 0)


def test_frontier_none_when_range_stays_empty():
    res = sweep(CI52, F(1, 5), "gonality", range(0, 5))
    assert res.frontier is None
    assert all(o.empty for _, o in res.entries)


def test_sweep_rejects_unknown_family():
    with pytest.raises(ValueError):
        sweep(CI52, F(1, 5), "slope", range(3))


def test_region_stays_nonempty_above_the_frontier():
    # the pencil constraint only loosens as k grows
    for k in range(5, 12):
        out = region_empty(build_system(CI52, F(1, 5), GonalityMode(k=k)))
        assert not out.empty


def test_witness_tie_break_prefers_small_y_then_x():
    # c2 = 4 admits both (1, 0) and (3, -1); |y| wins
    out = region_empty(build_system(CI52, F(1, 5), RestrictionMode(c2=4)))
    assert out.witness == (1, 0)
    assert out.checked == 6


def test_l_min_tightens_the_restriction_constraint():
    loose = region_empty(build_system(CI85, F(1, 8), RestrictionMode(c2=4)))
    assert loose.witness == (1, 0)
    tight = region_empty(build_system(CI85, F(1, 8),
                                      RestrictionMode(c2=4, l_min=1)))
    assert tight.empty


def test_sweep_forwards_l_min():
    res = sweep(CI85, F(1, 8), "restriction", range(4, 5), l_min=1)
    assert res.frontier is None


@pytest.mark.parametrize("family", ["gonality", "restriction"])
@pytest.mark.parametrize("params", [range(3, 6), range(0)])
def test_sweep_checks_eta_and_l_min_before_the_first_parameter(family, params):
    # gonality mode never reads l_min, and an empty range builds no
    # system, yet both still reject a bad eta or l_min
    with pytest.raises(ValueError, match="l_min must be nonnegative"):
        sweep(CI52, F(1, 5), family, params, l_min=-3)
    with pytest.raises(NonpositiveEta):
        sweep(CI52, F(0), family, params)
    # no system is buildable on the (5, 2) complete intersection at
    # eta = 1/3 (lambda_eta = -20/9) or at eta = 1/2 (eta^2*d = 5/2): the
    # sweep raises build_system's own error, whatever its range
    for eta, error in ((F(1, 3), LambdaNegative), (F(1, 2), UnboundedBox)):
        with pytest.raises(error) as built:
            build_system(CI52, eta, GonalityMode(k=0))
        with pytest.raises(error, match=re.escape(str(built.value))):
            sweep(CI52, eta, family, params)


# -- margin invariance -------------------------------------------------------------
#
# The box is derived to contain every integer solution, so enlarging it
# must never change an emptiness verdict.


@pytest.mark.parametrize("c,eta,mode", [
    (CI52, F(1, 5), GonalityMode(k=4)),
    (CUBIC, F(1, 2), GonalityMode(k=0)),
    (CI504, F(1, 50), RestrictionMode(c2=2)),
    (LL52, F(1, 5), RestrictionMode(c2=0)),
    (CI85, F(1, 8), RestrictionMode(c2=4, l_min=1)),
])
def test_margin_does_not_change_emptiness(c, eta, mode):
    sys = build_system(c, eta, mode)
    assert region_empty(sys, margin=0).empty
    assert region_empty(sys, margin=5).empty


def test_margin_does_not_change_a_witness_verdict():
    sys = build_system(CI52, F(1, 5), GonalityMode(k=5))
    assert region_empty(sys, margin=0).witness == (1, 0)
    assert region_empty(sys, margin=3).witness == (1, 0)


@pytest.mark.parametrize("margin", [-1, -2, -100])
def test_negative_margin_is_rejected(margin):
    # a negative margin shrinks the box below the sufficient one: at -2
    # the k = 5 box checks no point and would report "empty", although
    # margin 0 finds the witness (1, 0)
    sys = build_system(CI52, F(1, 5), GonalityMode(k=5))
    with pytest.raises(ValueError, match="box margin must be nonnegative"):
        region_empty(sys, margin=margin)
    for family in ("gonality", "restriction"):
        with pytest.raises(ValueError, match="box margin must be nonnegative"):
            sweep(CI52, F(1, 5), family, range(3, 6), margin=margin)
        # checked before the first parameter, so an empty range fails too
        with pytest.raises(ValueError, match="box margin must be nonnegative"):
            sweep(CI52, F(1, 5), family, range(0), margin=margin)


curve_st = st.builds(
    CurveGeometry,
    d=st.integers(min_value=1, max_value=24),
    g=st.integers(min_value=0, max_value=30),
)
eta_st = st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16)


def _ring(box, margin):
    """Four boxes covering the points of ``box.points(margin)`` that lie
    outside ``box``: the rows below and above it, across the enlarged
    width, and the columns left and right of it, across its height."""
    x_lo, x_hi = box.x_min - margin, box.x_max + margin
    return (Box(x_lo, x_hi, box.y_min - margin, box.y_min - 1, ()),
            Box(x_lo, x_hi, box.y_max + 1, box.y_max + margin, ()),
            Box(x_lo, box.x_min - 1, box.y_min, box.y_max, ()),
            Box(box.x_max + 1, x_hi, box.y_min, box.y_max, ()))


def _no_solution_outside(sys, margin=3):
    """No integer solution lies in the box enlarged by margin but outside
    the box.  This implies that region_empty(sys, 0) and
    region_empty(sys, margin) agree, and asks more: it holds whether or
    not the box itself holds a solution.  It enumerates only the ring,
    not the box's interior twice."""
    return all(region_empty(ConstraintSystem(sys.curve, sys.eta, sys.mode, ring,
                                             sys.constraints)).empty
               for ring in _ring(sys.box, margin))


@given(st.integers(min_value=-5, max_value=5), st.integers(min_value=-1, max_value=6),
       st.integers(min_value=-5, max_value=5), st.integers(min_value=-1, max_value=6),
       st.integers(min_value=0, max_value=3))
def test_ring_and_box_cover_the_enlarged_box(x_min, dx, y_min, dy, margin):
    # boxes with no points included, as build_system can return in
    # restriction mode (x_max = x_min - 1)
    box = Box(x_min, x_min + dx, y_min, y_min + dy, ())
    covered = set(box.points()).union(*(r.points() for r in _ring(box, margin)))
    assert covered == set(box.points(margin))


# The pinned draws took 0.3-3.9 s when these tests enumerated the whole
# box at both margins, past hypothesis's 200 ms deadline.
@given(curve_st, eta_st, st.integers(min_value=0, max_value=12))
@example(CurveGeometry(d=14, g=0), F(4, 15), 0)
@example(CurveGeometry(d=11, g=0), F(3, 10), 0)
@example(CurveGeometry(d=20, g=0), F(2, 9), 0)
def test_gonality_box_is_sufficient(c, eta, k):
    try:
        sys = build_system(c, eta, GonalityMode(k=k))
    except (LambdaNegative, UnboundedBox):
        assume(False)
    assert _no_solution_outside(sys)


@given(curve_st, eta_st, st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=4))
@example(CurveGeometry(d=14, g=0), F(4, 15), 0, 0)
@example(CurveGeometry(d=7, g=0), F(3, 8), 0, 0)
def test_restriction_box_is_sufficient(c, eta, c2, l_min):
    try:
        sys = build_system(c, eta, RestrictionMode(c2=c2, l_min=l_min))
    except (LambdaNegative, UnboundedBox):
        assume(False)
    assert _no_solution_outside(sys)


@given(curve_st, eta_st)
def test_lambda_gate_matches_lambda_sign(c, eta):
    mode = GonalityMode(k=1)
    if lambda_eta(c, eta) < 0:
        with pytest.raises(LambdaNegative):
            build_system(c, eta, mode)
    elif eta * eta * c.d >= 1:
        with pytest.raises(UnboundedBox):
            build_system(c, eta, mode)
    else:
        build_system(c, eta, mode)


# -- differential test against the per-mode point test -----------------------


@st.composite
def replay_cases(draw):
    """(curve, eta, mode, margin) with eta^2*d <= 3/4, so that |y| <= 3
    in gonality mode and the box stays small, and lambda_eta >= 0.  Most
    draws take eta within a few steps of that cap, and some take a square
    d, where the saturation x >= |y|*sqrt(d) can hold with equality."""
    d = draw(st.one_of(st.integers(min_value=1, max_value=60),
                       st.integers(min_value=1, max_value=7).map(lambda k: k * k)))
    q = draw(st.integers(min_value=2, max_value=40))
    p = math.isqrt(3 * q * q // (4 * d)) - draw(st.integers(min_value=0, max_value=2))
    assume(p >= 1)
    eta = F(p, q)
    # lambda_eta >= 0 iff 2*eta*g <= eta^2*d^2 + d - 4*eta*d + 2*eta
    g_max = math.floor((eta * eta * d * d + d - 4 * eta * d + 2 * eta) / (2 * eta))
    assume(g_max >= 0)
    curve = CurveGeometry(d=d, g=draw(st.integers(min_value=0, max_value=g_max)))
    mode = draw(st.one_of(
        st.builds(GonalityMode, k=st.integers(min_value=0, max_value=60)),
        st.builds(RestrictionMode, c2=st.integers(min_value=0, max_value=30),
                  l_min=st.integers(min_value=0, max_value=5))))
    return curve, eta, mode, draw(st.integers(min_value=0, max_value=3))


@given(replay_cases())
# the witness (2, -1) meets the saturation with equality (x = |y|*sqrt(4))
@example((CurveGeometry(d=4, g=0), F(2, 5), GonalityMode(k=2), 0))
# (2, -1) passes the c2 constraint only without the eta*l_min term
@example((CurveGeometry(d=4, g=0), F(2, 5), RestrictionMode(c2=1, l_min=2), 0))
def test_region_empty_matches_the_per_mode_oracle(case):
    curve, eta, mode, margin = case
    sys = build_system(curve, eta, mode)
    out = region_empty(sys, margin)
    assert (out.empty, out.witness, out.checked) == oracle.region_empty(sys, margin)


# -- bounded work --------------------------------------------------------------


def test_point_cap_is_far_above_every_tested_box():
    # perfbench sizes its sweep ops at ~3,000 box points; the largest box
    # hypothesis has drawn here (d = 14, g = 0, eta = 4/15, margin 3) has
    # 195,195.  The cap must decide neither.
    assert MAX_POINTS >= 100 * 3_000
    assert MAX_POINTS >= 10 * 195_195
    sys = build_system(CurveGeometry(d=14, g=0), F(4, 15), GonalityMode(k=0))
    assert replay._box_points(sys.box, 3) == 195_195


def test_work_cap_admits_the_margin_20_sweep():
    # the ci-5-2 sweep over k in [0, 2000) at margin 20 (3,444,000 points,
    # ~26 s) ran before the cap and still must, systems charged included
    params = range(0, 2000)
    points = sum(replay._box_points(build_system(CI52, F(1, 5), GonalityMode(k=k)).box, 20)
                 for k in params)
    assert points == 3_444_000
    assert points + len(params) * blowup._SYSTEM_POINTS <= MAX_POINTS


@given(st.integers(min_value=-5, max_value=5), st.integers(min_value=-3, max_value=8),
       st.integers(min_value=-5, max_value=0), st.integers(min_value=-4, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_box_points_is_the_enumerated_count(x_min, dx, y_min, dy, margin):
    # empty boxes included: with a margin they can hold points again
    box = Box(x_min, x_min + dx, y_min, y_min + dy, ())
    assert replay._box_points(box, margin) == len(list(box.points(margin)))


def _refuse_enumeration(monkeypatch):
    def no_points(self, margin=0):
        raise AssertionError("a point was visited")
    monkeypatch.setattr(Box, "points", no_points)


@pytest.mark.parametrize("margin", [0, 2])
def test_region_empty_refuses_a_box_above_the_cap(monkeypatch, margin):
    sys = build_system(CI52, F(1, 5), GonalityMode(k=4))
    size = replay._box_points(sys.box, margin)
    monkeypatch.setattr(blowup, "MAX_POINTS", size)
    assert region_empty(sys, margin).checked == size  # at the cap: runs
    monkeypatch.setattr(blowup, "MAX_POINTS", size - 1)
    _refuse_enumeration(monkeypatch)
    with pytest.raises(WorkTooLarge, match=f"the replay box has {size} points"):
        region_empty(sys, margin)


def test_region_empty_refuses_the_hostile_box_at_once():
    # a box of 249,500,500 points, refused before its rows are built
    sys = build_system(CurveGeometry(d=10**6, g=0), F(999, 10**6), GonalityMode(k=1))
    with pytest.raises(WorkTooLarge, match="249500500 points"):
        region_empty(sys)
    with pytest.raises(WorkTooLarge):
        region_empty(build_system(CI52, F(1, 5), GonalityMode(k=4)), margin=10**5)


@pytest.mark.parametrize("family", ["gonality", "restriction"])
def test_sweep_sums_its_points_before_the_first_one(monkeypatch, family):
    params = range(0, 6)
    systems = [build_system(CI52, F(1, 5), GonalityMode(k=p) if family == "gonality"
                            else RestrictionMode(c2=p)) for p in params]
    total = (sum(replay._box_points(sys.box, 1) for sys in systems)
             + len(params) * blowup._SYSTEM_POINTS)
    built = []
    monkeypatch.setattr(replay, "build_system",
                        lambda *args: built.append(args) or build_system(*args))
    monkeypatch.setattr(blowup, "MAX_POINTS", total)
    result = sweep(CI52, F(1, 5), family, params, margin=1)
    # each system is built once, and the entries are what region_empty gives
    assert len(built) == len(params)
    assert [o for _, o in result.entries] == [region_empty(sys, 1) for sys in systems]
    monkeypatch.setattr(blowup, "MAX_POINTS", total - 1)
    _refuse_enumeration(monkeypatch)
    with pytest.raises(WorkTooLarge, match=f"the sweep up to parameter 5: work of {total} "):
        sweep(CI52, F(1, 5), family, params, margin=1)


def test_sweep_charges_its_parameters_before_building_a_system(monkeypatch):
    # 10**20 parameters of two points each, more than len() can count:
    # refused for the systems they would build, before the first is built
    n = MAX_POINTS // blowup._SYSTEM_POINTS + 1
    monkeypatch.setattr(replay, "build_system", None)
    with pytest.raises(WorkTooLarge, match=f"the sweep has {n} parameters or more: work "
                                           f"of {n * blowup._SYSTEM_POINTS} "):
        sweep(CI52, F(1, 5), "gonality", range(0, 10**20))
