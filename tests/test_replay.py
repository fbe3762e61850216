"""Brute-force enumeration of destabilizing classes over a derived box."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from curvebounds.blowup import CurveGeometry, lambda_eta
from curvebounds.errors import LambdaNegative, NonpositiveEta, UnboundedBox
from curvebounds.replay import (
    NECESSARY_ONLY_NOTE,
    GonalityMode,
    RestrictionMode,
    build_system,
    region_empty,
    sweep,
)

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
    assert not sys.box.is_empty
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
    assert sys.box.is_empty
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


def _scan_t_max(holds):
    """Largest t >= 0 with holds(0), ..., holds(t): the linear scan that
    the closed forms of the box derivation replace, kept as their oracle."""
    t = 0
    while holds(t + 1):
        t += 1
    return t


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
def test_box_extent_matches_scan_oracle(d_eta, c2, k):
    d, eta = d_eta
    curve = CurveGeometry(d=d, g=0)  # lambda_eta > 0 for g = 0, d >= 4
    ed = eta * d

    gon = build_system(curve, eta, GonalityMode(k=0)).box
    t_max = _scan_t_max(lambda t: t * t * d <= (ed / 2 + t * ed) ** 2)
    assert (gon.y_min, gon.x_max) == (-t_max, math.floor(ed / 2 + t_max * ed))

    def q(t, c2):
        return t * t * d * (1 - eta * ed) - t * eta * ed * d - (c2 + ed * ed / 4)

    # c2 = q(k, 0) is where |y| = k becomes reachable: take the integers
    # on both sides of it as well as the drawn one
    edge = math.ceil(q(k, 0))
    for c2 in {c2, max(0, edge - 1), max(0, edge)}:
        res = build_system(curve, eta, RestrictionMode(c2=c2)).box
        t_max = _scan_t_max(lambda t: q(t, c2) <= 0)
        assert (res.y_min, res.x_max) == (-t_max, math.floor(ed / 2 + t_max * ed))


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


@given(curve_st, eta_st, st.integers(min_value=0, max_value=12))
def test_gonality_box_is_sufficient(c, eta, k):
    try:
        sys = build_system(c, eta, GonalityMode(k=k))
    except (LambdaNegative, UnboundedBox):
        assume(False)
    assert region_empty(sys, margin=0).empty == region_empty(sys, margin=3).empty


@given(curve_st, eta_st, st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=4))
def test_restriction_box_is_sufficient(c, eta, c2, l_min):
    try:
        sys = build_system(c, eta, RestrictionMode(c2=c2, l_min=l_min))
    except (LambdaNegative, UnboundedBox):
        assume(False)
    assert region_empty(sys, margin=0).empty == region_empty(sys, margin=3).empty


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
