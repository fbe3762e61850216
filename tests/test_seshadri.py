"""Evidence types and the certified Seshadri interval combiner."""

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

import quad_model as model
import seshadri_oracle
from curvebounds import _record
from curvebounds.blowup import CurveGeometry
from curvebounds.catalog import evidence_from_json, evidence_to_json
from curvebounds.errors import (
    DegenerateInput,
    EvidenceInconsistentWithDegree,
    InconsistentEvidence,
)
from curvebounds.scalar import QuadNumber
from curvebounds.seshadri import (
    EVIDENCE_KINDS,
    Evidence,
    bound_from_evidence,
    castelnuovo_default,
    combine,
    make_evidence,
)

F = Fraction
# a fixed draw without shrinking: the first example that hits the case
REACH = settings(database=None, derandomize=True, phases=[Phase.generate])

LINE = CurveGeometry(d=1, g=0)
CUBIC = CurveGeometry(d=3, g=0)
CI52 = CurveGeometry(d=10, g=16)      # deg_N = 70
OCTIC = CurveGeometry(d=8, g=5)       # deg_N = 40


# -- evidence construction ---------------------------------------------------


def test_make_evidence_validates_positivity():
    with pytest.raises(ValueError):
        make_evidence("global_generation", (0, 1))
    with pytest.raises(ValueError):
        make_evidence("regularity", (0,))
    with pytest.raises(ValueError):
        make_evidence("secant_line", (-1,))
    with pytest.raises(ValueError):
        make_evidence("normal_bundle_s", (F(0),))
    with pytest.raises(ValueError):
        make_evidence("assert_exact", (F(-1, 2),))


def test_make_evidence_validates_shape():
    with pytest.raises(ValueError):
        make_evidence("complete_intersection", (2, 3))  # needs a >= b
    with pytest.raises(ValueError):
        make_evidence("linked_line", (1, 1))  # residual to a line needs ab >= 2
    with pytest.raises(ValueError):
        make_evidence("residual_reduced", (1, 1))


# -- the evidence table, row by row --------------------------------------------


def _sample_params(row):
    # descending values satisfy every shape rule (a >= b, a + b >= 3);
    # rational fields get a non-integer value
    return tuple(F(2 * k + 1, 2) if name in row.rational else k
                 for k, name in zip(range(len(row.fields) + 1, 1, -1), row.fields))


@pytest.mark.parametrize("kind", sorted(EVIDENCE_KINDS))
def test_every_kind_round_trips_through_json(kind):
    row = EVIDENCE_KINDS[kind]
    for note in ("", "a note"):
        ev = make_evidence(kind, _sample_params(row), note=note)
        assert ev.kind == kind and len(ev.params) == len(row.fields)
        doc = evidence_to_json(ev)
        assert set(doc) == {"kind", *row.fields} | ({"note"} if note else set())
        assert evidence_from_json(doc) == ev


@pytest.mark.parametrize("kind", sorted(EVIDENCE_KINDS))
def test_every_kind_rejects_inexact_and_nonpositive_fields(kind):
    row = EVIDENCE_KINDS[kind]
    params = _sample_params(row)
    for i in range(len(params)):
        for bad in (2.0, True):
            with pytest.raises(TypeError):
                make_evidence(kind, (*params[:i], bad, *params[i + 1:]))
        for bad in (0, -1):
            with pytest.raises(ValueError, match="must be positive"):
                make_evidence(kind, (*params[:i], bad, *params[i + 1:]))


def test_readme_lists_exactly_the_evidence_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Evidence kinds and what each certifies", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section.split("\n\n")[1], re.M)
    listed = {kind: tuple(f.strip(" `") for f in fields.split(",") if f.strip() != "—")
              for kind, fields in rows}
    assert listed == {kind: row.fields for kind, row in EVIDENCE_KINDS.items()}
    rational_line = next(line for line in section.splitlines()
                         if line.startswith("Rational fields"))
    assert set(re.findall(r"`(\w+)`", rational_line)) == \
        {name for row in EVIDENCE_KINDS.values() for name in row.rational}


def test_evidence_str():
    assert str(make_evidence("complete_intersection", (5, 2))) == \
        "complete_intersection(a=5, b=2)"
    assert str(make_evidence("degree_default", ())) == "degree_default()"
    assert str(make_evidence("normal_bundle_s", (F(35, 2),))) == "normal_bundle_s(s_n=35/2)"


# -- single-evidence bounds --------------------------------------------------


def test_degree_default_bounds():
    eb = bound_from_evidence(CI52, make_evidence("degree_default", ()))
    assert eb.eps2_lower is None
    assert eb.lower == F(1, 10)
    assert eb.upper == QuadNumber(0, F(1, 10), 10)   # 1/sqrt(10)


def test_global_generation_bound():
    eb = bound_from_evidence(CI52, make_evidence("global_generation", (2, 3)))
    assert eb.eps2_lower is None
    assert eb.lower == F(2, 3) and eb.upper is None


def test_regularity_bounds():
    eb = bound_from_evidence(CI52, make_evidence("regularity", (3,)))
    assert (eb.lower, eb.upper) == (F(1, 3), 1)
    # m = 1 certifies no upper bound: 2/(m-1) is undefined
    eb = bound_from_evidence(CI52, make_evidence("regularity", (1,)))
    assert eb.eps2_lower is None
    assert (eb.lower, eb.upper) == (1, None)


def test_secant_line_bound():
    assert bound_from_evidence(CI52, make_evidence("secant_line", (5,))).upper == F(1, 5)
    assert bound_from_evidence(CI52, make_evidence("secant_line", (10,))).upper == F(1, 10)
    with pytest.raises(EvidenceInconsistentWithDegree):
        bound_from_evidence(CI52, make_evidence("secant_line", (11,)))


def test_complete_intersection_bound():
    eb = bound_from_evidence(CI52, make_evidence("complete_intersection", (5, 2)))
    assert eb.eps2_lower is None
    assert eb.lower == eb.upper == F(1, 5)
    with pytest.raises(EvidenceInconsistentWithDegree):
        bound_from_evidence(CI52, make_evidence("complete_intersection", (3, 2)))


def test_linked_line_bound():
    c = CurveGeometry(d=9, g=12)
    eb = bound_from_evidence(c, make_evidence("linked_line", (5, 2)))
    assert eb.lower == eb.upper == F(1, 5)
    with pytest.raises(EvidenceInconsistentWithDegree):
        bound_from_evidence(CI52, make_evidence("linked_line", (5, 2)))


def test_normal_bundle_bound():
    eb = bound_from_evidence(CI52, make_evidence("normal_bundle_s", (35,)))
    assert (eb.lower, eb.eps2_lower) == (None, None)
    assert eb.upper == F(2, 7)
    # s_N below deg_N/2 contradicts rank two
    with pytest.raises(EvidenceInconsistentWithDegree):
        bound_from_evidence(CI52, make_evidence("normal_bundle_s", (34,)))


def test_bundle_seshadri_bound():
    eb = bound_from_evidence(CI52, make_evidence("bundle_seshadri", (1, 4)))
    assert eb.lower == F(1, 4)


def test_residual_reduced_bound():
    eb = bound_from_evidence(CI52, make_evidence("residual_reduced", (4, 3)))
    assert (eb.lower, eb.upper) == (None, None)
    assert eb.eps2_lower == F(1, 5)
    with pytest.raises(EvidenceInconsistentWithDegree):
        bound_from_evidence(CI52, make_evidence("residual_reduced", (3, 3)))   # d = 10 > 8


def test_assert_exact_bound():
    eb = bound_from_evidence(CI52, make_evidence("assert_exact", (F(1, 5),)))
    assert eb.lower == eb.upper == F(1, 5)


# -- combination -------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (5, 2), (6, 3), (8, 5), (50, 4)])
def test_complete_intersections_pin_the_constant(a, b):
    c = CurveGeometry(d=a * b, g=a * b * (a + b - 4) // 2 + 1)
    iv = combine(c, [make_evidence("complete_intersection", (a, b))])
    assert iv.is_point
    assert iv.lower == F(1, a)
    assert iv.upper == F(1, a)
    assert F(1, a) in iv
    # the witnesses achieve the bounds (ties may go to a default)
    assert dict(iv.lower_trace)[iv.lower_witness] == iv.lower
    assert dict(iv.upper_trace)[iv.upper_witness] == iv.upper


def test_witness_kinds_without_ties():
    iv = combine(CI52, [make_evidence("complete_intersection", (5, 2))])
    assert iv.lower_witness.kind == "complete_intersection"
    assert iv.upper_witness.kind == "complete_intersection"


def test_line_interval_is_one():
    iv = combine(LINE, [make_evidence("global_generation", (1, 1))])
    assert iv.is_point and iv.lower == 1 and iv.upper == 1


def test_twisted_cubic_interval():
    iv = combine(CUBIC, [castelnuovo_default(CUBIC)])
    assert iv.lower == F(1, 2)
    assert iv.upper == QuadNumber(0, F(1, 3), 3)     # 1/sqrt(3)
    assert not iv.is_point
    assert F(1, 2) in iv and F(4, 7) in iv and F(3, 5) not in iv


def test_defaults_alone_give_the_degree_interval():
    iv = combine(CI52, [])
    assert iv.lower == F(1, 10)
    # the worst-case instability default beats 1/sqrt(10): 2d/deg_N = 2/7
    assert iv.upper == F(2, 7)
    assert iv.upper_witness.kind == "normal_bundle_s"
    assert len(iv.lower_trace) == 1 and len(iv.upper_trace) == 2


def test_residual_pairs_with_exact_sub_line_bundle_degree():
    iv = combine(OCTIC, [make_evidence("normal_bundle_s", (20,)),
                         make_evidence("residual_reduced", (3, 3))])
    # eps1 = d/s_N = 2/5 exactly; eps >= min(eps1, eps2) = 1/4
    assert iv.lower == F(1, 4)
    assert any("paired with exact eps1 = 2/5" in n for n in iv.notes)
    assert iv.upper == QuadNumber(0, F(1, 4), 2)     # 1/sqrt(8)


def test_residual_without_exact_eps1_is_recorded_not_combined():
    iv = combine(OCTIC, [make_evidence("residual_reduced", (3, 3))])
    assert iv.lower == F(1, 8)
    assert any("not combined" in n for n in iv.notes)


def test_worst_case_instability_is_not_treated_as_exact():
    # the injected normal-bundle default is an upper bound only, so a
    # residual bound must not pair with it
    iv = combine(OCTIC, [make_evidence("residual_reduced", (4, 4))])
    assert iv.lower == F(1, 8)
    assert any("not combined" in n for n in iv.notes)


def test_assert_exact_combines():
    iv = combine(CUBIC, [make_evidence("assert_exact", (F(1, 2),))])
    assert iv.is_point and iv.lower == F(1, 2)


def test_conflicting_evidence_raises():
    c = CurveGeometry(d=4, g=1)
    with pytest.raises(InconsistentEvidence):
        combine(c, [make_evidence("global_generation", (2, 1))])


def test_genus_gate_rejects_overlarge_lower_bound():
    # 1/4 exceeds what genus 16 allows in degree 10
    with pytest.raises(InconsistentEvidence, match="genus"):
        combine(CI52, [make_evidence("bundle_seshadri", (1, 4))])


def test_lower_never_below_defaults():
    iv = combine(CI52, [make_evidence("bundle_seshadri", (1, 100))])
    assert iv.lower == F(1, 10)


@given(seshadri_oracle.CURVE_EVIDENCE)
def test_combine_is_a_fold_of_bound_from_evidence(args):
    # combine reads each row's bound directly and decides its extremes
    # and consistency by scalar's integer sign tests; the oracle folds
    # one EvidenceBound per item in the model, which shares no code
    # with scalar
    c, evidence = args
    expected = seshadri_oracle.combine(c, evidence)
    if expected is None:
        with pytest.raises(InconsistentEvidence):
            combine(c, evidence)
        return
    iv = combine(c, evidence)
    assert (iv.lower, model.of(iv.upper), iv.lower_trace, iv.upper_trace,
            len(iv.notes)) == expected


@pytest.mark.parametrize("case", [
    "inconsistent", "rational upper", "irrational upper", "residual paired",
    "lower equals upper", "tie at an end"])
def test_fold_strategy_reaches(case):
    def hit(args):
        out = seshadri_oracle.combine(*args)
        if case == "inconsistent" or out is None:
            return case == "inconsistent" and out is None
        low, high = out[0], out[1]
        return {"rational upper": high[2] == 0,
                "irrational upper": high[2] != 0,
                "residual paired": {"residual_reduced", "normal_bundle_s"}
                <= {e.kind for e in args[1]},
                "lower equals upper": model.cmp(low, high) == 0,
                "tie at an end": sum(v == low for _, v in out[2]) > 1
                or sum(model.cmp(_in_model(v), high) == 0 for _, v in out[3]) > 1}[case]
    find(seshadri_oracle.CURVE_EVIDENCE, hit, settings=REACH)


def _in_model(v):
    return model.of(v) if isinstance(v, QuadNumber) else v


@given(seshadri_oracle.CURVE_EVIDENCE, st.data())
def test_membership_point_and_witnesses_agree_with_the_model(args, data):
    # the interval decides `in` through scalar's one rational test, and
    # is_point and its witnesses by equality with its ends; the model,
    # which shares no code with scalar, decides each from the traces,
    # the first candidate winning a tie
    c, evidence = args
    # the oracle, not combine, says which intervals are empty, so that a
    # fault that empties every interval cannot skip every example
    assume(seshadri_oracle.combine(c, evidence) is not None)
    iv = combine(c, evidence)
    lows = [v for _, v in iv.lower_trace]
    highs = [_in_model(v) for _, v in iv.upper_trace]
    low, high = lows[0], highs[0]
    for v in lows:
        low = v if model.cmp(v, low) > 0 else low
    for v in highs:
        high = model.minimum(high, v)
    assert model.cmp(iv.lower, low) == 0
    assert model.cmp(model.of(iv.upper), high) == 0
    assert iv.lower_witness == next(ev for ev, v in iv.lower_trace
                                    if model.cmp(v, low) == 0)
    assert iv.upper_witness == next(ev for (ev, _), v in zip(iv.upper_trace, highs)
                                    if model.cmp(v, high) == 0)
    assert iv.is_point == (model.cmp(low, high) == 0)
    # the ends themselves where rational, and rationals next to them
    top = (iv.upper.as_rational() if iv.upper.is_rational
           else F(str(iv.upper.to_decimal(12))))
    near = [low, top, *(x * F(k, 1000) for x in (low, top) for k in (999, 1001))]
    q = data.draw(st.one_of(st.sampled_from(near),
                            st.fractions(min_value=0, max_value=2, max_denominator=100)))
    assert (q in iv) == (model.cmp(q, low) >= 0 and model.cmp(q, high) <= 0)


# the rows build their values in canonical form, without generic
# arithmetic; each must equal the generic expression it replaced, here
# evaluated in the Fraction-pair model and built by the constructor


def test_degree_default_upper_is_one_over_sqrt_d():
    for d in range(1, 2001):
        upper = bound_from_evidence(CurveGeometry(d=d, g=0),
                                    make_evidence("degree_default", ())).upper
        generic = QuadNumber(*model.inverse(model.sqrt(d)))
        assert upper == generic and upper.parts == generic.parts


@given(st.integers(min_value=1, max_value=500),
       st.fractions(min_value=F(1, 8), max_value=2000, max_denominator=60))
def test_normal_bundle_upper_is_d_over_s_n(d, ratio):
    c = CurveGeometry(d=d, g=0)
    s_n = F(c.deg_n, 2) * (1 + ratio)  # at least deg_N/2, as the kind requires
    eb = bound_from_evidence(c, make_evidence("normal_bundle_s", (s_n,)))
    assert eb.upper == F(d) / s_n


def test_combine_ties_keep_the_first_candidate():
    # two lower bounds of 1/2 and two upper bounds of 1/3: the message
    # names the first lower candidate, as max over the trace would, and
    # the upper end is the value both uppers share
    c = CurveGeometry(d=10, g=0)
    half = make_evidence("assert_exact", (F(1, 2),))
    generated = make_evidence("global_generation", (1, 2))
    for first, second in ((half, generated), (generated, half)):
        with pytest.raises(InconsistentEvidence, match=re.escape(f"lower from {first}")):
            combine(c, [first, second, make_evidence("secant_line", (3,))])
    secant = make_evidence("secant_line", (4,))
    iv = combine(c, [secant, make_evidence("regularity", (8,))])  # uppers 1/4 and 2/7
    assert iv.upper == F(1, 4) and iv.upper_witness == secant
    # uppers 1/4 and 1/4
    iv = combine(c, [secant, make_evidence("normal_bundle_s", (40,))])
    assert iv.upper == F(1, 4) and iv.upper_witness == secant
    assert iv.lower == F(1, 10) and iv.lower_witness == make_evidence(
        "degree_default", (), note="injected default")


def test_interval_notes_render_on_read(monkeypatch):
    # combine keeps each note as a step; the text exists only when
    # notes is read, and the record view shows it where the steps are
    def no_text(self):
        raise AssertionError("rendered before it was read")

    evidence = [make_evidence("normal_bundle_s", (F(41, 2),)),
                make_evidence("residual_reduced", (3, 3)),
                make_evidence("residual_reduced", (4, 4))]
    for cls in (Fraction, QuadNumber, Evidence):
        monkeypatch.setattr(cls, "__str__", no_text)
    paired = combine(OCTIC, evidence)
    alone = combine(OCTIC, evidence[1:2])
    with pytest.raises(AssertionError, match="rendered before"):
        paired.notes
    monkeypatch.undo()
    assert paired.notes == (
        "residual_reduced(a=3, b=3) paired with exact eps1 = 16/41: "
        "eps >= min(eps1, 1/4) = 1/4",
        "residual_reduced(a=4, b=4) paired with exact eps1 = 16/41: "
        "eps >= min(eps1, 1/6) = 1/6")
    assert alone.notes == (
        "residual_reduced(a=3, b=3) certifies eps2 >= 1/4 only; not combined "
        "(no exact sub-line-bundle degree for eps1)",)
    view = _record.asdict(paired)
    assert list(view) == ["lower", "upper", "lower_trace", "upper_trace", "notes"]
    assert view["notes"] == paired.notes
    assert combine(OCTIC, []).notes == ()


# -- regularity default ------------------------------------------------------


def test_castelnuovo_default():
    ev = castelnuovo_default(CUBIC)
    assert ev.kind == "regularity" and ev.params == (2,)
    assert castelnuovo_default(CI52).params == (9,)
    with pytest.raises(DegenerateInput):
        castelnuovo_default(LINE)


@given(st.integers(min_value=2, max_value=10**6))
def test_castelnuovo_default_equals_make_evidence(d):
    # built without make_evidence's checks, which it passes by construction
    ev = castelnuovo_default(CurveGeometry(d=d, g=0))
    assert ev == make_evidence("regularity", (d - 1,), note=ev.note)
    assert ev.note == "regularity from degree (nondegenerate curve)"
