"""Descriptor parsing: strict JSON in, derived invariants out."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from curvebounds.catalog import (
    KINDS,
    descriptor_from_dict,
    evidence_from_json,
    evidence_to_json,
    load_descriptor,
    serialize_descriptor,
    standard_catalog,
)
from curvebounds.errors import InvariantViolation, ParseError
from curvebounds.scalar import MAX_DIGITS
from curvebounds.seshadri import (
    EVIDENCE_KINDS,
    make_evidence,
)

F = Fraction


# -- kind derivation -----------------------------------------------------------


def test_complete_intersection_derivation():
    d = descriptor_from_dict({"kind": {"complete_intersection": {"a": 5, "b": 2}}})
    assert d.name == "ci-5-2"
    assert (d.curve.d, d.curve.g, d.curve.deg_n) == (10, 16, 70)
    assert d.params == {"a": 5, "b": 2}
    kinds = [e.kind for e in d.evidence]
    assert kinds == ["complete_intersection"]
    assert d.evidence[0].params == (5, 2)


def test_linked_line_derivation():
    d = descriptor_from_dict({"kind": {"linked_line": {"a": 5, "b": 2}}})
    assert d.name == "ll-5-2"
    assert (d.curve.d, d.curve.g, d.curve.deg_n) == (9, 12, 58)
    assert [e.kind for e in d.evidence] == ["linked_line"]


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
       st.sampled_from(["complete_intersection", "linked_line", "raw"]))
def test_auto_included_evidence_equals_make_evidence(a, b, kind):
    # the kind's item is built without make_evidence's checks, which the
    # derivation has already made; it must be what make_evidence returns
    if kind == "complete_intersection":
        a, b = max(a, b), min(a, b)
        expected = make_evidence("complete_intersection", (a, b),
                                 note="from descriptor kind")
        params = {"a": a, "b": b}
    elif kind == "linked_line":
        a += 1  # ab >= 2
        expected = make_evidence("linked_line", (a, b), note="from descriptor kind")
        params = {"a": a, "b": b}
    else:
        params = {"d": a + 1, "g": 0}  # d >= 2
        expected = make_evidence(
            "regularity", (a,), note="regularity from degree (nondegenerate curve)")
    d = descriptor_from_dict({"kind": {kind: params},
                              "flags": {"nondegenerate": True}})
    assert d.evidence == (expected,)


def test_raw_nondegenerate_gets_the_regularity_default():
    d = descriptor_from_dict({"kind": {"raw": {"d": 3, "g": 0}},
                              "flags": {"nondegenerate": True}})
    assert [e.kind for e in d.evidence] == ["regularity"]
    assert d.evidence[0].params == (2,)


def test_raw_degenerate_gets_no_evidence():
    d = descriptor_from_dict({"kind": {"raw": {"d": 3, "g": 0}}})
    assert d.evidence == ()
    assert d.name == "raw-3-0"


def test_genus_override_warns_when_it_disagrees():
    d = descriptor_from_dict({"kind": {"linked_line": {"a": 5, "b": 2, "g": 13}}})
    assert d.curve.g == 13
    assert len(d.warnings) == 1
    assert "genus override g = 13 replaces the liaison value 12" in d.warnings[0]
    # an override equal to the liaison genus is silent
    d = descriptor_from_dict({"kind": {"linked_line": {"a": 5, "b": 2, "g": 12}}})
    assert d.warnings == ()


def test_user_evidence_is_kept_and_not_duplicated():
    doc = {"kind": {"complete_intersection": {"a": 5, "b": 2}},
           "evidence": [{"kind": "secant_line", "l": 4},
                        {"kind": "complete_intersection", "a": 5, "b": 2}]}
    d = descriptor_from_dict(doc)
    assert [e.kind for e in d.evidence] == ["secant_line", "complete_intersection"]


def test_explicit_name_wins():
    d = descriptor_from_dict({"name": "my-curve",
                              "kind": {"raw": {"d": 2, "g": 0}}})
    assert d.name == "my-curve"


# -- strict validation -----------------------------------------------------------


@pytest.mark.parametrize("doc,fragment", [
    ({"kind": {"raw": {"d": 3, "g": 0, "oops": 1}}},
     "$.kind.raw: unknown field 'oops' (allowed: d, g)"),
    ({"kind": {"raw": {"d": 3}}}, "missing required field 'g'"),
    ({"kind": {"raw": {"d": "3", "g": 0}}}, "$.kind.raw.d: expected an integer"),
    ({"kind": {"nope": {}}}, "unknown kind 'nope'"),
    ({"kind": {"raw": {"d": 1, "g": 0}, "linked_line": {}}},
     "expected exactly one kind"),
    ({"name": "x"}, "missing required field 'kind'"),
    ({"kind": {"raw": {"d": 1, "g": 0}}, "extra": 1},
     "$: unknown field 'extra'"),
    ({"kind": {"raw": {"d": 1, "g": 0}}, "flags": {"nondegenerate": "yes"}},
     "$.flags.nondegenerate: expected a boolean"),
    ({"kind": {"raw": {"d": 1, "g": 0}}, "evidence": [{"kind": "psi"}]},
     "$.evidence[0].kind: unknown evidence kind 'psi'"),
    ({"kind": {"raw": {"d": 1, "g": 0}}, "evidence": [{"kind": ["psi"]}]},
     "$.evidence[0].kind: unknown evidence kind ['psi']"),
    ({"kind": {"raw": {"d": 1, "g": 0}}, "evidence": [{"kind": "secant_line"}]},
     "$.evidence[0]: missing required field 'l'"),
])
def test_parse_errors_carry_a_location(doc, fragment):
    with pytest.raises(ParseError) as exc:
        descriptor_from_dict(doc)
    assert fragment in str(exc.value)


def test_non_object_document_rejected():
    with pytest.raises(ParseError):
        descriptor_from_dict([1, 2, 3])


@pytest.mark.parametrize("doc", [
    {"kind": {"raw": {"d": 0, "g": 0}}},
    {"kind": {"complete_intersection": {"a": 2, "b": 3}}},
    {"kind": {"linked_line": {"a": 1, "b": 1}}},
    {"kind": {"raw": {"d": 1, "g": 0}},
     "evidence": [{"kind": "complete_intersection", "a": 2, "b": 3}]},
])
def test_invariant_violations(doc):
    with pytest.raises(InvariantViolation):
        descriptor_from_dict(doc)


# -- evidence serialization --------------------------------------------------------


def test_evidence_json_round_trip():
    ev = evidence_from_json({"kind": "normal_bundle_s", "s_n": "35/2",
                             "note": "measured"})
    assert ev == make_evidence("normal_bundle_s", (F(35, 2),), note="measured")
    assert evidence_to_json(ev) == {"kind": "normal_bundle_s", "s_n": "35/2",
                                    "note": "measured"}


def test_integral_rational_serializes_as_int():
    assert evidence_to_json(make_evidence("normal_bundle_s", (35,))) == \
        {"kind": "normal_bundle_s", "s_n": 35}


def test_empty_note_is_omitted():
    assert "note" not in evidence_to_json(make_evidence("secant_line", (3,)))


def test_bad_rational_is_a_parse_error():
    with pytest.raises(ParseError, match=r"\$\.evidence\[0\]\.s_n"):
        descriptor_from_dict({"kind": {"raw": {"d": 1, "g": 0}},
                              "evidence": [{"kind": "normal_bundle_s",
                                            "s_n": "x/y"}]})


# -- loading and round trips --------------------------------------------------------


def test_load_from_json_text():
    d = load_descriptor('{"kind": {"complete_intersection": {"a": 3, "b": 2}}}')
    assert d.name == "ci-3-2" and d.curve.d == 6


def test_load_from_file(tmp_path):
    p = tmp_path / "curve.json"
    p.write_text(json.dumps({"kind": {"raw": {"d": 4, "g": 0}}}))
    assert load_descriptor(str(p)).curve.d == 4
    assert load_descriptor(Path(p)).curve.d == 4


def test_load_missing_file():
    for path in ("/nonexistent/curve.json", Path("/nonexistent/curve.json")):
        with pytest.raises(ParseError, match="no such file"):
            load_descriptor(path)


def test_load_unreadable_file_is_a_parse_error(tmp_path):
    for path in (tmp_path, str(tmp_path)):
        with pytest.raises(ParseError, match="cannot read"):
            load_descriptor(path)
    p = tmp_path / "latin1.json"
    p.write_bytes('{"name": "k\u00e4fer", "kind": {"raw": {"d": 4, "g": 0}}}'
                  .encode("latin-1"))
    for path in (p, str(p)):
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_descriptor(path)


def test_load_invalid_json_reports_position():
    with pytest.raises(ParseError, match="line 1, column 10"):
        load_descriptor('{"kind": ')


# hostile JSON: 100,000 nested arrays exhaust the decoder's recursion,
# and a 4,401-digit literal exceeds int's digit limit for conversion (and
# the digit cap, which refuses it before json converts it)
DEEP_NESTING = "[" * 100_000
LONG_DEGREE = '{"kind": {"raw": {"d": ' + "7" * 4401 + ', "g": 0}}}'


def test_load_deep_nesting_is_a_parse_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text(DEEP_NESTING)
    with pytest.raises(ParseError, match=f"^{p}: invalid JSON: .*nested too deeply"):
        load_descriptor(p)
    with pytest.raises(ParseError, match=r"^\$: invalid JSON: .*nested too deeply"):
        load_descriptor("{" + '"kind": ' + DEEP_NESTING)


def test_load_overlong_integer_is_a_parse_error(tmp_path):
    p = tmp_path / "long.json"
    p.write_text(LONG_DEGREE)
    cap = f"a number of 4401 digits, above the cap of {MAX_DIGITS}$"
    with pytest.raises(ParseError, match=f"^{p}: {cap}"):
        load_descriptor(str(p))
    with pytest.raises(ParseError, match=r"^\$: " + cap):
        load_descriptor(LONG_DEGREE)


@pytest.mark.parametrize("digits", [MAX_DIGITS, MAX_DIGITS + 1])
def test_an_integer_literal_is_capped_in_every_position(digits):
    # the cap holds wherever json meets a literal, also where the
    # descriptor expects none
    literal = "-" + "7" * digits
    text = ('{"kind": {"raw": {"d": 10, "g": 0}}, "name": "c", '
            f'"flags": {{"nondegenerate": [{literal}]}}}}')
    if digits > MAX_DIGITS:
        with pytest.raises(ParseError, match=f"^\\$: a number of {digits} digits"):
            load_descriptor(text)
    else:
        with pytest.raises(ParseError, match=r"^\$\.flags\.nondegenerate: expected"):
            load_descriptor(text)


def test_a_byte_order_mark_is_refused_as_json_refuses_it(tmp_path):
    p = tmp_path / "bom.json"
    p.write_text('{"kind": {"raw": {"d": 10, "g": 0}}}', encoding="utf-8-sig")
    with pytest.raises(ParseError, match=f"^{p}: invalid JSON at line 1, column 1: "
                       r"Unexpected UTF-8 BOM"):
        load_descriptor(p)


# rational strings that Fraction accepts and the descriptor grammar does
# not: an exponent ("1e10000000", 18 characters, took 13 s to expand; a
# larger one hangs), an exponent whose value has more digits than int can
# render, and an Arabic-Indic one
HOSTILE_RATIONALS = ["1e10000000", "1e5000", "\u0661"]


def _with_s_n(s_n: str) -> str:
    return json.dumps({"kind": {"raw": {"d": 10, "g": 0}},
                       "evidence": [{"kind": "normal_bundle_s", "s_n": s_n}]})


@pytest.mark.parametrize("s_n", HOSTILE_RATIONALS)
def test_hostile_rational_strings_are_parse_errors(s_n):
    with pytest.raises(ParseError, match=r"^\$\.evidence\[0\]\.s_n: not a rational: "):
        load_descriptor(_with_s_n(s_n))


def test_nondegenerate_line_is_an_invariant_violation():
    # the regularity default needs d >= 2, so the flag contradicts d = 1
    with pytest.raises(InvariantViolation, match=r"^\$\.flags\.nondegenerate: "):
        load_descriptor('{"kind": {"raw": {"d": 1, "g": 0}}, '
                        '"flags": {"nondegenerate": true}}')


# generated hostile documents: any JSON value in any position, with
# integers of up to 4,300 digits (either side of the 1,400-digit cap),
# odd Unicode, exponent strings and deep nesting
_leaves = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-3, max_value=60), st.integers(),
    st.integers(min_value=1, max_value=4300).map(lambda k: 10 ** k - 1),
    st.text(max_size=8),
    st.text(st.characters(categories=["Nd", "No", "Zs"]), min_size=1, max_size=4),
    st.builds("{}{}e{}".format, st.sampled_from(["", "-"]),
              st.integers(min_value=0, max_value=99),
              st.integers(min_value=-10**9, max_value=10**9)),
    st.builds("{}/{}".format, st.integers(), st.integers()),
)
_values = st.recursive(_leaves, lambda kids: st.lists(kids, max_size=3)
                       | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                       max_leaves=6)
_small = st.integers(min_value=1, max_value=12)
# mostly well-formed values, so that most documents get past the first field
_int_value = st.one_of(_small, _small, _small, _values)
_rational_value = st.one_of(_small, st.builds("{}/{}".format, _small, _small), _values)


def _shaped(required, optional=(), rational=()):
    """An object with the ``required`` fields and some of the
    ``optional`` ones, each usually a small integer (or "p/q" string
    for a ``rational`` field) and otherwise any JSON value."""
    def value(name):
        return _rational_value if name in rational else _int_value
    return st.fixed_dictionaries({f: value(f) for f in required},
                                 optional={f: value(f) for f in optional})


# (required, optional) fields of each descriptor kind
_KIND_FIELDS = {"complete_intersection": (("a", "b"), ()),
                "linked_line": (("a", "b"), ("g",)), "raw": (("d", "g"), ())}
assert set(_KIND_FIELDS) == set(KINDS)
_kind = st.one_of(*[_shaped(*fields).map(lambda params, k=k: {k: params})
                    for k, fields in _KIND_FIELDS.items()], _values)
_note = st.fixed_dictionaries({}, optional={"note": st.text(max_size=8) | _values})
_evidence = st.one_of(*[st.builds(lambda params, note, k=k: {**params, **note, "kind": k},
                                  _shaped(row.fields, rational=row.rational), _note)
                        for k, row in EVIDENCE_KINDS.items()], _values)
_documents = st.fixed_dictionaries(
    {"kind": _kind},
    optional={"name": st.text(max_size=8) | _values,
              "evidence": st.lists(_evidence, max_size=3) | _values,
              "flags": st.fixed_dictionaries(
                  {}, optional={"nondegenerate": st.booleans() | _values}) | _values})
_hostile_texts = st.one_of(
    st.builds(json.dumps, _documents, ensure_ascii=st.booleans()),
    st.integers(min_value=0, max_value=200_000).map(lambda n: '{"kind": ' + "[" * n),
)


@given(_hostile_texts)
@example(_with_s_n(HOSTILE_RATIONALS[0]))
@example(_with_s_n(HOSTILE_RATIONALS[1]))
@example(_with_s_n(HOSTILE_RATIONALS[2]))
@example('{"kind": {"raw": {"d": 10, "g": 0}}, '
         '"evidence": [{"kind": "assert_exact", "q": "-1e100000"}]}')
@example("{" + '"kind": ' + DEEP_NESTING)
@example(LONG_DEGREE)
@example('{"kind": {"raw": {"d": 1, "g": 0}}, "flags": {"nondegenerate": true}}')
def test_hostile_json_loads_or_fails_with_a_typed_error(text):
    try:
        load_descriptor(text)
    except (ParseError, InvariantViolation):
        pass


def test_serialize_round_trip_is_stable():
    for desc in standard_catalog():
        doc = serialize_descriptor(desc)
        again = descriptor_from_dict(doc)
        assert again.name == desc.name
        assert again.kind == desc.kind
        assert again.params == desc.params
        assert again.curve == desc.curve
        assert again.evidence == desc.evidence
        assert again.nondegenerate == desc.nondegenerate
        assert serialize_descriptor(again) == doc


# -- the built-in catalog -----------------------------------------------------------


def test_standard_catalog_contents():
    names = [d.name for d in standard_catalog()]
    assert names == ["line", "twisted-cubic", "ci-2-2", "ci-3-2", "ci-5-2",
                     "ci-6-3", "ci-8-5", "ci-50-4", "ll-5-2", "ll-7-3"]
    assert not any(d.warnings for d in standard_catalog())


def test_standard_catalog_invariants():
    for desc in standard_catalog():
        c = desc.curve
        assert c.deg_n == 4 * c.d + 2 * c.g - 2
        if desc.kind == "complete_intersection":
            a, b = desc.params["a"], desc.params["b"]
            assert c.deg_n == a * b * (a + b)


def test_line_descriptor_evidence():
    line = standard_catalog()[0]
    assert [e.kind for e in line.evidence] == ["global_generation"]
    assert line.evidence[0].params == (1, 1)
