"""Curve-descriptor documents: a small strict JSON format naming a
curve, how its invariants are derived, and what evidence is attached.

Three kinds:

* ``complete_intersection {a, b}``: d = ab, g = ab(a+b-4)/2 + 1,
  matching-evidence auto-included;
* ``linked_line {a, b}``: the curve residual to a line in a complete
  intersection of type (a, b); d = ab - 1 and, by liaison,
  g = (a+b-4)(ab-2)/2.  An explicit ``g`` overrides the formula, with a
  warning;
* ``raw {d, g}``: explicit invariants; with ``flags.nondegenerate``
  the regularity default (m = d - 1) is auto-included.

Unknown fields anywhere are rejected with the offending location, so
typos in evidence kinds cannot silently weaken a run.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Any, Optional, Union

from ._record import record
from .blowup import CurveGeometry
from .errors import DegenerateInput, InvariantViolation, ParseError, TooManyDigits
from .scalar import capped_int as _capped_int
from .scalar import format_rational, parse_int, parse_rational
from .seshadri import (
    EVIDENCE_KINDS,
    Evidence,
    castelnuovo_default,
    linked_line_genus,
)

KINDS = ("complete_intersection", "linked_line", "raw")

# one decoder for every load: its integer literals go through the digit
# cap, so json converts none above it
_JSON = json.JSONDecoder(parse_int=parse_int)


@record
class CurveDescriptor:
    name: str
    kind: str
    params: dict
    curve: CurveGeometry
    evidence: tuple[Evidence, ...]
    nondegenerate: bool
    warnings: tuple[str, ...] = ()


def _check_fields(obj: dict, allowed: tuple[str, ...], loc: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ParseError(f"{loc}: unknown field {key!r} "
                             f"(allowed: {', '.join(allowed)})")


def _capped(v: int, loc: str, key: str) -> int:
    """``v``, or ParseError naming the field when it has more than
    MAX_DIGITS digits (a library caller's int skips the JSON decoder's cap)."""
    try:
        return _capped_int(v)
    except TooManyDigits as exc:
        raise ParseError(f"{loc}.{key}: {exc}") from None


def _get_int(obj: dict, key: str, loc: str, minimum: Optional[int] = None) -> int:
    if key not in obj:
        raise ParseError(f"{loc}: missing required field {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{loc}.{key}: expected an integer, got {v!r}")
    _capped(v, loc, key)
    if minimum is not None and v < minimum:
        raise InvariantViolation(f"{loc}.{key}: must be >= {minimum}, got {v}")
    return v


def _get_rational(obj: dict, key: str, loc: str) -> Fraction:
    if key not in obj:
        raise ParseError(f"{loc}: missing required field {key!r}")
    v = obj[key]
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(_capped(v, loc, key))
    if isinstance(v, str):
        try:
            return parse_rational(v)
        except ValueError as exc:
            raise ParseError(f"{loc}.{key}: {exc}") from None
    raise ParseError(f"{loc}.{key}: expected an integer or 'p/q' string, got {v!r}")


def evidence_from_json(obj: Any, loc: str = "$") -> Evidence:
    if not isinstance(obj, dict):
        raise ParseError(f"{loc}: evidence must be an object, got {obj!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in EVIDENCE_KINDS:
        raise ParseError(f"{loc}.kind: unknown evidence kind {kind!r} "
                         f"(known: {', '.join(sorted(EVIDENCE_KINDS))})")
    row = EVIDENCE_KINDS[kind]
    _check_fields(obj, ("kind", "note") + row.fields, loc)
    params = tuple([_get_rational(obj, name, loc) if name in row.rational
                    else _get_int(obj, name, loc) for name in row.fields])
    note = obj.get("note", "")
    if not isinstance(note, str):
        raise ParseError(f"{loc}.note: expected a string, got {note!r}")
    try:
        return Evidence(kind, params, note)
    except ValueError as exc:
        raise InvariantViolation(f"{loc}: {exc}") from None


def evidence_to_json(e: Evidence) -> dict:
    doc: dict[str, Any] = {"kind": e.kind}
    row = EVIDENCE_KINDS[e.kind]
    for name, value in zip(row.fields, e.params):
        if name in row.rational:
            value = value.numerator if value.denominator == 1 else format_rational(value)
        doc[name] = value
    if e.note:
        doc["note"] = e.note
    return doc


def _derive_kind(kind_obj: dict, loc: str) -> tuple[str, dict, CurveGeometry, list[str]]:
    if not isinstance(kind_obj, dict) or len(kind_obj) != 1:
        raise ParseError(f"{loc}: expected exactly one kind among "
                         f"{', '.join(KINDS)}")
    (kind, params), = kind_obj.items()
    if kind not in KINDS:
        raise ParseError(f"{loc}: unknown kind {kind!r} "
                         f"(known: {', '.join(KINDS)})")
    kloc = f"{loc}.{kind}"
    if not isinstance(params, dict):
        raise ParseError(f"{kloc}: expected an object, got {params!r}")
    warnings: list[str] = []
    try:
        if kind == "raw":
            _check_fields(params, ("d", "g"), kloc)
            d = _get_int(params, "d", kloc, minimum=1)
            g = _get_int(params, "g", kloc, minimum=0)
            return kind, {"d": d, "g": g}, CurveGeometry(d=d, g=g), warnings
        linked = kind == "linked_line"
        _check_fields(params, ("a", "b", "g") if linked else ("a", "b"), kloc)
        a = _get_int(params, "a", kloc, minimum=1)
        b = _get_int(params, "b", kloc, minimum=1)
        out = {"a": a, "b": b}
        if not linked:
            if a < b:
                raise InvariantViolation(
                    f"{kloc}: complete intersection requires a >= b, got ({a}, {b})")
            # ab(a+b-4) is always even, so this is exact
            d, g = a * b, a * b * (a + b - 4) // 2 + 1
        else:
            if a * b < 2:
                raise InvariantViolation(
                    f"{kloc}: residual to a line needs ab >= 2, got ({a}, {b})")
            d, g = a * b - 1, linked_line_genus(a, b)
            if "g" in params:
                out["g"] = _get_int(params, "g", kloc, minimum=0)
                if out["g"] != g:
                    warnings.append(
                        f"genus override g = {out['g']} replaces the liaison value "
                        f"{g} for linked_line({a}, {b})")
                g = out["g"]
        return kind, out, CurveGeometry(d=d, g=g), warnings
    except ValueError as exc:
        raise InvariantViolation(f"{kloc}: {exc}") from None


def descriptor_from_dict(doc: Any, source: str = "$") -> CurveDescriptor:
    """Validate a parsed document and derive the curve, auto-including
    the kind's evidence.  Strict: unknown fields are rejected."""
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: expected a JSON object, got {doc!r}")
    _check_fields(doc, ("name", "kind", "evidence", "flags"), source)
    if "kind" not in doc:
        raise ParseError(f"{source}: missing required field 'kind'")
    kind, params, curve, warnings = _derive_kind(doc["kind"], f"{source}.kind")

    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise ParseError(f"{source}.flags: expected an object, got {flags!r}")
    _check_fields(flags, ("nondegenerate",), f"{source}.flags")
    nondegenerate = flags.get("nondegenerate", False)
    if not isinstance(nondegenerate, bool):
        raise ParseError(f"{source}.flags.nondegenerate: expected a boolean")

    raw_evidence = doc.get("evidence", [])
    if not isinstance(raw_evidence, list):
        raise ParseError(f"{source}.evidence: expected a list")
    evidence = [evidence_from_json(item, f"{source}.evidence[{i}]")
                for i, item in enumerate(raw_evidence)]

    def include(item: Evidence) -> None:
        if not any(e.kind == item.kind and e.params == item.params
                   for e in evidence):
            evidence.append(item)

    if kind in ("complete_intersection", "linked_line"):
        # the evidence kind of the same name, valid by construction:
        # _derive_kind has checked the integers a >= b >= 1 (complete
        # intersection) or a, b >= 1 with ab >= 2, so a + b >= 3 (linked line)
        include(Evidence(kind, (params["a"], params["b"]), "from descriptor kind"))
    elif nondegenerate:
        try:
            include(castelnuovo_default(curve))
        except DegenerateInput as exc:
            raise InvariantViolation(f"{source}.flags.nondegenerate: {exc}") from None

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"{source}.name: expected a string, got {name!r}")
    if not name:
        name = "-".join([{"complete_intersection": "ci",
                          "linked_line": "ll", "raw": "raw"}[kind]]
                        + [str(v) for v in params.values()])

    return CurveDescriptor(
        name=name,
        kind=kind,
        params=params,
        curve=curve,
        evidence=tuple(evidence),
        nondegenerate=nondegenerate,
        warnings=tuple(warnings),
    )


def load_descriptor(path_or_text: Union[str, os.PathLike]) -> CurveDescriptor:
    """Load a descriptor from a UTF-8 JSON file, named by a str or
    os.PathLike path, or directly from JSON text (a str that starts
    with '{').  A file that cannot be read, text that is not JSON
    (nesting too deep included) and an integer literal above the digit
    cap raise ParseError."""
    if isinstance(path_or_text, str) and path_or_text.lstrip().startswith("{"):
        source, text = "$", path_or_text
    else:
        source = os.fspath(path_or_text)
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ParseError(f"{source}: no such file") from None
        except OSError as exc:
            raise ParseError(f"{source}: cannot read: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source}: not UTF-8 text: {exc.reason} "
                             f"at byte {exc.start}") from None
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{source}: invalid JSON: arrays or objects "
                         "nested too deeply") from None
    except TooManyDigits as exc:
        raise ParseError(f"{source}: {exc}") from None
    return descriptor_from_dict(doc, source)


def serialize_descriptor(desc: CurveDescriptor) -> dict:
    """Canonical document for a descriptor; load(serialize(d)) derives
    the same descriptor again (auto-included evidence is not duplicated)."""
    return {
        "name": desc.name,
        "kind": {desc.kind: dict(desc.params)},
        "evidence": [evidence_to_json(e) for e in desc.evidence],
        "flags": {"nondegenerate": desc.nondegenerate},
    }


def standard_catalog() -> tuple[CurveDescriptor, ...]:
    """The built-in test catalog: the worked examples every suite runs
    against."""
    docs: list[dict] = [
        {"name": "line", "kind": {"raw": {"d": 1, "g": 0}},
         "evidence": [{"kind": "global_generation", "n": 1, "m": 1,
                       "note": "the hyperplane class restricts to degree one"}]},
        {"name": "twisted-cubic", "kind": {"raw": {"d": 3, "g": 0}},
         "flags": {"nondegenerate": True}},
        {"name": "ci-2-2", "kind": {"complete_intersection": {"a": 2, "b": 2}}},
        {"name": "ci-3-2", "kind": {"complete_intersection": {"a": 3, "b": 2}}},
        {"name": "ci-5-2", "kind": {"complete_intersection": {"a": 5, "b": 2}}},
        {"name": "ci-6-3", "kind": {"complete_intersection": {"a": 6, "b": 3}}},
        {"name": "ci-8-5", "kind": {"complete_intersection": {"a": 8, "b": 5}}},
        {"name": "ci-50-4", "kind": {"complete_intersection": {"a": 50, "b": 4}}},
        {"name": "ll-5-2", "kind": {"linked_line": {"a": 5, "b": 2}}},
        {"name": "ll-7-3", "kind": {"linked_line": {"a": 7, "b": 3}}},
    ]
    return tuple(descriptor_from_dict(doc) for doc in docs)
