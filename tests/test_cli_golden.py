"""CLI text and JSON stay byte-identical to the recorded golden digests,
and every exact number in a golden JSON payload parses back."""

import json

import pytest

from cli_golden import DIGESTS, LEAVES, USAGE, cases, changes, digest, transcript
from curvebounds import cli
from curvebounds.blowup import CurveGeometry
from curvebounds.bounds import gonality_bound, restriction_threshold
from curvebounds.scalar import decimal_str, parse_rational, quad_from_json

GOLDEN = json.loads(DIGESTS.read_text())
CASES = cases()
JSON_CASES = [(label, argv) for label, argv in CASES if label.endswith(" --json")]
# the library function behind each report, and the name of its parameter
REPORTS = {"gonality": (gonality_bound, "eta"),
           "restrict": (restriction_threshold, "gamma")}


def test_golden_set_matches_recorded_labels():
    assert sorted(label for label, _ in CASES) == sorted(GOLDEN)


def test_rerecord_lists_its_scope():
    old = {"kept": "0", "gone": "1", "moved": "2"}
    new = {"kept": "0", "moved": "3", "new b": "4", "new a": "5"}
    assert changes(old, new) == [
        "added: new a", "added: new b", "removed: gone", "changed: moved"]
    assert changes(new, new) == []


@pytest.mark.parametrize("label,argv", CASES, ids=[label for label, _ in CASES])
def test_cli_transcript_matches_golden(label, argv):
    code, out, err = transcript(argv)
    if digest(code, out, err) != GOLDEN[label]:
        pytest.fail(f"transcript changed for argv {argv!r}\n"
                    f"exit code: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}")


# every label whose transcript argparse wraps to the terminal width
WRAPPED = {"-h", "verify -h", *(" ".join([*leaf, "-h"]) for leaf in LEAVES),
           *(label for label, _ in USAGE)}


def test_a_parser_built_at_another_width_wraps_to_the_current_one(monkeypatch):
    # each tree is built once per process: one built (and used) under a
    # wide terminal must wrap help and usage to COLUMNS=80 afterwards
    monkeypatch.setattr(cli, "_PARSERS", {})
    monkeypatch.setenv("COLUMNS", "200")
    for argv in ([], *([*leaf, "-h"] for leaf in LEAVES)):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert len(cli._PARSERS) == len(LEAVES) + 1
    wrapped = [(label, argv) for label, argv in CASES if label in WRAPPED]
    assert len(wrapped) == len(WRAPPED)
    for label, argv in wrapped:
        assert digest(*transcript(argv)) == GOLDEN[label], label


def exact_pairs(node):
    """Every {"exact", "decimal"} object in a JSON document."""
    if isinstance(node, dict):
        if node.keys() == {"exact", "decimal"}:
            yield node
        else:
            for value in node.values():
                yield from exact_pairs(value)
    elif isinstance(node, list):
        for value in node:
            yield from exact_pairs(value)


def reparse(pair):
    """The exact value of a pair: "p/q" for a rational, {a, b, m} with
    b != 0 for an irrational."""
    exact = pair["exact"]
    if isinstance(exact, str):
        return parse_rational(exact)
    value = quad_from_json(exact)
    assert value.b != 0, f"a rational value in irrational form: {exact}"
    return value


@pytest.mark.parametrize("label,argv", JSON_CASES,
                         ids=[label for label, _ in JSON_CASES])
def test_json_exact_values_round_trip(label, argv):
    code, out, _ = transcript(argv)
    if not out:  # an error exit prints only to stderr
        assert code != 0
        return
    doc = json.loads(out)
    for pair in exact_pairs(doc):
        assert decimal_str(reparse(pair)) == pair["decimal"]
    if "report" in doc:
        bound, param = REPORTS[doc["command"]]
        curve = CurveGeometry(doc["curve"]["d"], doc["curve"]["g"])
        at = reparse(doc["report"]["inputs"][param])
        assert reparse(doc["report"]["value"]) == bound(curve, at).value


def test_json_round_trip_meets_both_exact_forms():
    forms = {"rational": 0, "irrational": 0, "report": 0}
    for _, argv in JSON_CASES:
        _, out, _ = transcript(argv)
        doc = json.loads(out) if out else {}
        for pair in exact_pairs(doc):
            forms["rational" if isinstance(pair["exact"], str) else "irrational"] += 1
        forms["report"] += "report" in doc
    assert min(forms.values()) > 0, forms
