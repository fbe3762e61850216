"""End-to-end CLI behavior: exit codes, text output, JSON payloads."""

import argparse
import json
import sys
import time

import pytest

from curvebounds import cli
from curvebounds.cli import build_parser, main
from curvebounds.scalar import QuadNumber, quad_from_json

CI52 = '{"kind": {"complete_intersection": {"a": 5, "b": 2}}}'
CI504 = '{"kind": {"complete_intersection": {"a": 50, "b": 4}}}'
LL52 = '{"kind": {"linked_line": {"a": 5, "b": 2}}}'
LINE = ('{"kind": {"raw": {"d": 1, "g": 0}}, "evidence": '
        '[{"kind": "global_generation", "n": 1, "m": 1}]}')
CUBIC = '{"kind": {"raw": {"d": 3, "g": 0}}, "flags": {"nondegenerate": true}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# -- invariants ----------------------------------------------------------------


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", CI52)
    assert code == 0
    assert "d = 10" in out and "g = 16" in out and "deg_N = 70" in out
    assert "delta_eta = 4" in out
    assert "lambda_eta = 0" in out


def test_invariants_json(capsys):
    code, doc, _ = run_json(capsys, "invariants", CI52)
    assert code == 0
    assert doc["schema"] == 1
    assert doc["command"] == "invariants"
    assert doc["curve"]["name"] == "ci-5-2"
    assert doc["curve"]["deg_n"] == 70
    assert doc["eta"] == {"exact": "1/5", "decimal": "0.2"}
    assert doc["delta_eta"]["exact"] == "4"
    assert any("defaulted to the certified Seshadri lower bound 1/5" in n
               for n in doc["notes"])


def test_invariants_explicit_eta(capsys):
    code, doc, _ = run_json(capsys, "invariants", CI52, "--eta", "1/4")
    assert code == 0
    assert doc["eta"]["exact"] == "1/4"
    assert doc["notes"] == []
    assert doc["lambda_eta"]["exact"] == "-5/4"


# -- seshadri --------------------------------------------------------------------


def test_seshadri_point_interval_text(capsys):
    code, out, _ = run(capsys, "seshadri", LINE)
    assert code == 0
    assert "1 <= eps <= 1" in out
    assert "point: eps known exactly" in out


def test_seshadri_json(capsys):
    code, doc, _ = run_json(capsys, "seshadri", CUBIC)
    assert code == 0
    iv = doc["interval"]
    assert iv["lower"]["exact"] == "1/2"
    upper = quad_from_json(iv["upper"]["exact"])
    assert upper == QuadNumber(0, "1/3", 3)
    kinds = [t["evidence"]["kind"] for t in iv["lower_trace"]]
    assert "regularity" in kinds and "degree_default" in kinds


# -- gonality --------------------------------------------------------------------


def test_gonality_text(capsys):
    code, out, _ = run(capsys, "gonality", CI52)
    assert code == 0
    assert "gon >= 5" in out
    assert "delta = eta*deg_N - d = 4" in out
    assert "eta defaulted to the certified Seshadri lower bound 1/5" in out


def test_gonality_json_exact_value_reparses(capsys):
    code, doc, _ = run_json(capsys, "gonality", CUBIC)
    assert code == 0
    rep = doc["report"]
    assert rep["value_ceiling"] == 1
    value = quad_from_json(rep["value"]["exact"])
    assert value == QuadNumber(-15, 9, 3)
    assert rep["value"]["decimal"].startswith("0.588")


def test_gonality_linked_line_gap_warning(capsys):
    code, out, _ = run(capsys, "gonality", LL52)
    assert code == 0
    assert "warning[linked-line-pencil-gap]" in out
    code, doc, _ = run_json(capsys, "gonality", LL52)
    discs = doc["report"]["discrepancies"]
    assert [d["code"] for d in discs] == ["linked-line-pencil-gap"]
    assert discs[0]["data"]["pencil_degree"] == 4


def test_gonality_outside_interval_warns(capsys):
    code, out, _ = run(capsys, "gonality", CI52, "--eta", "1/4")
    assert code == 0
    assert "outside the certified interval" in out


# -- restrict --------------------------------------------------------------------


def test_restrict_threshold_only(capsys):
    code, doc, _ = run_json(capsys, "restrict", CI504)
    assert code == 0
    assert "verdict" not in doc
    assert doc["report"]["value"] == {"exact": "3", "decimal": "3"}
    assert any("stability constant of a specific bundle may be smaller" in n
               for n in doc["notes"])


def test_restrict_certified(capsys):
    code, doc, _ = run_json(capsys, "restrict", CI504, "--c2", "2")
    assert code == 0
    assert doc["verdict"] == "certified"
    assert doc["c2"] == 2


def test_restrict_inconclusive_is_exit_0_unless_strict(capsys):
    code, doc, _ = run_json(capsys, "restrict", CI504, "--c2", "3")
    assert code == 0
    assert doc["verdict"] == "inconclusive"
    code, _, _ = run(capsys, "restrict", CI504, "--c2", "3", "--strict")
    assert code == 1


def test_restrict_exact_irrational_value(capsys):
    code, doc, _ = run_json(capsys, "restrict", CI52, "--c2", "0")
    assert code == 0
    assert doc["verdict"] == "certified"
    assert doc["report"]["value"]["exact"] == {"a": "-31/2", "b": "3", "m": 30}
    assert doc["report"]["value"]["decimal"] == "0.931677"


# -- surface-restrict --------------------------------------------------------------


def test_surface_restrict_ok(capsys):
    code, out, _ = run(capsys, "surface-restrict", "--variant", "barth",
                       "--c2", "2", "--a", "5")
    assert code == 0
    assert "hypotheses hold" in out


def test_surface_restrict_silent_criterion(capsys):
    code, out, _ = run(capsys, "surface-restrict", "--variant", "barth",
                       "--c2", "2", "--a", "4")
    assert code == 0
    assert "criterion is silent" in out
    code, _, _ = run(capsys, "surface-restrict", "--variant", "barth",
                     "--c2", "2", "--a", "4", "--strict")
    assert code == 1


def test_surface_restrict_null_correlation_is_an_error(capsys):
    code, _, err = run(capsys, "surface-restrict", "--variant", "barth",
                       "--c2", "1", "--a", "9")
    assert code == 1
    assert "c2 = 1 is excluded" in err


def test_surface_restrict_missing_degree_is_an_error(capsys):
    code, _, err = run(capsys, "surface-restrict", "--variant", "ci_curve",
                       "--c2", "2", "--a", "10")
    assert code == 1
    assert "needs both degrees" in err


# -- verify ----------------------------------------------------------------------


def test_verify_identity_clean(capsys):
    code, doc, _ = run_json(capsys, "verify", "identity-sl", CI52,
                            "--range", "6")
    assert code == 0
    assert doc["command"] == "verify-identity-sl"
    assert doc["checked"] == 13 * 13
    assert doc["violations"] == []


def test_verify_replay_gonality_empty(capsys):
    code, doc, _ = run_json(capsys, "verify", "replay-gonality", CI52,
                            "--k", "4")
    assert code == 0
    assert doc["empty"] is True
    assert doc["witness"] is None
    assert doc["box"] == {"x": [0, 1], "y": [0, 0], "margin": 0,
                          "notes": doc["box"]["notes"]}
    assert any("necessary conditions" in n for n in doc["notes"])


def test_verify_replay_gonality_witness_text(capsys):
    code, out, _ = run(capsys, "verify", "replay-gonality", CI52, "--k", "5")
    assert code == 0
    assert "witness (x, y) = (1, 0)" in out
    code, _, _ = run(capsys, "verify", "replay-gonality", CI52, "--k", "5",
                     "--strict")
    assert code == 1


def test_verify_replay_empty_text_mentions_scale(capsys):
    code, out, _ = run(capsys, "verify", "replay-gonality", CI52, "--k", "4",
                       "--box-margin", "5")
    assert code == 0
    assert "outcome: empty" in out
    assert "bound certified at desk scale" in out


def test_verify_replay_restriction(capsys):
    code, doc, _ = run_json(capsys, "verify", "replay-restriction", CI504,
                            "--c2", "2")
    assert code == 0
    assert doc["empty"] is True
    assert doc["mode"] == {"c2": 2, "l_min": 0}


def test_verify_sweep(capsys):
    code, doc, _ = run_json(capsys, "verify", "sweep", CI52, "--mode",
                            "gonality", "--start", "3", "--stop", "6")
    assert code == 0
    assert doc["frontier"] == 5
    assert [e["k"] for e in doc["entries"]] == [3, 4, 5, 6]
    assert doc["entries"][2]["witness"] == [1, 0]


def test_verify_sweep_bad_range(capsys):
    code, _, err = run(capsys, "verify", "sweep", CI52, "--mode", "gonality",
                       "--start", "5", "--stop", "3")
    assert code == 2
    assert "below --start" in err


def test_verify_sweep_restriction_uses_gamma(capsys):
    code, out, _ = run(capsys, "verify", "sweep", CI504, "--mode",
                       "restriction", "--start", "0", "--stop", "3")
    assert code == 0
    assert "frontier: c2 = 3" in out


@pytest.mark.parametrize("argv", [
    ("verify", "replay-gonality", CI52, "--k", "30"),
    ("verify", "replay-restriction", CI504, "--c2", "2"),
    ("verify", "sweep", CI52, "--mode", "gonality", "--start", "3", "--stop", "6"),
])
def test_negative_box_margin_is_exit_1(capsys, argv):
    # margin -2 used to shrink the box until no point was left and the
    # k = 30 replay reported "empty" with 0 classes checked; margin 0
    # finds the witness (1, 0)
    code, out, err = run(capsys, *argv, "--box-margin", "-2")
    assert code == 1
    assert out == ""
    assert "box margin must be nonnegative, got -2" in err


def test_negative_identity_range_is_exit_1(capsys):
    # range -3 used to scan 0 classes and report 0 violations with exit 0
    code, out, err = run(capsys, "verify", "identity-sl", CI52, "--range", "-3")
    assert code == 1
    assert out == ""
    assert "scan range must be nonnegative, got -3" in err


# -- parser ----------------------------------------------------------------------


def leaf_names(parser):
    """Names of the commands built under each level of a parser."""
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                names.append(name)
                names.extend(leaf_names(sub))
    return names


def test_parser_builds_only_the_named_command():
    assert leaf_names(build_parser(["gonality", CI52])) == ["gonality"]
    assert leaf_names(build_parser(["verify", "sweep", CI52, "-h"])) == [
        "verify", "sweep"]
    full = leaf_names(build_parser(None))
    assert full == ["invariants", "seshadri", "gonality", "restrict",
                    "surface-restrict", "verify", "identity-sl",
                    "replay-gonality", "replay-restriction", "sweep"]
    for argv in ([], ["-h"], ["gonalty", CI52], ["verify"], ["verify", "-h"],
                 ["verify", "gonality", CI52], ["--json", "gonality", CI52]):
        assert leaf_names(build_parser(argv)) == full
    for path, *_ in cli.COMMANDS:
        assert leaf_names(build_parser([*path, CI52])) == list(path)


def test_parser_is_built_anew_on_every_call():
    argv = ["gonality", CI52]
    assert build_parser(argv) is not build_parser(argv)


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["curvebounds", "gonality", CI52])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == run(capsys, "gonality", CI52)
    assert code == 0


def transcript(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("gonality", CI52, "--bogus"),
    ("gonality", CI52, "extra"),
    ("gonality", "-h"),
    ("gonality", "--help"),
    ("gonality", CI52, "--eta"),
    ("gonality", CI52, "--et", "1/5"),
    ("gonality", "--", CI52),
    ("restrict", CI52, "--c2=x"),
    ("seshadri",),
    ("surface-restrict", "--variant", "barth", "--c2", "2", "--a", "5", "-x"),
    ("verify", "identity-sl", CI52, "--range", "2", "--bogus", "-h"),
    ("verify", "replay-gonality", CI52, "--k", "1", "--json", "--strict", "x"),
    ("verify", "replay-restriction", "--c2", "2"),
    ("verify", "sweep", CI52, "--mode", "gon", "--start", "0", "--stop", "1"),
    ("verify", "sweep", CI52, "--mode", "gonality", "--start", "0"),
    ("verify", "sweep", "-h", "--bogus"),
])
def test_partial_parser_matches_the_full_tree(capsys, monkeypatch, argv):
    partial = transcript(capsys, argv)
    full_tree = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full_tree(None))
    assert transcript(capsys, argv) == partial


# -- error handling ----------------------------------------------------------------


def test_unparseable_descriptor_is_exit_2(capsys):
    code, _, err = run(capsys, "gonality",
                       '{"kind": {"raw": {"d": 3, "g": 0, "oops": 1}}}')
    assert code == 2
    assert "unknown field 'oops'" in err


def test_invalid_json_is_exit_2(capsys):
    code, _, err = run(capsys, "gonality", '{"kind": ')
    assert code == 2
    assert "invalid JSON" in err


def test_domain_error_is_exit_1(capsys):
    # eta far above the Seshadri constant: the replay box degenerates
    code, _, err = run(capsys, "verify", "replay-gonality", CUBIC,
                       "--k", "1", "--eta", "2/3")
    assert code == 1
    assert "error:" in err


def test_huge_degree_fails_fast_with_exit_1(capsys):
    # a prime just below 10**14: trial division of sqrt(d) would take
    # seconds, the radicand cap refuses it before factoring
    doc = '{"name": "big", "kind": {"raw": {"d": 99999999999973, "g": 0}}}'
    start = time.perf_counter()
    code, out, err = run(capsys, "gonality", doc)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "exceeds the factoring cap" in err


def test_inconsistent_evidence_is_exit_1(capsys):
    doc = ('{"kind": {"raw": {"d": 4, "g": 1}}, "evidence": '
           '[{"kind": "global_generation", "n": 2, "m": 1}]}')
    code, _, err = run(capsys, "seshadri", doc)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("bad", ["abc", "1/0", ""])
def test_argparse_rejects_bad_rational(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["gonality", CI52, "--eta", bad])
    assert exc.value.code == 2


def test_argparse_accepts_decimal_rational(capsys):
    # "0.2" is an exact rational (1/5), not a float approximation
    code, out, _ = run(capsys, "gonality", CI52, "--eta", "0.2")
    assert code == 0
    assert "gon >= 5" in out


def test_descriptor_warnings_go_to_stderr(capsys):
    doc = '{"kind": {"linked_line": {"a": 5, "b": 2, "g": 13}}}'
    code, out, err = run(capsys, "invariants", doc)
    assert code == 0
    assert "genus override" in err
    assert "genus override" not in out
