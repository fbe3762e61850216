"""End-to-end CLI behavior: exit codes, text output, JSON payloads."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import bounds_oracle
import quad_model as model
from cases import ll
from curvebounds import bounds, cli
from curvebounds.blowup import _SYSTEM_POINTS, MAX_POINTS
from curvebounds.bounds import Discrepancy
from curvebounds.cli import build_parser, main
from curvebounds.scalar import MAX_DIGITS, QuadNumber, quad_from_json

CI52 = '{"kind": {"complete_intersection": {"a": 5, "b": 2}}}'
CI504 = '{"kind": {"complete_intersection": {"a": 50, "b": 4}}}'
LL52 = '{"kind": {"linked_line": {"a": 5, "b": 2}}}'
# the same (a, b) with a genus override: a different curve
LL523 = '{"kind": {"linked_line": {"a": 5, "b": 2, "g": 3}}}'
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
    # each item as a descriptor writes it: its fields by name, no tuple
    assert iv["upper_trace"][0]["evidence"] == {"kind": "degree_default",
                                                "note": "injected default"}
    assert [t["evidence"].get("m") for t in iv["lower_trace"]] == [None, 2]


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
    for eta in ([], ["--eta", "1/5"]):
        code, out, _ = run(capsys, "gonality", LL52, *eta)
        assert code == 0
        assert "warning[linked-line-pencil-gap]" in out
        code, doc, _ = run_json(capsys, "gonality", LL52, *eta)
        discs = doc["report"]["discrepancies"]
        assert [d["code"] for d in discs] == ["linked-line-pencil-gap"]
        assert discs[0]["data"]["pencil_degree"] == 4


@pytest.mark.parametrize("desc,eta", [
    (LL52, ["--eta", "1/6"]),
    (LL523, []),
    (LL523, ["--eta", "1/5"]),
    (LL523, ["--eta", "1/6"]),
], ids=["ll-5-2 eta=1/6", "ll-5-2-3", "ll-5-2-3 eta=1/5", "ll-5-2-3 eta=1/6"])
def test_gonality_linked_line_gap_only_on_the_liaison_curve(capsys, desc, eta):
    # the gap is the bound of the liaison curve (g = 12) at eta = 1/5;
    # any other report must not carry it
    code, out, _ = run(capsys, "gonality", desc, *eta)
    assert code == 0
    assert "linked-line-pencil-gap" not in out
    code, doc, _ = run_json(capsys, "gonality", desc, *eta)
    assert "linked-line-pencil-gap" not in [
        d["code"] for d in doc["report"]["discrepancies"]]


def test_gonality_runs_the_bound_kernel_once_on_the_liaison_curve(capsys,
                                                                  monkeypatch):
    # the gap is read off the command's own report, not a second bound
    calls = []
    kernel = bounds._two_term_bound
    monkeypatch.setattr(bounds, "_two_term_bound",
                        lambda *args: calls.append(args) or kernel(*args))
    code, out, _ = run(capsys, "gonality", LL52)
    assert code == 0
    assert "warning[linked-line-pencil-gap]" in out
    assert len(calls) == 1


SURFACE_TYPES = [(a, b) for a in range(1, 9) for b in range(1, 9) if a * b >= 2]


@pytest.mark.parametrize("a, b", SURFACE_TYPES,
                         ids=[f"ll-{a}-{b}" for a, b in SURFACE_TYPES])
def test_gonality_gap_matches_the_oracle(capsys, a, b):
    # the liaison curve at eta = 1/(a+b-2), its bound from the oracle
    desc = json.dumps({"kind": {"linked_line": {"a": a, "b": b}}})
    report = bounds_oracle.gonality_bound(ll(a, b), Fraction(1, a + b - 2))
    value, ceiling, pencil = report["value"], report["value_ceiling"], (a - 1) * (b - 1)
    gap = None
    if model.cmp(model.of(value), model.lift(pencil)) < 0:
        gap = Discrepancy(
            "linked-line-pencil-gap",
            f"for the curve linked to a line by type ({a}, {b}) surfaces, the bound "
            f"value {value} (ceiling {ceiling}) is below the residual-pencil degree "
            f"(a-1)(b-1) = {pencil}; the bound is not sharp for this family",
            {"bound_value": value, "bound_ceiling": ceiling, "pencil_degree": pencil})
    code, out, _ = run(capsys, "gonality", desc)
    assert code == 0
    warnings = [line.strip() for line in out.splitlines()
                if "linked-line-pencil-gap" in line]
    assert warnings == ([] if gap is None else
                        [f"warning[linked-line-pencil-gap]: {gap.message}"])
    code, doc, _ = run_json(capsys, "gonality", desc)
    discs = [d for d in doc["report"]["discrepancies"]
             if d["code"] == "linked-line-pencil-gap"]
    expected = [] if gap is None else [json.loads(json.dumps(gap, default=cli._json))]
    assert discs == expected


@pytest.mark.parametrize("value", [object(), {1, 2}], ids=["object", "set"])
def test_the_json_hook_refuses_an_unknown_object(value):
    # json.dumps's default contract: raise TypeError; a hook that gave
    # the object back would send the encoder round to it again
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli._json(value)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json.dumps({"x": [value]}, default=cli._json)


RAW400 = '{"kind":{"raw":{"d":400,"g":0}}}'
CI22 = '{"kind": {"complete_intersection": {"a": 2, "b": 2}}}'


@pytest.mark.parametrize("command, desc, vacuous", [
    ("gonality", RAW400, True),  # gon >= -39600
    ("gonality", CUBIC, True),  # gon >= 1, which every curve meets
    ("gonality", CI52, False),  # gon >= 5
    ("restrict", CI22, True),  # c2 < 0
    ("restrict", CI52, False),  # c2 < 0.93...
], ids=["raw-400-0", "twisted-cubic", "ci-5-2", "restrict ci-2-2", "restrict ci-5-2"])
def test_a_vacuous_bound_is_named(capsys, command, desc, vacuous):
    code, out, _ = run(capsys, command, desc)
    assert code == 0
    assert ("warning[vacuous-bound]: " in out) is vacuous
    code, doc, _ = run_json(capsys, command, desc)
    codes = [d["code"] for d in doc["report"]["discrepancies"]]
    assert codes == (["vacuous-bound"] if vacuous else [])
    if vacuous:
        data = doc["report"]["discrepancies"][0]["data"]
        assert data == {"value_ceiling": doc["report"]["value_ceiling"],
                        "trivial_bound": 1 if command == "gonality" else 0}


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


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
@pytest.mark.parametrize("mode, given, taken", [
    ("gonality", "gamma", "eta"), ("restriction", "eta", "gamma")])
def test_verify_sweep_refuses_the_other_modes_flag(capsys, json_flag, mode,
                                                   given, taken):
    # once the flag was dropped and eta defaulted, with exit 0
    code, out, err = run(capsys, "verify", "sweep", CI52, "--mode", mode,
                         "--start", "3", "--stop", "5", f"--{given}", "1/3",
                         *json_flag)
    assert code == 2
    assert out == ""
    assert err == f"error: --{given} does not apply in {mode} mode; pass --{taken}\n"


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


def test_each_tree_is_built_once_and_every_call_gets_its_own_parser(capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(cli, "_PARSERS", {})
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda named: builds.append(named) or build(named))
    for _ in range(3):
        assert run(capsys, "gonality", CI52)[0] == 0
    assert builds == [cli._LEAVES[("gonality",)]]
    argv = ["gonality", CI52]
    first, second = build_parser(argv), build_parser(argv)
    assert first is not second
    # a caller that rebinds an attribute, as perfbench's tracer rebinds
    # parse_args, rebinds it on its own parser only
    first.parse_args = lambda *args, **kwargs: None
    assert "parse_args" not in vars(build_parser(argv))
    assert "parse_args" not in vars(second)
    assert len(builds) == 1


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


def test_unreadable_descriptor_file_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "gonality", str(tmp_path))
    assert code == 2
    assert "cannot read" in err
    p = tmp_path / "curve.json"
    p.write_bytes(b'\xff{"kind": {"raw": {"d": 4, "g": 0}}}')
    code, _, err = run(capsys, "gonality", str(p))
    assert code == 2
    assert "not UTF-8 text" in err


def test_invalid_json_is_exit_2(capsys):
    code, _, err = run(capsys, "gonality", '{"kind": ')
    assert code == 2
    assert "invalid JSON" in err


def _fresh_env():
    """The environment of a fresh CLI process that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _fresh_process(argv, timeout):
    """Run the CLI in a fresh process, as a user runs it, with a timeout."""
    return subprocess.run([sys.executable, "-m", "curvebounds", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=_fresh_env())


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    # ~200 KB of JSON, more than a pipe holds, so the write is still
    # running when the reader goes away after one byte, as with
    # `| head -c 1`: a documented exit code and nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "curvebounds", "verify", "sweep", CI52, "--mode",
         "gonality", "--start", "0", "--stop", "2000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (cli.EXIT_CLOSED_PIPE, b"")
    assert cli.EXIT_CLOSED_PIPE == 141  # 128 + SIGPIPE, as README documents


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


def test_main_in_process_returns_the_code_and_leaves_the_streams(monkeypatch):
    # a caller that runs main in its own process keeps its streams: only
    # ``python -m curvebounds`` points them at os.devnull before it exits,
    # and this stream has no file descriptor to point anywhere
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["invariants", CI52, "--json"]) == cli.EXIT_CLOSED_PIPE


@pytest.mark.parametrize("text, message", [
    ("[" * 100_000, "invalid JSON: arrays or objects nested too deeply"),
    ('{"kind": {"raw": {"d": ' + "7" * 4401 + ', "g": 0}}}',
     f"a number of 4401 digits, above the cap of {MAX_DIGITS}"),
], ids=["deep-nesting", "overlong-integer"])
def test_hostile_descriptor_file_is_exit_2(tmp_path, text, message):
    # a fresh process, as a user runs it, with a timeout: a typed error
    # and exit 2, not a traceback
    p = tmp_path / "curve.json"
    p.write_text(text)
    proc = _fresh_process(["gonality", str(p)], timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {p}: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["replay-gonality", '{"kind":{"raw":{"d":1000000,"g":0}}}', "--k", "1",
      "--eta", "999/1000000"], "the replay box has 249500500 points"),
    (["replay-gonality", '{"kind":{"raw":{"d":10,"g":0}}}', "--k", "1",
      "--box-margin", "100000"], "the replay box has 40000"),
    (["identity-sl", '{"kind":{"complete_intersection":{"a":5,"b":2}}}',
      "--range", "100000"], "the slope-identity scan to range 100000 has 40000400001"),
    (["sweep", '{"kind":{"complete_intersection":{"a":5,"b":2}}}', "--mode", "gonality",
      "--eta", "1/5", "--start", "0", "--stop", str(10**20)],
     f"the sweep has {MAX_POINTS // _SYSTEM_POINTS + 1} parameters or more"),
], ids=["huge-box", "huge-margin", "huge-range", "huge-sweep"])
def test_oversized_enumeration_is_exit_1_at_once(argv, message):
    # a fresh process with a 2 s timeout: the work is sized before the
    # first point and refused with WorkTooLarge, not run for hours
    proc = _fresh_process(["verify", *argv], timeout=2)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert proc.stderr.endswith(f"points, above the enumeration cap {MAX_POINTS}\n")


@pytest.mark.parametrize("argv, message", [
    (["seshadri", '{"kind":{"raw":{"d":10,"g":0}},"evidence":'
      '[{"kind":"normal_bundle_s","s_n":"1e10000000"}]}'],
     "error: $.evidence[0].s_n: not a rational: '1e10000000'\n"),
    (["seshadri", '{"kind":{"raw":{"d":10,"g":0}},"evidence":'
      '[{"kind":"normal_bundle_s","s_n":"1e5000"}]}'],
     "error: $.evidence[0].s_n: not a rational: '1e5000'\n"),
    (["seshadri", '{"kind":{"raw":{"d":10,"g":0}},"evidence":'
      '[{"kind":"assert_exact","q":"\u0661"}]}'],
     "error: $.evidence[0].q: not a rational: '\u0661'\n"),
    (["gonality", CI52, "--eta", "1e100000"],
     "argument --eta: invalid _rational_arg value: '1e100000'\n"),
], ids=["exponent-hangs", "exponent-too-long", "arabic-indic", "eta-exponent"])
def test_exponent_rational_is_exit_2_at_once(argv, message):
    # "1e10000000" took 13 s to expand and then loaded; "1e5000" loaded and
    # failed at render time: each is now malformed input, refused at once
    proc = _fresh_process(argv, timeout=2)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(message)


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
