"""One digit cap where numbers enter: every numeric input of every
command, at MAX_DIGITS digits, runs or fails with a typed error, and
every value it prints renders; at MAX_DIGITS + 1 digits it is refused
at input with exit 2 and a message naming the cap."""

import json
import re
from fractions import Fraction

import pytest

from curvebounds import cli
from curvebounds.blowup import CurveGeometry
from curvebounds.bounds import (certify_restriction_stable, gonality_bound,
                                restriction_threshold)
from curvebounds.catalog import descriptor_from_dict
from curvebounds.errors import (CurveBoundsError, InvariantViolation, ParseError,
                               TooManyDigits)
from curvebounds.scalar import MAX_CURVE_DIGITS, MAX_DIGITS
from curvebounds.replay import GonalityMode, build_system, sweep
from curvebounds.seshadri import EVIDENCE_KINDS, Evidence, combine
from test_cli import CI52, _fresh_process

CAP_MESSAGE = f"digits, above the cap of {MAX_DIGITS}"
RAW_LIMIT = "Exceeds the limit"
# the widest value a number of MAX_DIGITS digits can give: the printed
# values are polynomials of degree <= 3 in the inputs (see scalar.MAX_DIGITS)
WIDEST = 3 * MAX_DIGITS + 25


def integer_texts(n):
    return {"int": "7" * n}


def rational_texts(n):
    """Each shape of a rational of ``n`` digits in all."""
    half = n // 2
    return {"int": "7" * n, "reciprocal": "1/" + "7" * (n - 1),
            "decimal": "0." + "7" * (n - 1),
            "ratio": "7" * half + "/" + "9" * (n - half)}


# descriptor templates: "X" is replaced by the number, as a JSON integer
# literal or, for a rational field, also as a string, and "Y" by a
# smaller number of as many digits
KIND_SLOTS = {
    "ci.a": '{"complete_intersection": {"a": X, "b": 2}}',
    "ci.b": '{"complete_intersection": {"a": 5, "b": X}}',
    "ll.a": '{"linked_line": {"a": X, "b": 2}}',
    "ll.b": '{"linked_line": {"a": 5, "b": X}}',
    "ll.g": '{"linked_line": {"a": 5, "b": 2, "g": X}}',
    "raw.d": '{"raw": {"d": X, "g": 0}}',
    "raw.g": '{"raw": {"d": 10, "g": X}}',
    # several wide numbers at once: the liaison genus, printed in the
    # override warning, is of degree 3 in a and b
    "ci.a-and-b": '{"complete_intersection": {"a": X, "b": Y}}',
    "ll.a-b-and-g": '{"linked_line": {"a": X, "b": Y, "g": X}}',
}


def descriptor_slots():
    """(id, descriptor template, text shapes) of every number a
    descriptor holds: each kind's fields, and each evidence field with
    the kind's other fields at 2, on a curve of degree 10; and some
    with several numbers at the cap."""
    slots = [(name, '{"kind": ' + kind + "}", integer_texts)
             for name, kind in KIND_SLOTS.items()]
    for kind, row in EVIDENCE_KINDS.items():
        for field in row.fields:
            params = ", ".join(f'"{f}": {"X" if f == field else 2}'
                               for f in row.fields)
            doc = ('{"kind": {"raw": {"d": 10, "g": 0}}, "evidence": '
                   f'[{{"kind": "{kind}", {params}}}]}}')
            slots.append((f"{kind}.{field}", doc, integer_texts))
            if field in row.rational:
                slots.append((f"{kind}.{field}-string",
                              doc.replace("X", '"X"'), rational_texts))
    # eta = n/m, its numerator and denominator both at the cap
    slots.append(("global_generation.n-and-m",
                  '{"kind": {"raw": {"d": 10, "g": 0}}, "evidence": '
                  '[{"kind": "global_generation", "n": Y, "m": X}]}', integer_texts))
    return slots


# every command form that reads a descriptor, with the options it needs
DESCRIPTOR_FORMS = {
    "invariants": ["invariants", "DESC"],
    "seshadri": ["seshadri", "DESC"],
    "gonality": ["gonality", "DESC"],
    "restrict": ["restrict", "DESC", "--c2", "0"],
    "identity-sl": ["verify", "identity-sl", "DESC", "--range", "2"],
    "replay-gonality": ["verify", "replay-gonality", "DESC", "--k", "1"],
    "replay-restriction": ["verify", "replay-restriction", "DESC", "--c2", "1"],
    "sweep-gonality": ["verify", "sweep", "DESC", "--mode", "gonality",
                       "--start", "0", "--stop", "1"],
    "sweep-restriction": ["verify", "sweep", "DESC", "--mode", "restriction",
                          "--start", "0", "--stop", "1"],
}

# every numeric option of every command, on ci-5-2: "X" is the number
OPTION_FORMS = {
    "invariants --eta": (["invariants", CI52, "--eta", "X"], rational_texts),
    "gonality --eta": (["gonality", CI52, "--eta", "X"], rational_texts),
    "restrict --gamma": (["restrict", CI52, "--gamma", "X"], rational_texts),
    "restrict --c2": (["restrict", CI52, "--c2", "X"], integer_texts),
    **{f"surface-restrict {variant} --{name}":
       (["surface-restrict", "--variant", variant,
         *[a for opt in ("c2", "a", "b")
           for a in (f"--{opt}", "X" if opt == name else "3")]], integer_texts)
       for variant in ("barth", "c2plus2", "ci_curve") for name in ("c2", "a", "b")},
    "identity-sl --eta": (["verify", "identity-sl", CI52, "--range", "2",
                           "--eta", "X"], rational_texts),
    "identity-sl --range": (["verify", "identity-sl", CI52, "--range", "X"],
                            integer_texts),
    "replay-gonality --eta": (["verify", "replay-gonality", CI52, "--k", "1",
                               "--eta", "X"], rational_texts),
    "replay-gonality --k": (["verify", "replay-gonality", CI52, "--k", "X"],
                            integer_texts),
    "replay-gonality --box-margin": (["verify", "replay-gonality", CI52, "--k", "1",
                                      "--box-margin", "X"], integer_texts),
    "replay-restriction --gamma": (["verify", "replay-restriction", CI52, "--c2", "1",
                                    "--gamma", "X"], rational_texts),
    "replay-restriction --c2": (["verify", "replay-restriction", CI52, "--c2", "X"],
                                integer_texts),
    "replay-restriction --l-min": (["verify", "replay-restriction", CI52, "--c2", "1",
                                    "--l-min", "X"], integer_texts),
    "replay-restriction --box-margin": (["verify", "replay-restriction", CI52,
                                         "--c2", "1", "--box-margin", "X"],
                                        integer_texts),
    # each mode takes its own flag and refuses the other one
    **{f"sweep {mode} --{flag}":
       (["verify", "sweep", CI52, "--mode", mode, "--start", "0", "--stop", "1",
         f"--{flag}", "X"], rational_texts)
       for mode, flag in (("gonality", "eta"), ("restriction", "gamma"))},
    **{f"sweep {mode} --{name}":
       (["verify", "sweep", CI52, "--mode", mode,
         "--start", "0" if name == "stop" else "X", "--stop", "X",
         "--box-margin", "0"], integer_texts)
       for mode in ("gonality", "restriction") for name in ("start", "stop")},
    **{f"sweep {mode} --box-margin":
       (["verify", "sweep", CI52, "--mode", mode, "--start", "0", "--stop", "1",
         "--box-margin", "X"], integer_texts)
       for mode in ("gonality", "restriction")},
}


def cases():
    """(id, argv template, text shapes) of every command x every
    numeric input."""
    out = [(f"{form} {slot}", [doc if a == "DESC" else a for a in argv], shapes)
           for slot, doc, shapes in descriptor_slots()
           for form, argv in DESCRIPTOR_FORMS.items()]
    out += [(name, argv, shapes) for name, (argv, shapes) in OPTION_FORMS.items()]
    return out


CASES = cases()


def run(monkeypatch, capsys, argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``.  main maps a
    bare ValueError to exit 1 as well; here only a CurveBoundsError may
    leave a handler, so any other error fails the test."""
    monkeypatch.setattr(cli, "ValueError", CurveBoundsError, raising=False)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fill(template, text):
    """``template`` with "X" as ``text`` and "Y" as a smaller number of
    as many digits."""
    return [a.replace("Y", "1" + text[1:]).replace("X", text) for a in template]


@pytest.mark.parametrize("case_id, template, shapes", CASES,
                         ids=[case_id for case_id, _, _ in CASES])
def test_a_number_at_the_cap_runs_and_every_value_prints(monkeypatch, capsys,
                                                         case_id, template, shapes):
    for text in shapes(MAX_DIGITS).values():
        for mode in ([], ["--json"]):
            code, out, err = run(monkeypatch, capsys, fill(template, text) + mode)
            assert code in (0, 1), (code, err[:300])
            assert code == 0 or err.splitlines()[-1].startswith("error: ")
            # nothing at the cap, nor anything derived from it, is refused
            # for its width
            assert "digits, above the cap" not in err
            assert RAW_LIMIT not in out + err
            if mode:
                assert code == 1 or json.loads(out)
            widest = max(map(len, re.findall(r"\d+", out + err)))
            assert widest <= WIDEST


@pytest.mark.parametrize("case_id, template, shapes", CASES,
                         ids=[case_id for case_id, _, _ in CASES])
def test_a_number_above_the_cap_is_exit_2_naming_the_cap(monkeypatch, capsys,
                                                         case_id, template, shapes):
    for text in shapes(MAX_DIGITS + 1).values():
        code, out, err = run(monkeypatch, capsys, fill(template, text))
        assert code == 2
        assert out == ""
        assert err.rstrip("\n").endswith(f"a number of {MAX_DIGITS + 1} {CAP_MESSAGE}")


def test_every_numeric_option_is_covered():
    numeric = {(path[-1], name) for path, _, _, arguments in cli.COMMANDS
               for name, kwargs in arguments
               if kwargs.get("type") in (cli._INT_ARG, cli._RATIONAL_ARG)}
    covered = {(argv[1] if argv[0] == "verify" else argv[0],
                argv[argv.index("X") - 1]) for argv, _ in OPTION_FORMS.values()}
    assert numeric == covered


# Each of these once ended in Python's raw "Exceeds the limit (4300
# digits) for integer string conversion" (exit 1) or, for invariants,
# in a typed error raised after the arithmetic: each number is now
# refused where it enters, in a fresh process, at once.
SEVEN_4299 = "7" * 4299
NINE_3000 = "9" * 3000
OVERSIZED = {
    "gonality --eta": ["gonality", CI52, "--eta", SEVEN_4299],
    "replay-gonality --eta": ["verify", "replay-gonality", CI52, "--k", "1",
                              "--eta", SEVEN_4299],
    "sweep --eta": ["verify", "sweep", CI52, "--mode", "gonality",
                    "--start", "0", "--stop", "1", "--eta", SEVEN_4299],
    "restrict --gamma": ["restrict", CI52, "--gamma", SEVEN_4299],
    "replay-restriction --gamma": ["verify", "replay-restriction", CI52,
                                   "--c2", "1", "--gamma", SEVEN_4299],
    "identity-sl --range": ["verify", "identity-sl", CI52, "--range", NINE_3000],
    "replay-gonality --box-margin": ["verify", "replay-gonality", CI52, "--k", "1",
                                     "--box-margin", NINE_3000],
    "invariants --eta": ["invariants", CI52, "--eta", "1/" + "1" * 4000],
}


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED)
def test_oversized_number_is_exit_2_at_input(argv):
    proc = _fresh_process(argv, timeout=2)
    assert proc.returncode == 2
    assert proc.stdout == ""
    digits = sum(map(str.isdigit, argv[-1]))
    assert proc.stderr.endswith(f": a number of {digits} {CAP_MESSAGE}\n")
    assert RAW_LIMIT not in proc.stderr


# A library caller's int skips the JSON decoder's cap: the descriptor
# loader applies MAX_DIGITS to the int itself, and CurveGeometry the
# wider MAX_CURVE_DIGITS, which every d and g a descriptor derives meets;
# neither converts it to text (a 4,400-digit one once ended in Python's
# raw limit).
@pytest.mark.parametrize("digits", [MAX_DIGITS, MAX_DIGITS + 1, 4400])
@pytest.mark.parametrize("sign", [1, -1])
def test_a_library_int_passes_the_digit_cap(digits, sign):
    n = sign * 10 ** (digits - 1)
    doc = {"kind": {"raw": {"d": 10, "g": n}}}
    evidence = {"kind": {"raw": {"d": 10, "g": 0}},
                "evidence": [{"kind": "global_generation", "n": n, "m": 1}]}
    if digits > MAX_DIGITS:
        message = f"a number of more than {MAX_DIGITS} digits, above the cap"
        with pytest.raises(ParseError, match=rf"^\$\.kind\.raw\.g: {message}$"):
            descriptor_from_dict(doc)
        with pytest.raises(ParseError, match=rf"^\$\.evidence\[0\]\.n: {message}$"):
            descriptor_from_dict(evidence)
    elif sign > 0:
        assert descriptor_from_dict(doc).curve.g == n
        assert descriptor_from_dict(evidence).evidence
    else:  # refused for its sign, in a message that prints it
        with pytest.raises(InvariantViolation, match=f"got -1{'0' * (digits - 1)}$"):
            descriptor_from_dict(doc)


@pytest.mark.parametrize("field", ["d", "g"])
def test_a_curve_takes_every_width_a_descriptor_derives(field):
    widest = 10**MAX_CURVE_DIGITS - 1
    # a = b = 10**1400 - 1: d = ab, and g = ab(a + b - 4)/2 + 1 has
    # MAX_CURVE_DIGITS digits
    a = 10**MAX_DIGITS - 1
    curve = descriptor_from_dict({"kind": {"complete_intersection":
                                           {"a": a, "b": a}}}).curve
    assert len(str(curve.g)) == MAX_CURVE_DIGITS
    if field == "g":
        trace = gonality_bound(CurveGeometry(d=10, g=widest), Fraction(1, 5)).trace
        assert RAW_LIMIT not in "\n".join(trace)
    for n in (10**MAX_CURVE_DIGITS, 10**4400):
        with pytest.raises(TooManyDigits, match=f"^a number of more than "
                           f"{MAX_CURVE_DIGITS} digits, above the cap$"):
            CurveGeometry(**{"d": 10, "g": 0, field: n})


def certification_text(c, gamma):
    """The reason of a certification at c2 = 0, which prints its
    threshold, then the trace of the report that threshold must equal
    the value of; the certification runs first, so a refusal is its."""
    res = certify_restriction_stable(c, gamma, 0)
    report = restriction_threshold(c, gamma)
    assert res.threshold == report.value
    return (res.reason, *report.trace)


# A curve at MAX_CURVE_DIGITS and a rational at MAX_DIGITS each pass
# their own cap, but delta's numerator p*deg_N - q*d, which bounds every
# value delta enters, then has ~5,600 digits: both bounds and the
# certification refuse it, where they once ended in Python's raw limit.
BOUNDS = {"gonality_bound": lambda c, q: gonality_bound(c, q).trace,
          "restriction_threshold": lambda c, q: restriction_threshold(c, q).trace,
          "certify_restriction_stable": certification_text}


@pytest.mark.parametrize("bound", BOUNDS.values(), ids=BOUNDS)
def test_the_caps_compose(bound):
    c = CurveGeometry(d=10, g=10 ** (MAX_CURVE_DIGITS - 1))
    with pytest.raises(TooManyDigits, match="more than 4300 digits"):
        bound(c, Fraction(10 ** (MAX_DIGITS - 1) + 1, 6 * 10 ** (MAX_DIGITS - 1)))
    assert RAW_LIMIT not in "\n".join(bound(c, Fraction(1, 5)))


@pytest.mark.parametrize("bound", BOUNDS.values(), ids=BOUNDS)
def test_delta_of_4300_digits_prints_and_of_4301_is_refused(bound):
    # eta = 10**100: delta = 10**100 * (2g + 38) - 10 is 10**4300 - 10 at
    # this g, and above 10**4300 at g + 1
    eta, g = Fraction(10**100), (10**4200 - 38) // 2
    assert f"= {10**4300 - 10}" in "\n".join(bound(CurveGeometry(d=10, g=g), eta))
    with pytest.raises(TooManyDigits):
        bound(CurveGeometry(d=10, g=g + 1), eta)


# A Fraction that a library caller hands to a bound, to the replay or
# to an evidence item skips the parser's cap: each applies MAX_DIGITS to
# its numerator and to its denominator, without converting either to
# text (at 4,400 digits each call once ended in Python's raw limit).
RATIONAL_ENTRIES = {
    "gonality_bound": lambda q: gonality_bound(CurveGeometry(d=10, g=0), q).trace,
    "restriction_threshold": lambda q: restriction_threshold(
        CurveGeometry(d=10, g=0), q).trace,
    "certify_restriction_stable": lambda q: certify_restriction_stable(
        CurveGeometry(d=10, g=0), q, 0).reason,
    "build_system": lambda q: build_system(CurveGeometry(10, 16), q, GonalityMode(k=0)),
    "sweep": lambda q: sweep(CurveGeometry(10, 16), q, "gonality", range(2)),
    "assert_exact": lambda q: combine(CurveGeometry(10, 16),
                                      [Evidence("assert_exact", (q,))]),
    "normal_bundle_s": lambda q: Evidence("normal_bundle_s", (q,)),
}


@pytest.mark.parametrize("entry", RATIONAL_ENTRIES.values(), ids=RATIONAL_ENTRIES)
@pytest.mark.parametrize("numerator, denominator", [
    (MAX_DIGITS, MAX_DIGITS), (MAX_DIGITS + 1, MAX_DIGITS),
    (MAX_DIGITS, MAX_DIGITS + 1), (1, 4401)])
def test_a_library_rational_passes_the_digit_cap(entry, numerator, denominator):
    # (10**(n-1) + 1) / (6 * 10**(m-1)) is in lowest terms, with n and m
    # digits; at n = m it is about 1/6, inside ci-5-2's interval
    q = Fraction(10 ** (numerator - 1) + 1, 6 * 10 ** (denominator - 1))
    if max(numerator, denominator) <= MAX_DIGITS:
        entry(q)
        return
    with pytest.raises(TooManyDigits, match=f"^a number of more than {MAX_DIGITS} "
                       "digits, above the cap$"):
        entry(q)
