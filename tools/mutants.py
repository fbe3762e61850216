"""Run the mutant table: small deliberate faults that the named tests
must catch.  Stdlib only (the tests it runs need pytest).

Usage: python tools/mutants.py

Each row of ``MUTANTS`` names a file under ``src/``, its edits (an
exact old text that occurs once in the file and the new text that
replaces it; a moved line takes two), the tests to run and the
CHANGES.md entry whose code or tests it checks (the start of that
entry's line).  For each row, the tool copies ``src/``, ``tests/``,
``perfbench/exact.py`` (the tests' arithmetic that imports nothing from
``curvebounds``) and ``README.md`` (which some tests read, so that its
absence kills no row) to a temporary directory, applies the row there
and runs ``python -m pytest -x -q`` on the row's tests.  It prints one
"<killed|survived|error> <seconds>s <name>" line per row and exits 1
if any row survived or could not be run: a surviving row is a gap in
the tests, to be reported, not deleted.  ``EQUIVALENT`` lists mutants
that no test can kill, each with its reason; they are never run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str
    edits: tuple[tuple[str, str], ...]    # (old text, new text), in order
    tests: tuple[str, ...]
    source: str


INTEGER_NUMERATORS = "- `top_product` over integer numerators"
INTEGER_CLASSES = "- Integer divisor classes"
INTEGER_SCAN = "- The slope-identity scan decides each class by one integer equation"
SHARED_KERNEL = "- One integer kernel for the triple product"
SCAN_CAP = ("    _check_points(classes * _CLASS_POINTS,\n"
            "                  f\"the slope-identity scan to range {bound} has {classes} classes\")\n")
SCAN_RETURN = "    return checked, violations\n"
ONE_QUADRATIC = "- Finish one way to build each result"
QUAD_KERNEL = "- Fraction-free `QuadNumber`"
EXACT_ORDER = "- One exact order"
BOUND_KERNEL = "- One two-term bound kernel and one evidence table"
INTEGER_BOUNDS = "- Two-term bounds over integer numerators"
TABLE_IN_INTEGERS = "- The `table` path in integers"
CONSTRAINT_TABLE = "- One intersection kernel and one constraint table"
DIGIT_CAP = "- One digit cap where numbers enter"
ONE_PAYLOAD = "- One payload per CLI command"
REACH = "- What the product reaches"
CERTIFY_CORE = "- Certify c2 from the two-term bound's integer core"
ONE_ORACLE = "- One curvebounds-free oracle"
RECORDS = "- Cold-start CLI"
RENDER_ON_READ = "- A `table` op pays only for arithmetic"
ONE_PATH = "- Three duplicate paths go"
ONE_GATE = "- One λ_η and one replay η gate"
UPPER_PICK = "_rational_cmp(v.numerator, v.denominator, upper) < 0"


class Equivalent(NamedTuple):
    """A mutant that no test can kill, with the reason; never run."""
    name: str
    file: str
    edits: tuple[tuple[str, str], ...]
    reason: str


def row(module: str, name: str, source: str, *edits: tuple[str, str],
        tests: tuple[str, ...] = ()) -> Mutant:
    """A row on src/curvebounds/<module>.py, run against the named tests,
    by default tests/test_<module>.py."""
    return Mutant(name, f"src/curvebounds/{module}.py", edits,
                  tests or (f"tests/test_{module}.py",), source)


MUTANTS = [
    row("blowup", "kernel he sign", INTEGER_NUMERATORS, ("hh - c.d * he", "hh + c.d * he")),
    row("blowup", "kernel he term", INTEGER_NUMERATORS, ("y1 * y2 * x3", "y1 * y2 * x2")),
    row("blowup", "kernel denominator", INTEGER_CLASSES, ("q1 * q2 * q3", "q1 * q2")),
    row("blowup", "triple denominator", INTEGER_CLASSES, ("xq * yq", "xq * xq")),
    row("blowup", "triple X and Y swapped", INTEGER_CLASSES,
        ("(xn * yq, yn * xq, xq * yq)", "(yn * xq, xn * yq, xq * yq)")),
    row("blowup", "deg_N constant", "- Certify P³ only",
        ("4 * self.d + 2 * self.g - 2", "4 * self.d + 2 * self.g - 1")),
    row("blowup", "scan lambda sign", INTEGER_SCAN,
        ("- ln * (y * y - y) * sded", "+ ln * (y * y - y) * sded")),
    row("blowup", "scan ld dropped", INTEGER_SCAN, ("* sded * ld", "* sded")),
    row("blowup", "scan eta*d unscaled", INTEGER_SCAN, ("(sn * ed - en * sd)", "(sn * ed - en)")),
    row("blowup", "scan range reversed", "- Cheaper slope-identity classes",
        ("range(-bound, bound + 1)", "range(bound, -bound - 1, -1)")),
    row("blowup", "class weight 5", INTEGER_NUMERATORS,
        ("\n_CLASS_POINTS = 6\n", "\n_CLASS_POINTS = 5\n")),
    # s = x + y*eta*d worked out by the scan, not by the kernel
    row("blowup", "scan s in closed form", SHARED_KERNEL,
        ("sn, sd = _top_ratio(c, (dcls, heta, H))", "sn, sd = x * ed + y * en, ed")),
    row("blowup", "scan cap after its loop", SHARED_KERNEL,
        (SCAN_CAP, ""), (SCAN_RETURN, SCAN_CAP + SCAN_RETURN)),
    # the one box quadratic, the restriction row's at c2 = 0 in gonality mode
    row("replay", "box c2 term", ONE_QUADRATIC, ("4 * r * r * c2", "4 * r * c2")),
    row("replay", "gonality box at c2 = 1", ONE_QUADRATIC,
        ('c2, x_min, t_rule = 0, 0, "t^2*d"', 'c2, x_min, t_rule = 1, 0, "t^2*d"')),
    row("replay", "box lin d for d*d", ONE_QUADRATIC,
        ("lin = 4 * p * p * d * d", "lin = 4 * p * p * d")),
    row("replay", "strict saturation", CONSTRAINT_TABLE,
        ("x * x >= y * y * d)", "x * x > y * y * d)")),
    row("replay", "box points one short", TABLE_IN_INTEGERS,
        ("box.x_max - box.x_min + 2 * margin + 1", "box.x_max - box.x_min + 2 * margin")),
    row("replay", "witness key signed", TABLE_IN_INTEGERS,
        ("key = (abs(y), x, y)", "key = (y, x, y)")),
    row("scalar", "sign tie read as less", EXACT_ORDER,
        ("return (a > 0) - (a < 0)", "return (a > 0) - (a <= 0)")),
    row("scalar", "floor of a negative root", QUAD_KERNEL, ("-root - 1", "-root")),
    row("bounds", "delta term over 2", INTEGER_BOUNDS,
        ("4 * x.denominator * sn", "2 * x.denominator * sn")),
    row("bounds", "minimum reversed", BOUND_KERNEL,
        ("_sign(dn * tq - dd * ta, -dd * tb, m) > 0", "_sign(dn * tq - dd * ta, -dd * tb, m) < 0")),
    row("bounds", "clamp flipped", BOUND_KERNEL,
        ("if _sign(a, b, m) < 0:", "if _sign(a, b, m) > 0:")),
    # the one verdict, which restrict --c2 and certify_restriction_stable share
    row("bounds", "verdict certifies at the threshold", CERTIFY_CORE,
        ("_rational_cmp(c2, 1, threshold) < 0", "_rational_cmp(c2, 1, threshold) <= 0")),
    # the one interval check of the three bound entry points
    row("bounds", "interval type unchecked", ONE_ORACLE,
        ("if interval is not None and not isinstance(interval, SeshadriInterval):",
         "if False:"), tests=("tests/test_exact_inputs.py",)),
    row("seshadri", "s_N test drops its denominator", CERTIFY_CORE,
        ("c.deg_n * s_n.denominator", "c.deg_n")),
    row("seshadri", "lower pick takes the last tie", TABLE_IN_INTEGERS,
        ("if v.numerator * q > p * v.denominator:", "if v.numerator * q >= p * v.denominator:")),
    row("seshadri", "upper pick keeps the larger candidate", ONE_PATH,
        (UPPER_PICK, UPPER_PICK.replace("< 0", "> 0"))),
    # each bound's declaration names its error
    row("bounds", "threshold raises NonpositiveEta", ONE_PATH,
        ('_THRESHOLD = _spec("gamma", NonpositiveGamma,',
         '_THRESHOLD = _spec("gamma", NonpositiveEta,')),
    # json converts an integer literal of any length; the fields read
    # later cap it with their own message
    row("catalog", "no digit cap in the JSON decoder", DIGIT_CAP,
        ("json.JSONDecoder(parse_int=parse_int)", "json.JSONDecoder()")),
    row("catalog", "missing integer field unchecked", REACH,
        ("-> int:\n    if key not in obj:\n", "-> int:\n    if False:\n")),
    # a RecursionError that leaves the loader in place of a ParseError
    row("catalog", "no nesting guard", RENDER_ON_READ,
        ("    except RecursionError:\n", "    except ZeroDivisionError:\n")),
    row("_record", "doubled argument accepted", RECORDS,
        ("\n                        or not kwargs.keys().isdisjoint(names[:len(args)])):",
         "):"), tests=("tests/test_record.py",)),
    row("_record", "equal to another record class", RECORDS,
        ("if other.__class__ is self.__class__:",
         "if hasattr(other, \"__record_fields__\"):"), tests=("tests/test_record.py",)),
    row("cli", "restrict --strict exits 0", ONE_PAYLOAD,
        ("1 if args.strict and not result.certified else 0", "0")),
    row("cli", "closed pipe returns the command's code", INTEGER_CLASSES,
        ("return EXIT_CLOSED_PIPE", "return code")),
    # the JSON hook's record branch then shows kind, params and note
    row("cli", "evidence as a plain record", ONE_PATH,
        ("    if isinstance(v, Evidence):\n        return evidence_to_json(v)\n", "")),
    # combine's genus gate, the sign of blowup's one lambda formula;
    # ci-5-2's lower end 1/5 has lambda = 0
    row("seshadri", "genus test strict", ONE_GATE,
        ("_lambda_num(c, p, q) < 0", "_lambda_num(c, p, q) <= 0")),
    row("blowup", "lambda sign flip", ONE_GATE,
        ("- p * q * c.deg_n", "+ p * q * c.deg_n")),
    # build_system still gates each parameter's eta, so only a range that
    # builds no system, or one that ends before a bad eta is seen, tells
    row("replay", "sweep without its eta gate", ONE_GATE,
        ("    _check_margin(margin)\n    eta = _eta_gate(curve, eta)\n",
         "    _check_margin(margin)\n")),
    row("bounds", "stable flag read by truthiness", ONE_GATE,
        ("        if not isinstance(stable, bool):\n", "        if False:\n")),
]

_SQUARE_TIE = "a^2 = b^2*m is impossible for a square-free m >= 2"
EQUIVALENT = [
    Equivalent("sign square tie, b > 0", "src/curvebounds/scalar.py",
               (("a >= 0 or b * b * m > a * a", "a >= 0 or b * b * m >= a * a"),),
               _SQUARE_TIE),
    Equivalent("sign square tie, b < 0", "src/curvebounds/scalar.py",
               (("a <= 0 or b * b * m > a * a", "a <= 0 or b * b * m >= a * a"),),
               _SQUARE_TIE),
    Equivalent("sign at a = 0, b > 0", "src/curvebounds/scalar.py",
               (("a >= 0 or b * b * m", "a > 0 or b * b * m"),),
               "at a = 0 the square test b^2*m > 0 gives 1 as well"),
    Equivalent("upper pick takes the last tie", "src/curvebounds/seshadri.py",
               ((UPPER_PICK, UPPER_PICK.replace("< 0", "<= 0")),),
               "an equal candidate gives the same canonical value, and upper_witness "
               "re-derives the first equal candidate from the trace"),
    Equivalent("witness key tie", "src/curvebounds/replay.py",
               (("key < best", "key <= best"),),
               "two points never share the key (|y|, x, y), so no tie reaches the test"),
]


def mutated(m: Mutant | Equivalent, text: str) -> str:
    """``text`` with the row's edits applied in order; ValueError unless
    each old text occurs exactly once when its edit is applied."""
    for old, new in m.edits:
        if text.count(old) != 1:
            raise ValueError(f"{m.name}: {old!r} occurs {text.count(old)} times in {m.file}")
        text = text.replace(old, new)
    return text


def run_row(m: Mutant) -> tuple[str, float]:
    """("killed" | "survived" | "error", seconds) for one row."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        os.mkdir(os.path.join(tmp, "perfbench"))
        shutil.copy(os.path.join(ROOT, "perfbench", "exact.py"),
                    os.path.join(tmp, "perfbench"))
        shutil.copy(os.path.join(ROOT, "README.md"), tmp)
        path = os.path.join(tmp, m.file)
        with open(path, encoding="utf-8") as fh:
            text = mutated(m, fh.read())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *m.tests],
                              cwd=tmp, env=env, capture_output=True).returncode
    # pytest exits 1 when a test failed; any other failure is not a kill
    verdict = {0: "survived", 1: "killed"}.get(code, "error")
    return verdict, time.perf_counter() - start


def main() -> int:
    verdicts = []
    for m in MUTANTS:
        verdict, seconds = run_row(m)
        verdicts.append(verdict)
        print(f"{verdict:8s} {seconds:6.1f}s {m.name}", flush=True)
    print(f"{verdicts.count('killed')} of {len(MUTANTS)} killed")
    return 0 if verdicts.count("killed") == len(MUTANTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
