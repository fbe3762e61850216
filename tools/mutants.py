"""Run the mutant table: small deliberate faults that the named tests
must catch.  Stdlib only (the tests it runs need pytest).

Usage: python tools/mutants.py

Each row of ``MUTANTS`` names a file under ``src/``, its edits (an
exact old text that occurs once in the file and the new text that
replaces it; a moved line takes two), the tests to run and the
CHANGES.md entry whose code or tests it checks (the start of that
entry's line).  For each row, the tool copies ``src/`` and ``tests/``
to a temporary directory, applies the row there and runs
``python -m pytest -x -q`` on the row's tests.  It prints one
"<killed|survived|error> <seconds>s <name>" line per row and exits 1
if any row survived or could not be run: a surviving row is a gap in
the tests, to be reported, not deleted.
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


def blowup(name: str, source: str, *edits: tuple[str, str]) -> Mutant:
    """A row on blowup.py, run against its tests."""
    return Mutant(name, "src/curvebounds/blowup.py", edits, ("tests/test_blowup.py",), source)


MUTANTS = [
    blowup("kernel he sign", INTEGER_NUMERATORS, ("hh - c.d * he", "hh + c.d * he")),
    blowup("kernel he term", INTEGER_NUMERATORS, ("y1 * y2 * x3", "y1 * y2 * x2")),
    blowup("kernel denominator", INTEGER_CLASSES, ("q1 * q2 * q3", "q1 * q2")),
    blowup("triple denominator", INTEGER_CLASSES, ("xq * yq", "xq * xq")),
    blowup("triple X and Y swapped", INTEGER_CLASSES,
           ("(xn * yq, yn * xq, xq * yq)", "(yn * xq, xn * yq, xq * yq)")),
    blowup("deg_N constant", "- Certify P³ only",
           ("4 * self.d + 2 * self.g - 2", "4 * self.d + 2 * self.g - 1")),
    blowup("scan lambda sign", INTEGER_SCAN,
           ("- ln * (y * y - y) * sded", "+ ln * (y * y - y) * sded")),
    blowup("scan ld dropped", INTEGER_SCAN, ("* sded * ld", "* sded")),
    blowup("scan eta*d unscaled", INTEGER_SCAN, ("(sn * ed - en * sd)", "(sn * ed - en)")),
    blowup("scan range reversed", "- Cheaper slope-identity classes",
           ("range(-bound, bound + 1)", "range(bound, -bound - 1, -1)")),
    blowup("class weight 5", INTEGER_NUMERATORS,
           ("\n_CLASS_POINTS = 6\n", "\n_CLASS_POINTS = 5\n")),
    # s = x + y*eta*d worked out by the scan, not by the kernel
    blowup("scan s in closed form", SHARED_KERNEL,
           ("sn, sd = _top_ratio(c, (dcls, heta, H))", "sn, sd = x * ed + y * en, ed")),
    blowup("scan cap after its loop", SHARED_KERNEL,
           (SCAN_CAP, ""), (SCAN_RETURN, SCAN_CAP + SCAN_RETURN)),
]


def mutated(m: Mutant, text: str) -> str:
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
