"""Golden CLI transcripts: every catalog curve under every command form,
in text and JSON, plus the help texts and usage errors of the parser,
run in-process through ``cli.main``.

Each transcript (exit code, stdout, stderr) is stored as one SHA-256
digest in ``cli_golden.json`` next to this file; ``test_cli_golden.py``
recomputes them.  Re-record only for a deliberate output change:

    PYTHONPATH=src python tests/cli_golden.py

which prints the labels it adds, removes or changes before it writes,
so that the scope of a re-record shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from curvebounds.catalog import (
    load_descriptor,
    serialize_descriptor,
    standard_catalog,
)
from curvebounds.cli import main

DIGESTS = Path(__file__).with_name("cli_golden.json")

COMMANDS = (
    ("invariants",),
    ("seshadri",),
    ("gonality",),
    ("restrict",),
    ("restrict", "--c2", "0", "--strict"),
    ("verify", "identity-sl", "--range", "3"),
    ("verify", "replay-gonality", "--k", "0"),
    ("verify", "replay-restriction", "--c2", "0"),
    ("verify", "sweep", "--mode", "gonality", "--start", "0", "--stop", "3"),
    ("verify", "sweep", "--mode", "restriction", "--start", "0", "--stop", "3",
     "--box-margin", "2"),
)

# the branches the catalog-wide forms miss, run on ci-5-2 and on a
# linked-line descriptor whose genus override draws a warning (stderr in
# text, "warnings" in JSON): explicit eta/gamma inside and outside the
# point interval 1/5, --strict exits, replay witnesses, and errors
# raised after the descriptor has loaded
EXTRA_CURVES = (
    '{"kind":{"complete_intersection":{"a":5,"b":2}}}',
    '{"kind":{"linked_line":{"a":5,"b":2,"g":3}}}',
)
EXTRA_COMMANDS = (
    ("invariants", "--eta", "1/5"),
    ("gonality", "--eta", "1/5"),
    ("gonality", "--eta", "1/4"),
    ("gonality", "--eta", "0"),
    ("restrict", "--gamma", "1/5"),
    ("restrict", "--c2", "50", "--strict"),
    ("verify", "identity-sl", "--range", "2", "--eta", "1/5"),
    ("verify", "replay-gonality", "--k", "40"),
    ("verify", "replay-gonality", "--k", "40", "--strict"),
    ("verify", "replay-gonality", "--k", "40", "--box-margin", "1"),
    ("verify", "replay-restriction", "--c2", "30", "--l-min", "1"),
    ("verify", "replay-restriction", "--c2", "30", "--l-min", "1", "--strict"),
    ("verify", "replay-restriction", "--c2", "30", "--l-min", "1",
     "--box-margin", "1"),
    ("verify", "sweep", "--mode", "gonality", "--start", "0", "--stop", "3",
     "--eta", "1/5"),
    ("verify", "sweep", "--mode", "restriction", "--start", "0", "--stop", "3",
     "--gamma", "1/5"),
    ("verify", "sweep", "--mode", "gonality", "--start", "3", "--stop", "0"),
)
# every surface-restrict variant in both outcomes, --strict, and the two
# error exits (c2 = 1 under Barth, a missing degree)
SURFACE = (
    ("--variant", "barth", "--c2", "2", "--a", "5"),
    ("--variant", "barth", "--c2", "2", "--a", "4"),
    ("--variant", "barth", "--c2", "2", "--a", "4", "--strict"),
    ("--variant", "c2plus2", "--c2", "2", "--b", "4"),
    ("--variant", "c2plus2", "--c2", "3", "--b", "4"),
    ("--variant", "c2plus2", "--c2", "3", "--b", "4", "--strict"),
    ("--variant", "ci_curve", "--c2", "1", "--a", "10", "--b", "3"),
    ("--variant", "ci_curve", "--c2", "2", "--a", "10", "--b", "3"),
    ("--variant", "ci_curve", "--c2", "2", "--a", "10", "--b", "3", "--strict"),
    ("--variant", "barth", "--c2", "1", "--a", "9"),
    ("--variant", "ci_curve", "--c2", "2", "--a", "10"),
)


LEAVES = (
    ("invariants",),
    ("seshadri",),
    ("gonality",),
    ("restrict",),
    ("surface-restrict",),
    ("verify", "identity-sl"),
    ("verify", "replay-gonality"),
    ("verify", "replay-restriction"),
    ("verify", "sweep"),
)

# argparse exits through SystemExit: -h with 0, a usage error with 2;
# DESC stands for a catalog descriptor in the label
USAGE = (
    ("(no arguments)", []),
    ("frobnicate", ["frobnicate"]),
    ("verify", ["verify"]),
    ("verify frobnicate", ["verify", "frobnicate"]),
    ("gonality (no descriptor)", ["gonality"]),
    ("verify replay-gonality DESC (no --k)", ["verify", "replay-gonality", "DESC"]),
    ("restrict DESC --c2 x", ["restrict", "DESC", "--c2", "x"]),
    ("gonality DESC --eta 0.2", ["gonality", "DESC", "--eta", "0.2"]),
    ("gonality DESC --eta x", ["gonality", "DESC", "--eta", "x"]),
    ("gonality DESC --bogus", ["gonality", "DESC", "--bogus"]),
    ("verify sweep DESC --mode gonality --start 0 --stop 1 --bogus",
     ["verify", "sweep", "DESC", "--mode", "gonality", "--start", "0",
      "--stop", "1", "--bogus"]),
    ("verify sweep DESC --mode frobnicate", ["verify", "sweep", "DESC", "--mode",
                                             "frobnicate", "--start", "0",
                                             "--stop", "1"]),
    ("surface-restrict --variant frobnicate --c2 1",
     ["surface-restrict", "--variant", "frobnicate", "--c2", "1"]),
    ("surface-restrict --c2 1 (no --variant)", ["surface-restrict", "--c2", "1"]),
)


def cases() -> list[tuple[str, list[str]]]:
    """Every (label, argv) of the golden set: catalog curve x command x
    {text, JSON}, where the label names the curve in place of its
    descriptor; the extra forms on ci-5-2 and ll-5-2-3 (which also runs
    every catalog form, being outside the catalog) and the surface
    criteria, each in text and JSON; then -h at every level and the
    usage errors."""
    out = []

    def both(label: str, argv: list[str]) -> None:
        out.append((label, argv))
        out.append((label + " --json", argv + ["--json"]))

    def curve_forms(name: str, text: str, commands: tuple) -> None:
        for command in commands:
            verb = list(command[:2]) if command[0] == "verify" else [command[0]]
            both(" ".join([name, *command]),
                 verb + [text] + list(command[len(verb):]))

    catalog = standard_catalog()
    for desc in catalog:
        text = json.dumps(serialize_descriptor(desc), sort_keys=True)
        curve_forms(desc.name, text, COMMANDS)
    names = {desc.name for desc in catalog}
    for text in EXTRA_CURVES:
        name = load_descriptor(text).name
        curve_forms(name, text,
                    EXTRA_COMMANDS + (() if name in names else COMMANDS))
    for args in SURFACE:
        both(" ".join(["surface-restrict", *args]),
             ["surface-restrict", *args])
    out.append(("-h", ["-h"]))
    out.append(("verify -h", ["verify", "-h"]))
    for leaf in LEAVES:
        out.append((" ".join([*leaf, "-h"]), [*leaf, "-h"]))
    text = json.dumps(serialize_descriptor(catalog[0]), sort_keys=True)
    for label, argv in USAGE:
        out.append((label, [text if a == "DESC" else a for a in argv]))
    return out


def transcript(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one call; argparse wraps help and
    usage to the terminal width, so COLUMNS is pinned to 80."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    blob = json.dumps([code, out, err]).encode()
    return hashlib.sha256(blob).hexdigest()


def record() -> dict[str, str]:
    return {label: digest(*transcript(argv)) for label, argv in cases()}


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per label added, removed or changed from old to new."""
    changed = {label for label in old.keys() & new.keys()
               if old[label] != new[label]}
    return [f"{verb}: {label}"
            for verb, labels in (("added", new.keys() - old.keys()),
                                 ("removed", old.keys() - new.keys()),
                                 ("changed", changed))
            for label in sorted(labels)]


if __name__ == "__main__":
    new = record()
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for line in changes(old, new):
        print(line)
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
