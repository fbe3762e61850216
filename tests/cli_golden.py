"""Golden CLI transcripts: every catalog curve under every command form,
in text and JSON, plus the help texts and usage errors of the parser,
run in-process through ``cli.main``.

Each transcript (exit code, stdout, stderr) is stored as one SHA-256
digest in ``cli_golden.json`` next to this file; ``test_cli_golden.py``
recomputes them.  Re-record only for a deliberate output change:

    PYTHONPATH=src python tests/cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from curvebounds.catalog import serialize_descriptor, standard_catalog
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
    descriptor; then -h at every level and the usage errors."""
    out = []
    catalog = standard_catalog()
    for desc in catalog:
        text = json.dumps(serialize_descriptor(desc), sort_keys=True)
        for command in COMMANDS:
            verb = list(command[:2]) if command[0] == "verify" else [command[0]]
            argv = verb + [text] + list(command[len(verb):])
            label = " ".join([desc.name, *command])
            out.append((label, argv))
            out.append((label + " --json", argv + ["--json"]))
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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
