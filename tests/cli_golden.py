"""Golden CLI transcripts: every catalog curve under every command form,
in text and JSON, run in-process through ``cli.main``.

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


def cases() -> list[tuple[str, list[str]]]:
    """Every (label, argv) of the golden set: catalog curve x command x
    {text, JSON}; the label names the curve in place of its descriptor."""
    out = []
    for desc in standard_catalog():
        text = json.dumps(serialize_descriptor(desc), sort_keys=True)
        for command in COMMANDS:
            verb = list(command[:2]) if command[0] == "verify" else [command[0]]
            argv = verb + [text] + list(command[len(verb):])
            label = " ".join([desc.name, *command])
            out.append((label, argv))
            out.append((label + " --json", argv + ["--json"]))
    return out


def transcript(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    blob = json.dumps([code, out, err]).encode()
    return hashlib.sha256(blob).hexdigest()


def record() -> dict[str, str]:
    return {label: digest(*transcript(argv)) for label, argv in cases()}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
