"""How each workload drives curvebounds, and what it reads back.

``execute`` runs one op the way a user would (cold CLI process, library
calls, or an in-process ``cli.main``) and is the only timed part.
``extract`` turns its raw output into a record of exact-value fields
only: exact values, ceilings, interval endpoints, empty/witness,
frontiers, box bounds and the identity violation count.  Text, traces,
notes and ``checked`` are never read, so a change of wording, a new
discrepancy code or a new verdict name does not register as a failure.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

CLI_TIMEOUT_S = 60


class OpFailed(Exception):
    """An op exited with an unexpected code or produced unreadable output."""


def exact_value(v):
    """An exact value from a JSON payload: int, "p/q", {"exact": ...},
    or {"a", "b", "m"}.  Returns a Fraction or an (a, b, m) triple."""
    if isinstance(v, dict) and "exact" in v:
        v = v["exact"]
    if isinstance(v, dict):
        a, b, m = Fraction(v["a"]), Fraction(v["b"]), int(v["m"])
        return a if b == 0 else (a, b, m)
    if isinstance(v, bool):
        raise OpFailed(f"expected an exact value, got {v!r}")
    return Fraction(v)


def quad_value(q):
    """An exact value from a library QuadNumber."""
    return q.a if q.b == 0 else (q.a, q.b, q.m)


def canon(v) -> str:
    if isinstance(v, tuple):
        a, b, m = v
        return f"{a}+{b}*sqrt({m})"
    return str(v)


def below(verdict: str) -> bool:
    """True when a restriction verdict says c2 is below the threshold;
    every verdict but "inconclusive" (certified, or a conditional form)
    says so."""
    return verdict != "inconclusive"


# -- desk: one cold CLI process per op -----------------------------------


def run_cli_process(argv: list[str], prefix: list[str]):
    proc = subprocess.run([sys.executable, *prefix, *argv],
                          capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def extract_desk(op: dict, raw) -> dict:
    code, out = raw[0], raw[1]
    if code != 0:
        raise OpFailed(f"exit code {code}")
    if not op["json"]:
        if not out.strip():
            raise OpFailed("empty output")
        return {"exit": code}
    doc = json.loads(out)
    command = op["command"]
    if command == "invariants":
        curve = doc["curve"]
        return {"d": curve["d"], "g": curve["g"], "deg_n": curve["deg_n"],
                "eta": exact_value(doc["eta"]),
                "delta": exact_value(doc["delta_eta"]),
                "lambda": exact_value(doc["lambda_eta"])}
    if command == "seshadri":
        iv = doc["interval"]
        return {"lower": exact_value(iv["lower"]),
                "upper": exact_value(iv["upper"])}
    if command in ("gonality", "restrict"):
        rep = doc["report"]
        rec = {"value": exact_value(rep["value"]),
               "ceiling": rep["value_ceiling"]}
        if command == "gonality":
            rec["eta"] = exact_value(rep["inputs"]["eta"])
        else:
            rec["c2"] = doc["c2"]
            rec["below"] = below(doc["verdict"])
        return rec
    return replay_record(doc)


def replay_record(doc: dict) -> dict:
    box = doc["box"]
    return {"box": box["x"] + box["y"], "margin": box["margin"],
            "empty": doc["empty"],
            "witness": doc["witness"]}


# -- table: library calls ------------------------------------------------


def execute_table(cb, op: dict):
    desc = cb.catalog.load_descriptor(op["curve"].descriptor)
    interval = cb.seshadri.combine(desc.curve, list(desc.evidence))
    eta = interval.lower
    gon = cb.bounds.gonality_bound(desc.curve, eta, interval)
    thr = cb.bounds.restriction_threshold(desc.curve, eta, interval)
    certs = [cb.bounds.certify_restriction_stable(desc.curve, eta, c2, interval)
             for c2 in op["c2"]]
    return desc, interval, gon, thr, certs


def extract_table(op: dict, raw) -> dict:
    desc, interval, gon, thr, certs = raw
    return {"d": desc.curve.d, "g": desc.curve.g,
            "lower": interval.lower, "upper": quad_value(interval.upper),
            "gon": quad_value(gon.value), "gon_ceiling": gon.value_ceiling,
            "thr": quad_value(thr.value), "thr_ceiling": thr.value_ceiling,
            "below": [[c.c2, below(c.verdict)] for c in certs]}


# -- sweep and verify: in-process cli.main -------------------------------


def call_main(cb, argv: list[str]):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cb.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def execute_sweep(cb, op: dict):
    return call_main(cb, op["argv"])


def extract_sweep(op: dict, raw) -> dict:
    code, out = raw
    if code != 0:
        raise OpFailed(f"exit code {code}")
    doc = json.loads(out)
    param = "k" if doc["mode"] == "gonality" else "c2"
    return {"eta": exact_value(doc["eta"]), "mode": doc["mode"],
            "entries": [[e[param], e["empty"], e["witness"]]
                        for e in doc["entries"]],
            "frontier": doc["frontier"]}


def execute_verify(cb, op: dict):
    return ([call_main(cb, r["argv"]) for r in op["replays"]],
            call_main(cb, op["identity"]["argv"]))


def extract_verify(op: dict, raw) -> dict:
    replays, identity = raw
    for code, _ in replays + [identity]:
        if code != 0:
            raise OpFailed(f"exit code {code}")
    doc = json.loads(identity[1])
    return {"replays": [replay_record(json.loads(out)) for _, out in replays],
            "identity": {"range": doc["range"],
                         "violations": len(doc["violations"])}}


EXTRACT = {"desk": extract_desk, "table": extract_table,
           "sweep": extract_sweep, "verify": extract_verify}
