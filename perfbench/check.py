"""Output checks.

``CHECK[workload]`` is reference-free and holds for any seed: every value the
benchmark can recompute on its own (eta, delta, lambda, both ceilings,
replay boxes, parameter ranges) must match, every replay just below a
bound ceiling must be empty, every sweep frontier must sit at or above
the matching ceiling, and the slope identity must have no violations.

``digest`` condenses an op's work sizes and exact-value record; the
digests of the default seed's first ops, recorded at the seed commit in
``reference.json``, pin every exact value and every work size, so that
a changed value or a smaller box, range or margin fails the check.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

import exact
import gen
from workloads import canon

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_bound(rec: dict, value: str, ceiling: str,
                 expected: int, label: str) -> None:
    expect(exact.ceil_exact(rec[value]) == rec[ceiling],
           f"{label} ceiling {rec[ceiling]} != ceil({canon(rec[value])})")
    expect(rec[ceiling] == expected,
           f"{label} ceiling {rec[ceiling]} != independent {expected}")


def _check_replay(rec: dict, box, margin: int) -> None:
    expect(rec["box"] == list(box), f"box {rec['box']} != expected {list(box)}")
    expect(rec["margin"] == margin, f"margin {rec['margin']} != {margin}")
    expect(rec["empty"] is True and rec["witness"] is None,
           f"replay below the bound found witness {rec['witness']}")


def check_desk(op: dict, rec: dict) -> None:
    curve = op["curve"]
    if not op["json"]:
        return
    command = op["command"]
    if command == "invariants":
        expect((rec["d"], rec["g"]) == (curve.d, curve.g), "d, g differ")
        expect(rec["deg_n"] == exact.deg_n(curve.d, curve.g), "deg_N differs")
        expect(rec["eta"] == curve.eta, f"eta {rec['eta']} != {curve.eta}")
        delta = curve.eta * rec["deg_n"] - curve.d
        expect(rec["delta"] == delta, f"delta {rec['delta']} != {delta}")
        lam = (curve.eta * curve.d) ** 2 - delta
        expect(rec["lambda"] == lam, f"lambda {rec['lambda']} != {lam}")
    elif command == "seshadri":
        expect(rec["lower"] == curve.eta, f"eps lower {rec['lower']} != {curve.eta}")
    elif command == "gonality":
        expect(rec["eta"] == curve.eta, f"eta {rec['eta']} != {curve.eta}")
        _check_bound(rec, "value", "ceiling", curve.gon_ceiling, "gonality")
    elif command == "restrict":
        _check_bound(rec, "value", "ceiling", curve.res_ceiling, "threshold")
        expect(rec["c2"] == op["c2"], "c2 differs")
        expect(rec["below"] == (op["c2"] < rec["ceiling"]),
               f"verdict at c2 = {op['c2']} disagrees with the threshold")
    else:
        _check_replay(rec, op["box"], 0)


def check_table(op: dict, rec: dict) -> None:
    curve = op["curve"]
    expect((rec["d"], rec["g"]) == (curve.d, curve.g), "d, g differ")
    expect(rec["lower"] == curve.eta, f"eps lower {rec['lower']} != {curve.eta}")
    _check_bound(rec, "gon", "gon_ceiling", curve.gon_ceiling, "gonality")
    _check_bound(rec, "thr", "thr_ceiling", curve.res_ceiling, "threshold")
    expect([c2 for c2, _ in rec["below"]] == op["c2"], "c2 values differ")
    for c2, is_below in rec["below"]:
        expect(is_below == (c2 < rec["thr_ceiling"]),
               f"verdict at c2 = {c2} disagrees with the threshold")


def check_sweep(op: dict, rec: dict) -> None:
    curve = op["curve"]
    expect(rec["eta"] == curve.eta, f"eta {rec['eta']} != {curve.eta}")
    expect(rec["mode"] == op["mode"], "mode differs")
    params = [p for p, _, _ in rec["entries"]]
    expect(params == list(range(op["start"], op["stop"] + 1)),
           f"swept {params[:1]}..{params[-1:]} instead of "
           f"[{op['start']}, {op['stop']}]")
    filled = [p for p, empty, _ in rec["entries"] if not empty]
    expect(rec["frontier"] == (filled[0] if filled else None),
           "frontier is not the first feasible parameter")
    ceiling = curve.gon_ceiling if op["mode"] == "gonality" else curve.res_ceiling
    expect(rec["frontier"] is None or rec["frontier"] >= ceiling,
           f"frontier {rec['frontier']} below the ceiling {ceiling}")


def check_verify(op: dict, rec: dict) -> None:
    expect(len(rec["replays"]) == len(op["replays"]), "replay count differs")
    for got, want in zip(rec["replays"], op["replays"]):
        _check_replay(got, want["box"], want["margin"])
    expect(rec["identity"]["range"] == op["identity"]["range"], "range differs")
    expect(rec["identity"]["violations"] == 0,
           f"{rec['identity']['violations']} slope identity violations")


CHECK = {"desk": check_desk, "table": check_table, "sweep": check_sweep,
         "verify": check_verify}


def _plain(v):
    """JSON form of a record: records keep sequences as lists, so a
    tuple is always an (a, b, m) value."""
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_plain(x) for x in v]
    if isinstance(v, (tuple, Fraction)):
        return canon(v)
    return v


def digest(workload: str, op: dict, rec: dict) -> str:
    doc = {"sizes": gen.op_sizes(workload, op), "record": _plain(rec)}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def block_digest(workload: str, ops, records) -> str:
    """Digest of a block of ops, as stored in reference.json."""
    digests = "".join(digest(workload, op, rec) for op, rec in zip(ops, records))
    return hashlib.sha256(digests.encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
