"""Command-line interface: exact invariants, Seshadri intervals,
gonality bounds, restriction-stability thresholds, and the brute-force
verification commands, over curve-descriptor JSON files.

Exit codes: 0 success; 1 inconsistent input, a failed verification, or
an inconclusive verdict under --strict; 2 malformed descriptors or
arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Optional

from . import _record
from .blowup import delta_eta, lambda_eta
# private alias: perfbench's tracer wraps public names only, so the scan
# loop stays charged to the command that runs it and blowup's per-class
# time keeps measuring the triple products
from .blowup import slope_identity_scan as _slope_identity_scan
from .bounds import (
    BoundReport,
    Discrepancy,
    certify_restriction_stable,
    gonality_bound,
    linked_line_claim_gap,
    restriction_threshold,
    surface_restriction_checks,
)
from .catalog import CurveDescriptor, evidence_to_json, load_descriptor
from .errors import CurveBoundsError, ParseError
from .replay import (
    GonalityMode,
    RestrictionMode,
    build_system,
    region_empty,
    sweep,
)
from .scalar import (
    QuadNumber,
    decimal_str,
    format_rational,
    parse_rational,
    quad_to_json,
)
from .seshadri import SeshadriInterval, combine

SCHEMA = 1


def _rational_arg(text: str) -> Fraction:
    value = parse_rational(text)  # ValueError -> argparse usage error (exit 2)
    return value


def _exact_json(v: Any) -> Any:
    if isinstance(v, QuadNumber):
        if v.is_rational:
            # rational values collapse to the "p/q" form; an object with
            # keys a/b/m in "exact" always means an irrational value
            v = v.as_rational()
        else:
            return {"exact": quad_to_json(v), "decimal": decimal_str(v)}
    if isinstance(v, bool) or isinstance(v, str):
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return {"exact": format_rational(v), "decimal": decimal_str(v)}
    return v


def _show(v: Any) -> str:
    """Human rendering: exact value, with a decimal preview when it is
    not already plain."""
    if isinstance(v, QuadNumber) and not v.is_rational:
        return f"{v} (~ {decimal_str(v)})"
    if isinstance(v, QuadNumber):
        return format_rational(v.as_rational())
    if isinstance(v, Fraction):
        return format_rational(v)
    return str(v)


def _disc_json(disc: Discrepancy) -> dict:
    return {"code": disc.code, "message": disc.message,
            "data": {k: _exact_json(v) for k, v in disc.data.items()}}


def _report_json(report: BoundReport) -> dict:
    return {
        "inputs": {k: _exact_json(v) for k, v in report.inputs.items()},
        "alpha": _exact_json(report.alpha),
        "term_delta": _exact_json(report.term_delta),
        "term_alpha": _exact_json(report.term_alpha),
        "value": _exact_json(report.value),
        "value_ceiling": report.value_ceiling,
        "trace": list(report.trace),
        "discrepancies": [_disc_json(d) for d in report.discrepancies],
    }


def _interval_json(iv: SeshadriInterval) -> dict:
    return {
        "lower": _exact_json(iv.lower),
        "upper": _exact_json(iv.upper),
        "lower_trace": [{"evidence": evidence_to_json(e), "bound": _exact_json(v)}
                        for e, v in iv.lower_trace],
        "upper_trace": [{"evidence": evidence_to_json(e), "bound": _exact_json(v)}
                        for e, v in iv.upper_trace],
        "notes": list(iv.notes),
    }


def _descriptor_json(desc: CurveDescriptor) -> dict:
    return {
        "name": desc.name,
        "kind": desc.kind,
        "params": dict(desc.params),
        "d": desc.curve.d,
        "g": desc.curve.g,
        "deg_n": desc.curve.deg_n,
        "warnings": list(desc.warnings),
    }


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _load(args: argparse.Namespace) -> CurveDescriptor:
    desc = load_descriptor(args.descriptor)
    if not args.json:
        for w in desc.warnings:
            print(f"warning: {w}", file=sys.stderr)
    return desc


def _interval(desc: CurveDescriptor) -> SeshadriInterval:
    return combine(desc.curve, list(desc.evidence))


def _pick_eta(args: argparse.Namespace, desc: CurveDescriptor,
              flag: str) -> tuple[Fraction, SeshadriInterval, Optional[str]]:
    """The requested eta/gamma, or the certified interval lower bound as
    default; returns (value, interval, default-note-or-None)."""
    interval = _interval(desc)
    requested = getattr(args, flag)
    if requested is not None:
        return requested, interval, None
    note = (f"{flag} defaulted to the certified Seshadri lower bound "
            f"{interval.lower}")
    if flag == "gamma":
        note += ("; the stability constant of a specific bundle may be "
                 "smaller, so pass --gamma from surface evidence for a "
                 "certified verdict")
    return interval.lower, interval, note


def cmd_invariants(args: argparse.Namespace) -> int:
    desc = _load(args)
    eta, interval, note = _pick_eta(args, desc, "eta")
    c = desc.curve
    delta = delta_eta(c, eta)
    lam = lambda_eta(c, eta)
    payload = {
        "schema": SCHEMA,
        "command": "invariants",
        "curve": _descriptor_json(desc),
        "eta": _exact_json(eta),
        "delta_eta": _exact_json(delta),
        "lambda_eta": _exact_json(lam),
        "notes": [note] if note else [],
    }
    lines = [
        f"{desc.name} ({desc.kind}: "
        + ", ".join(f"{k}={v}" for k, v in desc.params.items()) + ")",
        f"  d = {c.d}",
        f"  g = {c.g}",
        f"  deg_N = {c.deg_n}",
        f"  eta = {_show(eta)}" + ("  [certified lower bound]" if note else ""),
        f"  delta_eta = {_show(delta)}",
        f"  lambda_eta = {_show(lam)}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_seshadri(args: argparse.Namespace) -> int:
    desc = _load(args)
    iv = _interval(desc)
    payload = {
        "schema": SCHEMA,
        "command": "seshadri",
        "curve": _descriptor_json(desc),
        "interval": _interval_json(iv),
    }
    lines = [f"seshadri interval for {desc.name}: "
             f"{_show(iv.lower)} <= eps <= {_show(iv.upper)}"
             + ("  (point: eps known exactly)" if iv.is_point else "")]
    lines.append(f"  lower certified by {iv.lower_witness}")
    lines.append(f"  upper certified by {iv.upper_witness}")
    lines.append("  lower candidates:")
    for e, v in iv.lower_trace:
        lines.append(f"    {_show(v)}  from {e}")
    lines.append("  upper candidates:")
    for e, v in iv.upper_trace:
        lines.append(f"    {_show(v)}  from {e}")
    for n in iv.notes:
        lines.append(f"  note: {n}")
    _emit(args, payload, lines)
    return 0


def cmd_gonality(args: argparse.Namespace) -> int:
    desc = _load(args)
    eta, interval, note = _pick_eta(args, desc, "eta")
    report = gonality_bound(desc.curve, eta, interval)
    if desc.kind == "linked_line":
        gap = linked_line_claim_gap(desc.params["a"], desc.params["b"])
        if gap is not None:
            report = _record.replace(
                report, discrepancies=report.discrepancies + (gap,))
    payload = {
        "schema": SCHEMA,
        "command": "gonality",
        "curve": _descriptor_json(desc),
        "report": _report_json(report),
        "notes": [note] if note else [],
    }
    lines = [f"gonality bound for {desc.name} at eta = {_show(eta)}"]
    if note:
        lines.append(f"  note: {note}")
    lines.extend(f"  {t}" for t in report.trace)
    lines.append(f"  gon >= {_show(report.value)}; as an integer bound, "
                 f"gon >= {report.value_ceiling}")
    for disc in report.discrepancies:
        lines.append(f"  warning[{disc.code}]: {disc.message}")
    _emit(args, payload, lines)
    return 0


def cmd_restrict(args: argparse.Namespace) -> int:
    desc = _load(args)
    gamma, interval, note = _pick_eta(args, desc, "gamma")
    verdict: Optional[str] = None
    reason = ""
    if args.c2 is not None:
        result = certify_restriction_stable(desc.curve, gamma, args.c2, interval)
        report = result.report
        verdict, reason = result.verdict, result.reason
    else:
        report = restriction_threshold(desc.curve, gamma, interval)
    payload = {
        "schema": SCHEMA,
        "command": "restrict",
        "curve": _descriptor_json(desc),
        "report": _report_json(report),
        "notes": [note] if note else [],
    }
    lines = [f"restriction threshold for {desc.name} at gamma = {_show(gamma)}"]
    if note:
        lines.append(f"  note: {note}")
    lines.extend(f"  {t}" for t in report.trace)
    lines.append(f"  stable restriction certified for c2 < {_show(report.value)}")
    if verdict is not None:
        payload["verdict"] = verdict
        payload["c2"] = args.c2
        payload["reason"] = reason
        lines.append(f"  c2 = {args.c2}: {verdict} ({reason})")
    _emit(args, payload, lines)
    if verdict == "inconclusive" and args.strict:
        return 1
    return 0


def cmd_surface_restrict(args: argparse.Namespace) -> int:
    ok = surface_restriction_checks(args.variant, args.c2, a=args.a, b=args.b)
    inputs = {"variant": args.variant, "c2": args.c2}
    if args.a is not None:
        inputs["a"] = args.a
    if args.b is not None:
        inputs["b"] = args.b
    payload = {
        "schema": SCHEMA,
        "command": "surface-restrict",
        "inputs": inputs,
        "certified": ok,
    }
    detail = ", ".join(f"{k} = {v}" for k, v in inputs.items() if k != "variant")
    lines = [f"criterion {args.variant} with {detail}: "
             + ("hypotheses hold; restriction stays stable"
                if ok else "hypotheses do not hold; criterion is silent")]
    _emit(args, payload, lines)
    if args.strict and not ok:
        return 1
    return 0


def cmd_verify_identity(args: argparse.Namespace) -> int:
    desc = _load(args)
    eta, interval, note = _pick_eta(args, desc, "eta")
    bound = args.range
    checked, violations = _slope_identity_scan(desc.curve, eta, bound)
    payload = {
        "schema": SCHEMA,
        "command": "verify-identity-sl",
        "curve": _descriptor_json(desc),
        "eta": _exact_json(eta),
        "range": bound,
        "checked": checked,
        "violations": [list(v) for v in violations],
        "notes": [note] if note else [],
    }
    lines = [
        f"slope identity scan for {desc.name} at eta = {_show(eta)}: "
        f"{checked} classes with |x|, |y| <= {bound}",
        f"  violations: {len(violations)}"
        + ("" if not violations else f" (first at {violations[0]})"),
    ]
    _emit(args, payload, lines)
    return 1 if violations else 0


def _replay_common(args: argparse.Namespace, desc: CurveDescriptor,
                   eta: Fraction, mode, note: Optional[str],
                   label: str) -> int:
    system = build_system(desc.curve, eta, mode)
    outcome = region_empty(system, margin=args.box_margin)
    payload = {
        "schema": SCHEMA,
        "command": f"verify-replay-{label}",
        "curve": _descriptor_json(desc),
        "eta": _exact_json(eta),
        "mode": _record.asdict(mode),
        "box": {"x": [system.box.x_min, system.box.x_max],
                "y": [system.box.y_min, system.box.y_max],
                "margin": args.box_margin,
                "notes": list(system.box.notes)},
        "constraints": list(system.constraints),
        "empty": outcome.empty,
        "witness": list(outcome.witness) if outcome.witness else None,
        "checked": outcome.checked,
        "notes": ([note] if note else []) + [outcome.note],
    }
    lines = [f"replay ({label}) for {desc.name} at eta = {_show(eta)}"]
    if note:
        lines.append(f"  note: {note}")
    lines.append(f"  box: x in [{system.box.x_min}, {system.box.x_max}], "
                 f"y in [{system.box.y_min}, {system.box.y_max}]"
                 + (f" (margin {args.box_margin})" if args.box_margin else ""))
    for bn in system.box.notes:
        lines.append(f"    {bn}")
    lines.append("  constraints:")
    for con in system.constraints:
        lines.append(f"    - {con}")
    if outcome.empty:
        lines.append(f"  outcome: empty ({outcome.checked} classes checked; "
                     "bound certified at desk scale)")
    else:
        lines.append(f"  outcome: witness (x, y) = {outcome.witness} "
                     f"({outcome.checked} classes checked)")
        lines.append(f"  {outcome.note}")
    _emit(args, payload, lines)
    if not outcome.empty and args.strict:
        return 1
    return 0


def cmd_verify_replay_gonality(args: argparse.Namespace) -> int:
    desc = _load(args)
    eta, interval, note = _pick_eta(args, desc, "eta")
    return _replay_common(args, desc, eta, GonalityMode(k=args.k), note,
                          "gonality")


def cmd_verify_replay_restriction(args: argparse.Namespace) -> int:
    desc = _load(args)
    gamma, interval, note = _pick_eta(args, desc, "gamma")
    mode = RestrictionMode(c2=args.c2, l_min=args.l_min)
    return _replay_common(args, desc, gamma, mode, note, "restriction")


def cmd_verify_sweep(args: argparse.Namespace) -> int:
    desc = _load(args)
    flag = "eta" if args.mode == "gonality" else "gamma"
    eta, interval, note = _pick_eta(args, desc, flag)
    if args.stop < args.start:
        raise ParseError(f"--stop {args.stop} is below --start {args.start}")
    result = sweep(desc.curve, eta, args.mode,
                   range(args.start, args.stop + 1), margin=args.box_margin)
    param_name = "k" if args.mode == "gonality" else "c2"
    payload = {
        "schema": SCHEMA,
        "command": "verify-sweep",
        "curve": _descriptor_json(desc),
        "mode": args.mode,
        "eta": _exact_json(eta),
        "entries": [{param_name: p, "empty": o.empty,
                     "witness": list(o.witness) if o.witness else None}
                    for p, o in result.entries],
        "frontier": result.frontier,
        "notes": ([note] if note else []) + [result.note],
    }
    lines = [f"sweep ({args.mode}) for {desc.name}, "
             f"{param_name} in [{args.start}, {args.stop}] at "
             f"{flag} = {_show(eta)}"]
    if note:
        lines.append(f"  note: {note}")
    for p, o in result.entries:
        lines.append(f"  {param_name} = {p}: "
                     + ("empty" if o.empty else f"witness {o.witness}"))
    if result.frontier is None:
        lines.append("  frontier: none in range (region stayed empty)")
    else:
        lines.append(f"  frontier: {param_name} = {result.frontier} "
                     "(first parameter with a feasible class)")
    _emit(args, payload, lines)
    return 0


def _arg(name: str, **kwargs: Any) -> tuple[str, dict]:
    return name, kwargs


_DESCRIPTOR = _arg("descriptor",
                   help="curve descriptor: JSON file path or literal JSON")
_JSON = _arg("--json", action="store_true", help="machine-readable JSON output")
_STRICT = _arg("--strict", action="store_true",
               help="exit 1 on inconclusive or non-empty outcomes")
_COMMON = (_DESCRIPTOR, _JSON, _STRICT)
_ETA = _arg("--eta", type=_rational_arg, default=None, metavar="P/Q")
_GAMMA = _arg("--gamma", type=_rational_arg, default=None, metavar="P/Q")
_MARGIN = _arg("--box-margin", type=int, default=0, metavar="N")

# (path, help, handler, arguments) of every leaf command, in help order;
# a group such as "verify" is listed where its first leaf is
COMMANDS = (
    (("invariants",), "degree, genus, deg_N, delta, lambda", cmd_invariants,
     (*_COMMON, _ETA)),
    (("seshadri",), "certified Seshadri interval from evidence", cmd_seshadri,
     _COMMON),
    (("gonality",), "exact gonality lower bound", cmd_gonality,
     (*_COMMON, _ETA)),
    (("restrict",), "restriction-stability threshold", cmd_restrict,
     (*_COMMON, _GAMMA, _arg("--c2", type=int, default=None, metavar="N"))),
    (("surface-restrict",), "stability criteria for restriction to a surface",
     cmd_surface_restrict,
     (_JSON, _STRICT,
      _arg("--variant", required=True, choices=["barth", "c2plus2", "ci_curve"]),
      _arg("--c2", type=int, required=True, metavar="N"),
      _arg("--a", type=int, default=None, metavar="N"),
      _arg("--b", type=int, default=None, metavar="N"))),
    (("verify", "identity-sl"), "scan the slope identity exactly",
     cmd_verify_identity,
     (*_COMMON, _ETA,
      _arg("--range", type=int, default=20, metavar="N",
           help="scan |x|, |y| <= N (default 20)"))),
    (("verify", "replay-gonality"),
     "destabilizing-class search, pencil hypothesis", cmd_verify_replay_gonality,
     (*_COMMON, _ETA,
      _arg("--k", type=int, required=True, metavar="N", help="pencil degree"),
      _MARGIN)),
    (("verify", "replay-restriction"),
     "destabilizing-class search, restriction hypothesis",
     cmd_verify_replay_restriction,
     (*_COMMON, _GAMMA,
      _arg("--c2", type=int, required=True, metavar="N"),
      _arg("--l-min", type=int, default=0, metavar="N",
           help="sub-line-bundle degree lower bound (default 0)"),
      _MARGIN)),
    (("verify", "sweep"), "feasibility frontier over k or c2", cmd_verify_sweep,
     (*_COMMON,
      _arg("--mode", required=True, choices=["gonality", "restriction"]),
      _arg("--start", type=int, required=True, metavar="N"),
      _arg("--stop", type=int, required=True, metavar="N"),
      _ETA, _GAMMA, _MARGIN)),
)
GROUPS = {("verify",): "brute-force verification commands"}

_LEAVES = {row[0]: row for row in COMMANDS}
# "{a,b,...}": the choices of each level, as argparse renders them
_CHOICES = {
    group: "{" + ",".join(dict.fromkeys(
        path[len(group)] for path in _LEAVES if path[:len(group)] == group)) + "}"
    for group in ((), *GROUPS)
}


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: the top level, the group ``argv`` names
    (if any) and the one leaf it names.  When ``argv`` names no leaf
    (``-h``, a typo, a missing command, ``verify`` alone, or None), every
    command is built, so help texts and usage errors come from the full
    tree.  Nothing is cached: each call builds a new parser."""
    argv = argv or []
    named = _LEAVES.get(tuple(argv[:1])) or _LEAVES.get(tuple(argv[:2]))
    parser = argparse.ArgumentParser(
        prog="curvebounds",
        description="Exact Seshadri intervals, gonality bounds and "
                    "restriction-stability thresholds for space curves.")
    levels: dict = {}

    def level(group: tuple) -> Any:
        if group not in levels:
            owner = (parser if not group else
                     level(group[:-1]).add_parser(group[-1], help=GROUPS[group]))
            # a partial tree names every choice, as the full tree does:
            # an unrecognized argument after a leaf prints the top
            # level's usage line
            metavar = None if named is None else _CHOICES[group]
            levels[group] = owner.add_subparsers(
                dest="_".join((*group, "command")), required=True,
                metavar=metavar)
        return levels[group]

    for path, help_text, handler, arguments in (COMMANDS if named is None
                                                else (named,)):
        p = level(path[:-1]).add_parser(path[-1], help=help_text)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CurveBoundsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
