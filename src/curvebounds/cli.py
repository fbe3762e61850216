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
from .blowup import (
    DivisorClass,
    E,
    H,
    delta_eta,
    h_eta,
    lambda_eta,
    triple_product,
)
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
    c = desc.curve
    bound = args.range
    lam = lambda_eta(c, eta)
    heta = h_eta(eta)
    violations: list[tuple[int, int]] = []
    checked = 0
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            checked += 1
            dcls = DivisorClass(x, y)
            lhs = (triple_product(c, dcls, dcls, heta)
                   - triple_product(c, dcls, heta, E))
            s = triple_product(c, dcls, heta, H)
            rhs = s * s - s * eta * c.d - lam * (Fraction(y) ** 2 - y)
            if lhs != rhs:
                violations.append((x, y))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvebounds",
        description="Exact Seshadri intervals, gonality bounds and "
                    "restriction-stability thresholds for space curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, descriptor: bool = True) -> None:
        if descriptor:
            p.add_argument("descriptor",
                           help="curve descriptor: JSON file path or literal JSON")
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 on inconclusive or non-empty outcomes")

    p = sub.add_parser("invariants", help="degree, genus, deg_N, delta, lambda")
    add_common(p)
    p.add_argument("--eta", type=_rational_arg, default=None, metavar="P/Q")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("seshadri", help="certified Seshadri interval from evidence")
    add_common(p)
    p.set_defaults(func=cmd_seshadri)

    p = sub.add_parser("gonality", help="exact gonality lower bound")
    add_common(p)
    p.add_argument("--eta", type=_rational_arg, default=None, metavar="P/Q")
    p.set_defaults(func=cmd_gonality)

    p = sub.add_parser("restrict", help="restriction-stability threshold")
    add_common(p)
    p.add_argument("--gamma", type=_rational_arg, default=None, metavar="P/Q")
    p.add_argument("--c2", type=int, default=None, metavar="N")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("surface-restrict",
                       help="stability criteria for restriction to a surface")
    add_common(p, descriptor=False)
    p.add_argument("--variant", required=True,
                   choices=["barth", "c2plus2", "ci_curve"])
    p.add_argument("--c2", type=int, required=True, metavar="N")
    p.add_argument("--a", type=int, default=None, metavar="N")
    p.add_argument("--b", type=int, default=None, metavar="N")
    p.set_defaults(func=cmd_surface_restrict)

    v = sub.add_parser("verify", help="brute-force verification commands")
    vsub = v.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("identity-sl", help="scan the slope identity exactly")
    add_common(p)
    p.add_argument("--eta", type=_rational_arg, default=None, metavar="P/Q")
    p.add_argument("--range", type=int, default=20, metavar="N",
                   help="scan |x|, |y| <= N (default 20)")
    p.set_defaults(func=cmd_verify_identity)

    p = vsub.add_parser("replay-gonality",
                        help="destabilizing-class search, pencil hypothesis")
    add_common(p)
    p.add_argument("--eta", type=_rational_arg, default=None, metavar="P/Q")
    p.add_argument("--k", type=int, required=True, metavar="N",
                   help="pencil degree")
    p.add_argument("--box-margin", type=int, default=0, metavar="N")
    p.set_defaults(func=cmd_verify_replay_gonality)

    p = vsub.add_parser("replay-restriction",
                        help="destabilizing-class search, restriction hypothesis")
    add_common(p)
    p.add_argument("--gamma", type=_rational_arg, default=None, metavar="P/Q")
    p.add_argument("--c2", type=int, required=True, metavar="N")
    p.add_argument("--l-min", type=int, default=0, metavar="N",
                   help="sub-line-bundle degree lower bound (default 0)")
    p.add_argument("--box-margin", type=int, default=0, metavar="N")
    p.set_defaults(func=cmd_verify_replay_restriction)

    p = vsub.add_parser("sweep", help="feasibility frontier over k or c2")
    add_common(p)
    p.add_argument("--mode", required=True, choices=["gonality", "restriction"])
    p.add_argument("--start", type=int, required=True, metavar="N")
    p.add_argument("--stop", type=int, required=True, metavar="N")
    p.add_argument("--eta", type=_rational_arg, default=None, metavar="P/Q")
    p.add_argument("--gamma", type=_rational_arg, default=None, metavar="P/Q")
    p.add_argument("--box-margin", type=int, default=0, metavar="N")
    p.set_defaults(func=cmd_verify_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
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
