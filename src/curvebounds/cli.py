"""Command-line interface: exact invariants, Seshadri intervals,
gonality bounds, restriction-stability thresholds, and the brute-force
verification commands, over curve-descriptor JSON files.

Each handler in ``COMMANDS`` returns one payload of exact values, its
text lines and an exit code; ``main`` alone emits, either the lines or
the payload through the one JSON encoder ``_json``.

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
# time keeps measuring the intersection products
from .blowup import slope_identity_scan as _slope_identity_scan
from .bounds import (
    BoundReport,
    _certify,
    _with_liaison_gap,
    gonality_bound,
    restriction_threshold,
    surface_restriction_checks,
)
from .catalog import CurveDescriptor, evidence_to_json, load_descriptor
from .errors import CurveBoundsError, ParseError, TooManyDigits
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
    parse_int,
    parse_rational,
    quad_to_json,
)
from .seshadri import Evidence, combine

SCHEMA = 1

# what a handler returns: (payload, text lines, exit code)
Result = tuple[dict, list[str], int]


def _option_type(parse: Any, name: str) -> Any:
    """An argparse type that parses with ``parse``: a number above the
    digit cap is a usage error naming the cap, and any other ValueError
    argparse's own "invalid <name> value: '...'" (exit 2 either way)."""
    def convert(text: str) -> Any:
        try:
            return parse(text)
        except TooManyDigits as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    convert.__name__ = name
    return convert


_RATIONAL_ARG = _option_type(parse_rational, "_rational_arg")
_INT_ARG = _option_type(parse_int, "int")


def _json(v: Any) -> Any:
    """The JSON form of a payload value: an exact number as its exact
    form and a decimal preview, evidence as in a descriptor, a record
    field by field in order, containers item by item."""
    if v is None or isinstance(v, (int, str)):  # most leaves; bool is an int
        return v
    if isinstance(v, dict):
        return {k: _json(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_json(x) for x in v]
    if isinstance(v, (QuadNumber, Fraction)):
        # a rational value, of either type, prints as "p/q"; an object
        # with keys a/b/m in "exact" always means an irrational value
        exact = str(v) if _rational(v) else quad_to_json(v)
        return {"exact": exact, "decimal": decimal_str(v)}
    if isinstance(v, Evidence):
        return evidence_to_json(v)
    if hasattr(v, "__record_fields__"):
        return _json(_record.asdict(v))
    return v


def _rational(v: Any) -> bool:
    return not isinstance(v, QuadNumber) or v.is_rational


def _show(v: Any) -> str:
    """Human rendering: exact value, with a decimal preview when it is
    not already plain.  A rational QuadNumber prints as its Fraction."""
    return str(v) if _rational(v) else f"{v} (~ {decimal_str(v)})"


def _curve(desc: CurveDescriptor) -> dict:
    c = desc.curve
    return {"name": desc.name, "kind": desc.kind, "params": desc.params,
            "d": c.d, "g": c.g, "deg_n": c.deg_n, "warnings": desc.warnings}


def _load(args: argparse.Namespace, flag: str) -> tuple:
    """(descriptor, eta, interval, notes): the value of ``--<flag>``, or
    by default the certified Seshadri lower bound, with the note saying
    so as the one line of ``notes``.  The descriptor's warnings go to
    ``args.warnings``, for ``main`` to emit even if the command fails."""
    desc = load_descriptor(args.descriptor)
    args.warnings = desc.warnings
    interval = combine(desc.curve, list(desc.evidence))
    requested = getattr(args, flag, None)
    if requested is not None:
        return desc, requested, interval, []
    note = (f"{flag} defaulted to the certified Seshadri lower bound "
            f"{interval.lower}")
    if flag == "gamma":
        note += ("; the stability constant of a specific bundle may be "
                 "smaller, so pass --gamma from surface evidence for a "
                 "certified verdict")
    return desc, interval.lower, interval, [note]


def _report_lines(header: str, notes: list[str], report: BoundReport,
                  conclusion: str) -> list[str]:
    return [header, *(f"  note: {n}" for n in notes),
            *(f"  {t}" for t in report.trace), f"  {conclusion}",
            *(f"  warning[{d.code}]: {d.message}" for d in report.discrepancies)]


def cmd_invariants(args: argparse.Namespace) -> Result:
    desc, eta, _, notes = _load(args, "eta")
    c = desc.curve
    delta = delta_eta(c, eta)
    lam = lambda_eta(c, eta)
    payload = {"curve": _curve(desc), "eta": eta, "delta_eta": delta,
               "lambda_eta": lam, "notes": notes}
    lines = [
        f"{desc.name} ({desc.kind}: "
        + ", ".join(f"{k}={v}" for k, v in desc.params.items()) + ")",
        f"  d = {c.d}",
        f"  g = {c.g}",
        f"  deg_N = {c.deg_n}",
        f"  eta = {_show(eta)}" + ("  [certified lower bound]" if notes else ""),
        f"  delta_eta = {_show(delta)}",
        f"  lambda_eta = {_show(lam)}",
    ]
    return payload, lines, 0


def cmd_seshadri(args: argparse.Namespace) -> Result:
    desc, _, iv, _ = _load(args, "eta")
    traces = {name: [{"evidence": e, "bound": v} for e, v in getattr(iv, name)]
              for name in ("lower_trace", "upper_trace")}
    payload = {"curve": _curve(desc),
               "interval": {**_record.asdict(iv), **traces}}
    lines = [f"seshadri interval for {desc.name}: "
             f"{_show(iv.lower)} <= eps <= {_show(iv.upper)}"
             + ("  (point: eps known exactly)" if iv.is_point else ""),
             f"  lower certified by {iv.lower_witness}",
             f"  upper certified by {iv.upper_witness}",
             "  lower candidates:",
             *(f"    {_show(v)}  from {e}" for e, v in iv.lower_trace),
             "  upper candidates:",
             *(f"    {_show(v)}  from {e}" for e, v in iv.upper_trace),
             *(f"  note: {n}" for n in iv.notes)]
    return payload, lines, 0


def cmd_gonality(args: argparse.Namespace) -> Result:
    desc, eta, interval, notes = _load(args, "eta")
    report = gonality_bound(desc.curve, eta, interval)
    if desc.kind == "linked_line":
        report = _with_liaison_gap(report, desc.params["a"], desc.params["b"])
    lines = _report_lines(
        f"gonality bound for {desc.name} at eta = {_show(eta)}", notes, report,
        f"gon >= {_show(report.value)}; as an integer bound, "
        f"gon >= {report.value_ceiling}")
    return {"curve": _curve(desc), "report": report, "notes": notes}, lines, 0


def cmd_restrict(args: argparse.Namespace) -> Result:
    desc, gamma, interval, notes = _load(args, "gamma")
    report = restriction_threshold(desc.curve, gamma, interval)
    lines = _report_lines(
        f"restriction threshold for {desc.name} at gamma = {_show(gamma)}",
        notes, report, f"stable restriction certified for c2 < {_show(report.value)}")
    payload = {"curve": _curve(desc), "report": report, "notes": notes}
    if args.c2 is None:
        return payload, lines, 0
    result = _certify(report, args.c2)
    lines.append(f"  c2 = {args.c2}: {result.verdict} ({result.reason})")
    payload.update(verdict=result.verdict, c2=args.c2, reason=result.reason)
    return payload, lines, 1 if args.strict and not result.certified else 0


def cmd_surface_restrict(args: argparse.Namespace) -> Result:
    ok = surface_restriction_checks(args.variant, args.c2, a=args.a, b=args.b)
    inputs = {"variant": args.variant, "c2": args.c2}
    inputs.update((k, v) for k, v in (("a", args.a), ("b", args.b))
                  if v is not None)
    detail = ", ".join(f"{k} = {v}" for k, v in inputs.items() if k != "variant")
    lines = [f"criterion {args.variant} with {detail}: "
             + ("hypotheses hold; restriction stays stable"
                if ok else "hypotheses do not hold; criterion is silent")]
    return ({"inputs": inputs, "certified": ok}, lines,
            1 if args.strict and not ok else 0)


def cmd_verify_identity(args: argparse.Namespace) -> Result:
    desc, eta, _, notes = _load(args, "eta")
    checked, violations = _slope_identity_scan(desc.curve, eta, args.range)
    payload = {"curve": _curve(desc), "eta": eta, "range": args.range,
               "checked": checked, "violations": violations, "notes": notes}
    lines = [
        f"slope identity scan for {desc.name} at eta = {_show(eta)}: "
        f"{checked} classes with |x|, |y| <= {args.range}",
        f"  violations: {len(violations)}"
        + ("" if not violations else f" (first at {violations[0]})"),
    ]
    return payload, lines, 1 if violations else 0


def _replay(args: argparse.Namespace, flag: str, mode, label: str) -> Result:
    desc, eta, _, notes = _load(args, flag)
    system = build_system(desc.curve, eta, mode)
    outcome = region_empty(system, margin=args.box_margin)
    box = system.box
    payload = {
        "curve": _curve(desc),
        "eta": eta,
        "mode": mode,
        "box": {"x": [box.x_min, box.x_max], "y": [box.y_min, box.y_max],
                "margin": args.box_margin, "notes": box.notes},
        "constraints": system.constraints,
        "empty": outcome.empty,
        "witness": outcome.witness,
        "checked": outcome.checked,
        "notes": notes + [outcome.note],
    }
    lines = [f"replay ({label}) for {desc.name} at eta = {_show(eta)}",
             *(f"  note: {n}" for n in notes),
             f"  box: x in [{box.x_min}, {box.x_max}], "
             f"y in [{box.y_min}, {box.y_max}]"
             + (f" (margin {args.box_margin})" if args.box_margin else ""),
             *(f"    {bn}" for bn in box.notes),
             "  constraints:",
             *(f"    - {con}" for con in system.constraints)]
    if outcome.empty:
        lines.append(f"  outcome: empty ({outcome.checked} classes checked; "
                     "bound certified at desk scale)")
    else:
        lines.append(f"  outcome: witness (x, y) = {outcome.witness} "
                     f"({outcome.checked} classes checked)")
        lines.append(f"  {outcome.note}")
    return payload, lines, 1 if args.strict and not outcome.empty else 0


def cmd_verify_replay_gonality(args: argparse.Namespace) -> Result:
    return _replay(args, "eta", GonalityMode(k=args.k), "gonality")


def cmd_verify_replay_restriction(args: argparse.Namespace) -> Result:
    return _replay(args, "gamma", RestrictionMode(c2=args.c2, l_min=args.l_min),
                   "restriction")


def cmd_verify_sweep(args: argparse.Namespace) -> Result:
    flag, other = ("eta", "gamma") if args.mode == "gonality" else ("gamma", "eta")
    if getattr(args, other) is not None:
        raise ParseError(f"--{other} does not apply in {args.mode} mode; "
                         f"pass --{flag}")
    desc, eta, _, notes = _load(args, flag)
    if args.stop < args.start:
        raise ParseError(f"--stop {args.stop} is below --start {args.start}")
    result = sweep(desc.curve, eta, args.mode,
                   range(args.start, args.stop + 1), margin=args.box_margin)
    param_name = "k" if args.mode == "gonality" else "c2"
    payload = {
        "curve": _curve(desc),
        "mode": args.mode,
        "eta": eta,
        "entries": [{param_name: p, "empty": o.empty, "witness": o.witness}
                    for p, o in result.entries],
        "frontier": result.frontier,
        "notes": notes + [result.note],
    }
    lines = [f"sweep ({args.mode}) for {desc.name}, "
             f"{param_name} in [{args.start}, {args.stop}] at "
             f"{flag} = {_show(eta)}",
             *(f"  note: {n}" for n in notes),
             *(f"  {param_name} = {p}: "
               + ("empty" if o.empty else f"witness {o.witness}")
               for p, o in result.entries)]
    if result.frontier is None:
        lines.append("  frontier: none in range (region stayed empty)")
    else:
        lines.append(f"  frontier: {param_name} = {result.frontier} "
                     "(first parameter with a feasible class)")
    return payload, lines, 0


def _arg(name: str, **kwargs: Any) -> tuple[str, dict]:
    return name, kwargs


_DESCRIPTOR = _arg("descriptor",
                   help="curve descriptor: JSON file path or literal JSON")
_JSON = _arg("--json", action="store_true", help="machine-readable JSON output")
_STRICT = _arg("--strict", action="store_true",
               help="exit 1 on inconclusive or non-empty outcomes")
_COMMON = (_DESCRIPTOR, _JSON, _STRICT)
_ETA = _arg("--eta", type=_RATIONAL_ARG, default=None, metavar="P/Q")
_GAMMA = _arg("--gamma", type=_RATIONAL_ARG, default=None, metavar="P/Q")
_MARGIN = _arg("--box-margin", type=_INT_ARG, default=0, metavar="N")

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
     (*_COMMON, _GAMMA, _arg("--c2", type=_INT_ARG, default=None, metavar="N"))),
    (("surface-restrict",), "stability criteria for restriction to a surface",
     cmd_surface_restrict,
     (_JSON, _STRICT,
      _arg("--variant", required=True, choices=["barth", "c2plus2", "ci_curve"]),
      _arg("--c2", type=_INT_ARG, required=True, metavar="N"),
      _arg("--a", type=_INT_ARG, default=None, metavar="N"),
      _arg("--b", type=_INT_ARG, default=None, metavar="N"))),
    (("verify", "identity-sl"), "scan the slope identity exactly",
     cmd_verify_identity,
     (*_COMMON, _ETA,
      _arg("--range", type=_INT_ARG, default=20, metavar="N",
           help="scan |x|, |y| <= N (default 20)"))),
    (("verify", "replay-gonality"),
     "destabilizing-class search, pencil hypothesis", cmd_verify_replay_gonality,
     (*_COMMON, _ETA,
      _arg("--k", type=_INT_ARG, required=True, metavar="N", help="pencil degree"),
      _MARGIN)),
    (("verify", "replay-restriction"),
     "destabilizing-class search, restriction hypothesis",
     cmd_verify_replay_restriction,
     (*_COMMON, _GAMMA,
      _arg("--c2", type=_INT_ARG, required=True, metavar="N"),
      _arg("--l-min", type=_INT_ARG, default=0, metavar="N",
           help="sub-line-bundle degree lower bound (default 0)"),
      _MARGIN)),
    (("verify", "sweep"), "feasibility frontier over k or c2", cmd_verify_sweep,
     (*_COMMON,
      _arg("--mode", required=True, choices=["gonality", "restriction"]),
      _arg("--start", type=_INT_ARG, required=True, metavar="N"),
      _arg("--stop", type=_INT_ARG, required=True, metavar="N"),
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


# the tree of each leaf path, and of None for the full tree, once built
_PARSERS: dict[Optional[tuple], argparse.ArgumentParser] = {}


def build_parser(argv: Optional[list[str]] = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: the top level, the group ``argv`` names
    (if any) and the one leaf it names.  When ``argv`` names no leaf
    (``-h``, a typo, a missing command, ``verify`` alone, or None), every
    command is built, so help texts and usage errors come from the full
    tree.  Each tree is built once per process; every call returns a
    shallow clone of it, so that an attribute a caller rebinds (as a
    tracer rebinds ``parse_args``) stays on that caller's parser.  The
    clones share the tree's arguments and subparsers, which no caller
    may change."""
    argv = argv or []
    named = _LEAVES.get(tuple(argv[:1])) or _LEAVES.get(tuple(argv[:2]))
    key = named and named[0]
    if key not in _PARSERS:
        _PARSERS[key] = _build_parser(named)
    parser = object.__new__(argparse.ArgumentParser)
    parser.__dict__.update(vars(_PARSERS[key]))
    return parser


def _build_parser(named: Optional[tuple]) -> argparse.ArgumentParser:
    """The top level, and the one leaf row ``named`` under its group,
    or every command when ``named`` is None."""
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
        p.set_defaults(func=handler, command_name="-".join(path))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    args.warnings = ()  # the descriptor's, once _load has parsed it
    try:
        payload, lines, code = args.func(args)
    except (CurveBoundsError, ValueError) as exc:
        payload, lines = None, [f"error: {exc}"]
        code = 2 if isinstance(exc, ParseError) else 1
    if not args.json:
        for w in args.warnings:
            print(f"warning: {w}", file=sys.stderr)
    elif payload is not None:
        lines = [json.dumps(_json({"schema": SCHEMA, "command": args.command_name,
                                   **payload}), indent=2)]
    print("\n".join(lines), file=sys.stderr if payload is None else sys.stdout)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
