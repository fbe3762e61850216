"""Trace what the product runs, and list the ``src/`` functions it never
enters.  Stdlib only.

Usage: python tools/reach.py

The traffic traced is the product's own: every golden CLI transcript
(``tests/cli_golden.cases()``, run through ``cli_golden.transcript``)
and, for each catalog curve, the library calls of the benchmark's
``table`` workload (``combine``, ``gonality_bound``,
``restriction_threshold`` and ``certify_restriction_stable`` at three
c2).  The tracer is set before ``curvebounds`` is imported, so what
runs at import time counts as entered; it must therefore run in a fresh
interpreter.

A function is named ``<module>.<qualified name>`` (``replay.Box.points``,
``_record.record.<locals>.__eq__``), found in the source by ``ast``;
lambdas are not counted.  The float audit looks, at each return from a
``src/`` frame, at the frame's locals and its return value: a float in
either is a finding.

The output is "entered N of M functions", one "unreached <name>" line
per function the trace never entered, then one "float <where>: <what>
= <value>" line per local or return value that held a float (its first
value), or "no float in any src/ frame".  It reports and gates
nothing; ``tests/test_reach.py`` reads its output and pins the
unreached list.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "curvebounds")


def functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> name of every function defined in ``src/``.
    The first line is a code object's ``co_firstlineno``: the first
    decorator's line for a decorated function."""
    found = {}

    def walk(node, path: str, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{module}.{prefix}{child.name}"
                walk(child, path, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, module, f"{prefix}{child.name}.")
            else:
                walk(child, path, module, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        walk(tree, path, os.path.splitext(os.path.basename(path))[0], "")
    return found


def table_calls() -> None:
    """The library calls of the ``table`` workload, on each catalog
    curve, as ``perfbench/workloads.execute_table`` makes them."""
    from curvebounds.bounds import (certify_restriction_stable, gonality_bound,
                                    restriction_threshold)
    from curvebounds.catalog import standard_catalog
    from curvebounds.seshadri import combine

    for desc in standard_catalog():
        interval = combine(desc.curve, list(desc.evidence))
        eta = interval.lower
        gonality_bound(desc.curve, eta, interval)
        t = max(0, restriction_threshold(desc.curve, eta, interval).value_ceiling)
        for c2 in (max(0, t - 1), t, t + 3):
            certify_restriction_stable(desc.curve, eta, c2, interval)


def trace() -> tuple[set[str], list[str]]:
    """(names of the ``src/`` functions entered, float findings) over the
    golden transcripts and the table calls."""
    if "curvebounds" in sys.modules:
        raise RuntimeError("curvebounds is already imported: run the trace "
                           "in a fresh interpreter, so that import time counts")
    names = functions()
    src = {path for path, _ in names}
    entered: set[tuple[str, int]] = set()
    floats: dict[str, float] = {}  # "<where>: <what>" -> the first float seen

    def audit(frame, event, arg):
        if event == "return":
            values = [("return value", arg)] + list(frame.f_locals.items())
            for what, value in values:
                if isinstance(value, float):
                    code = frame.f_code
                    where = names.get((code.co_filename, code.co_firstlineno),
                                      code.co_name)
                    floats.setdefault(f"{where}: {what}", value)
        return audit

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in src:
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        frame.f_trace_lines = False
        return audit

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        import cli_golden
        for _, argv in cli_golden.cases():
            cli_golden.transcript(argv)
        table_calls()
    finally:
        sys.settrace(previous)
    return ({names[key] for key in entered if key in names},
            [f"{at} = {value!r}" for at, value in floats.items()])


def main() -> int:
    entered, floats = trace()
    names = sorted(functions().values())
    print(f"entered {len(entered)} of {len(names)} functions")
    for name in names:
        if name not in entered:
            print(f"unreached {name}")
    for line in floats:
        print(f"float {line}")
    if not floats:
        print("no float in any src/ frame")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
