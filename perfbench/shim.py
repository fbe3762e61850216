"""Traced stand-in for ``python -m curvebounds``, used by the desk
workload's traced run.

Usage: python3 perfbench/shim.py <curvebounds argv...>

It imports the CLI as ``python -m curvebounds`` would, installs the
benchmark's tracer, runs ``cli.main`` under a root span and exits with
its code.  The CLI's output goes to stdout unchanged; the trace totals go
to stderr as one line starting with ``tracer.TRACE_MARK``.
"""

import sys

import curvebounds.cli


def main(argv: list[str]) -> int:
    import json

    import tracer

    t = tracer.Tracer()
    t.install(tracer.layer_modules(curvebounds))
    try:
        with t.span("op"):
            code = curvebounds.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    t.flush()
    sys.stdout.flush()
    print(tracer.TRACE_MARK + json.dumps({"totals": t.summary(), "checked": t.checked}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
