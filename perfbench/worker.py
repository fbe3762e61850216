"""One benchmark process: set up a workload, then (role ``measure``) run
its closed loop, or (role ``record``) compute reference digests.

Usage, from the root of a checkout with PYTHONPATH=src:
  python3 perfbench/worker.py setup   <workload> <seed>
  python3 perfbench/worker.py measure <workload> <seed> <seconds> <trace>
  python3 perfbench/worker.py record  <workload> <ops>

Set-up is: import curvebounds, make the op stream, run one warm-up op
(checked like the others); then the worker prints READY.  ``measure``
prints one JSON line with the latencies, the check results and, when
tracing, the per-layer totals.  Arguments are read from sys.argv, and
curvebounds is imported before anything else, so the import costs what
it costs a user.
"""

import sys
import time

ROLE, WORKLOAD = sys.argv[1], sys.argv[2]

import curvebounds  # noqa: E402

if WORKLOAD != "table":
    import curvebounds.cli  # noqa: E402,F401

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "shim.py")
# ops per reference block; the first block of the default seed is
# re-checked in every run that uses another seed
BLOCK = {"desk": 5, "table": 25, "sweep": 5, "verify": 10}
TRACED_SHARE = 0.4      # share of --seconds spent untraced before the traced replay
MAX_FAILURES_SHOWN = 5
OUT_DIR = ".perfbench_out"


def make_executor(workload: str, traced: bool = False):
    if workload == "desk":
        prefix = [SHIM] if traced else ["-m", "curvebounds"]
        return lambda op: workloads.run_cli_process(op["argv"], prefix)
    execute = {"table": workloads.execute_table,
               "sweep": workloads.execute_sweep,
               "verify": workloads.execute_verify}[workload]
    return lambda op: execute(curvebounds, op)


def run_op(workload: str, execute, op: dict):
    """(latency seconds, raw output, record or None, error text or None)."""
    start = time.perf_counter()
    try:
        raw = execute(op)
    except Exception as exc:   # any exception fails the op, and only it
        return time.perf_counter() - start, None, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        record = workloads.EXTRACT[workload](op, raw)
    except (workloads.OpFailed, KeyError, TypeError, ValueError) as exc:
        return latency, raw, None, f"{type(exc).__name__}: {exc}"
    return latency, raw, record, None


def check_results(workload: str, ops, records, errors, reference=None,
                  label: str = "op") -> list[str]:
    """One failure message per failed op: an op error, a failed
    reference-free check, or, when ``reference`` (a list of block
    digests) is given, a block that differs from it."""
    failed: dict[int, str] = {}
    for i, (op, record, error) in enumerate(zip(ops, records, errors)):
        if error is None:
            try:
                check.CHECK[workload](op, record)
            except check.CheckFailed as exc:
                error = str(exc)
        if error is not None:
            failed[i] = error
    if reference is not None:
        block = BLOCK[workload]
        for b, want in enumerate(reference[:len(ops) // block]):
            span = range(b * block, (b + 1) * block)
            if any(i in failed for i in span):
                continue
            if check.block_digest(workload, [ops[i] for i in span],
                            [records[i] for i in span]) != want:
                failed.update((i, "differs from the reference") for i in span)
    return [f"{label} {i} ({ops[i]['curve'].name}): {message}"
            for i, message in sorted(failed.items())]


def setup(workload: str, seed: int):
    stream = gen.op_stream(workload, seed)
    execute = make_executor(workload)
    warm = gen.warmup_op(workload, seed)
    _, _, record, error = run_op(workload, execute, warm)
    print("READY", flush=True)
    failures = check_results(workload, [warm], [record], [error], label="warm-up op")
    return stream, execute, failures


@dataclass
class Batch:
    """Ops run in order, with their scaled and raw latencies (seconds),
    records and errors."""
    ops: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    records: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_ops(workload: str, execute, ops, seconds=None, on_op=None) -> Batch:
    """Run ops one after another (a closed loop with one client) until
    they run out or ``seconds`` have passed, calibrating the machine's
    speed between every two ops."""
    batch = Batch()
    calibrations = [calibrate.calibration_ms()]
    start = time.perf_counter()
    for op in ops:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        latency, raw, record, error = run_op(workload, execute, op)
        calibrations.append(calibrate.calibration_ms())
        if on_op is not None:
            on_op(raw)
        batch.ops.append(op)
        batch.raw.append(latency)
        batch.records.append(record)
        batch.errors.append(error)
    batch.latencies = [latency * calibrate.scale(before, after) for latency, before, after
                       in zip(batch.raw, calibrations, calibrations[1:])]
    return batch


def traced_replay(workload: str, ops):
    """Run ``ops`` again under the tracer.  Returns the batch, the totals
    by "layer:name" and region_empty's checked count.  Desk ops run the
    shim, which reports its totals on stderr."""
    if workload == "desk":
        totals: dict = {}
        checked = 0

        def merge(raw) -> None:
            nonlocal checked
            for line in (raw[2] if raw else "").splitlines():
                if line.startswith(tracing.TRACE_MARK):
                    child = json.loads(line[len(tracing.TRACE_MARK):])
                    checked += child["checked"]
                    for key, value in child["totals"].items():
                        total = totals.setdefault(key, [0, 0.0, 0.0])
                        for i, v in enumerate(value):
                            total[i] += v

        batch = run_ops(workload, make_executor(workload, traced=True), ops,
                        on_op=merge)
        return batch, totals, checked
    t = tracing.Tracer()
    execute = make_executor(workload)

    def traced(op):
        with t.span("op"):
            return execute(op)

    t.install(tracing.layer_modules(curvebounds))
    try:
        batch = run_ops(workload, traced, ops, on_op=lambda raw: t.flush())
    finally:
        t.uninstall()
    return batch, t.summary(), t.checked


def probe(workload: str) -> list[str]:
    """Re-run the default seed's first reference block and compare."""
    reference = check.load_reference()["blocks"][workload]
    stream = gen.op_stream(workload, gen.DEFAULT_SEED)
    ops = [next(stream) for _ in range(BLOCK[workload])]
    batch = run_ops(workload, make_executor(workload), ops)
    return check_results(workload, batch.ops, batch.records, batch.errors,
                         reference[:1], label="default-seed op")


def peak_rss_kb(workload: str) -> int:
    who = resource.RUSAGE_CHILDREN if workload == "desk" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    stream, execute, failures = setup(workload, seed)
    batch = run_ops(workload, execute, stream,
                    seconds * TRACED_SHARE if trace else seconds)
    ops = batch.ops
    reference = None
    if seed == gen.DEFAULT_SEED:
        reference = check.load_reference()["blocks"][workload]
    failures += check_results(workload, ops, batch.records, batch.errors, reference)
    attempted = 1 + len(ops)
    out = {"latencies": batch.latencies, "raw_latencies": batch.raw,
           "peak_rss_kb": peak_rss_kb(workload),
           "sizes": sizes_summary(workload, ops),
           "sizes_file": write_sizes(workload, seed, trace, ops)}
    if trace:
        traced, totals, checked = traced_replay(workload, ops)
        failures += check_results(workload, ops, traced.records, traced.errors,
                                  label="traced op")
        attempted += len(ops)
        out["trace"] = {
            "totals": totals, "checked": checked, "ops": len(ops),
            "untraced_s": sum(batch.latencies), "traced_s": sum(traced.latencies),
            # span times are raw; this factor scales them like the latencies
            "scale": sum(traced.latencies) / sum(traced.raw),
            "points": sum(map(gen.op_points, ops)),
            "distinct_points": sum(map(gen.op_distinct_points, ops)),
            "classes": sum(op.get("classes", 0) for op in ops)}
    if seed != gen.DEFAULT_SEED:
        failures += probe(workload)
        attempted += BLOCK[workload]
    out.update(attempted=attempted, failed=len(failures),
               failures=failures[:MAX_FAILURES_SHOWN])
    return out


def sizes_summary(workload: str, ops) -> dict:
    """Totals of the work asked for, and a digest of every op's sizes."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(json.dumps(gen.op_sizes(workload, op), sort_keys=True).encode())
    summary = {"ops": len(ops), "curves": len({op["curve"].name for op in ops}),
               "box_points": sum(map(gen.op_points, ops)),
               "identity_classes": sum(op.get("classes", 0) for op in ops),
               "sizes_sha256": digest.hexdigest()[:16]}
    if workload == "desk":
        commands: dict = {}
        for op in ops:
            key = op["command"] + (" --json" if op["json"] else "")
            commands[key] = commands.get(key, 0) + 1
        summary["commands"] = commands
    if workload == "sweep":
        summary["params"] = sum(op["stop"] - op["start"] + 1 for op in ops)
        summary["margin"] = gen.SWEEP_MARGIN
    if workload == "verify":
        summary["margins"] = list(gen.VERIFY_MARGINS)
        summary["identity_range"] = gen.VERIFY_RANGE
    return summary


def write_sizes(workload: str, seed: int, trace: bool, ops) -> str:
    """Write the work sizes of every op to a file in the checkout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "ops": [gen.op_sizes(workload, op) for op in ops]}, fh)
    return path


def record(workload: str, count: int) -> dict:
    stream = gen.op_stream(workload, gen.DEFAULT_SEED)
    execute = make_executor(workload)
    block = BLOCK[workload]
    digests, failures = [], []
    for _ in range(count // block):
        batch = run_ops(workload, execute, [next(stream) for _ in range(block)])
        failures += check_results(workload, batch.ops, batch.records, batch.errors)
        digests.append(check.block_digest(workload, batch.ops, batch.records))
    return {"blocks": digests, "failures": failures[:MAX_FAILURES_SHOWN]}


def main() -> int:
    args = sys.argv[3:]
    if ROLE == "setup":
        setup(WORKLOAD, int(args[0]))
        return 0
    if ROLE == "measure":
        result = measure(WORKLOAD, int(args[0]), float(args[1]), args[2] == "1")
    elif ROLE == "record":
        result = record(WORKLOAD, int(args[0]))
    else:
        raise SystemExit(f"unknown role {ROLE!r}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
