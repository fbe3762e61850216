"""The curvebounds benchmark.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload {desk,table,sweep,verify}
                           --seed N --seconds S --trace {0,1}

The program is taken from ``src/`` of the current directory; nothing is
installed.  A run times set-up in several fresh processes, then runs the
workload's closed loop (one client) for S seconds in one more process,
checks every op's exact output, and prints the metrics by name and unit,
then one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs part of the
loop untraced, replays the same ops under the outside-in tracer and
reports the per-layer metrics, the import split from ``-X importtime``
and the interpreter's own start-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
import tracer  # noqa: E402
from gen import WORKLOADS  # noqa: E402

WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_PROCESSES = 7     # fresh processes timed from spawn to ready
STARTUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MEASURE_GRACE_S = 120   # beyond --seconds, for the traced replay and the checks


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def check_checkout(root: str, env: dict) -> None:
    """The program must come from this checkout's src/; importing it
    once also leaves its bytecode cache warm."""
    if not os.path.isfile(os.path.join(root, "src", "curvebounds", "__init__.py")):
        raise BenchError("no src/curvebounds in the current directory; "
                         "run from the root of a curvebounds checkout")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import curvebounds, curvebounds.cli; print(curvebounds.__file__)"],
        env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    where = os.path.realpath(proc.stdout.strip() or ".")
    if proc.returncode != 0 or not where.startswith(
            os.path.realpath(os.path.join(root, "src")) + os.sep):
        raise BenchError(f"curvebounds does not import from {root}/src: "
                         f"{proc.stderr.strip() or where}")


def _kill(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait()


def start_worker(env: dict, argv: list[str], importtime: bool):
    """Start a worker; return it and the seconds until it printed READY."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + [WORKER] + argv, env=env, text=True,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if importtime else None)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        _kill(proc)
        raise BenchError(f"worker {argv} did not get ready: {line.strip()!r}")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float):
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError(f"worker timed out after {timeout:.0f} s") from None


def import_split(text: str) -> dict:
    """Milliseconds of import per layer from ``-X importtime`` output.

    Each module's self time is charged to the nearest curvebounds layer
    at or above it in the import tree, so stdlib modules count for the
    layer that first imported them.  ``total`` is the cumulative time of
    the top-level curvebounds imports."""
    # (depth, name, self us, children, cumulative us), in post order
    pending: list = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, field.strip(), int(own), children, int(cumulative)))
    split = {layer: 0.0 for layer in tracer.LAYERS}

    def walk(node, owner):
        _, name, own, children, _ = node
        layer = name.rsplit(".", 1)[-1]
        if name.startswith(tracer.PACKAGE + ".") and layer in split:
            owner = layer
        if owner is not None:
            split[owner] += own / 1000
        for child in children:
            walk(child, owner)

    for node in pending:
        walk(node, None)
    split["total"] = sum(node[4] for node in pending
                         if node[1].split(".")[0] == tracer.PACKAGE) / 1000
    return split


def startup_ms(env: dict) -> float:
    samples = []
    for _ in range(STARTUP_SAMPLES):
        before = calibrate.calibration_ms()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=SETUP_TIMEOUT_S)
        raw = time.perf_counter() - start
        samples.append(raw * calibrate.scale(before, calibrate.calibration_ms()))
    return statistics.median(samples) * 1000


def per_layer(result: dict, imports: dict, python_startup_ms: float) -> dict:
    """The per-layer metrics of a traced run, keyed by name: (value, unit)."""
    t = result["trace"]
    n = t["ops"]
    scale = t["scale"]
    layer_self = {layer: 0.0 for layer in tracer.LAYERS}
    layer_calls = {layer: 0 for layer in tracer.LAYERS}
    by_name: dict = {}
    root_s = 0.0
    for key, (calls, own, inclusive) in t["totals"].items():
        layer, name = key.split(":", 1)
        by_name[name] = (calls, own * scale, inclusive * scale)
        if layer in layer_self:
            layer_self[layer] += own * scale
            layer_calls[layer] += calls
        elif layer == tracer.ROOT_LAYER:
            root_s += inclusive * scale

    def ratio(a, b):
        return a / b if b else 0.0

    def get(name, i):
        return by_name.get(name, (0, 0.0, 0.0))[i]

    m: dict = {}
    for layer in tracer.LAYERS:
        m[f"{layer}.self_ms_per_op"] = (layer_self[layer] * 1000 / n, "ms")
        m[f"{layer}.calls_per_op"] = (layer_calls[layer] / n, "count")
        m[f"{layer}.share"] = (ratio(layer_self[layer], root_s), "1")
        m[f"{layer}.import_ms"] = (imports[layer], "ms")
    m["replay.points_per_op"] = (t["points"] / n, "count")
    m["replay.us_per_point"] = (ratio(layer_self["replay"] * 1e6, t["points"]), "us")
    m["replay.distinct_point_ratio"] = (ratio(t["distinct_points"], t["points"]), "1")
    m["replay.build_share"] = (ratio(get("build_system", 1), layer_self["replay"]), "1")
    m["replay.systems_per_op"] = (get("build_system", 0) / n, "count")
    m["replay.checked_per_op"] = (t["checked"] / n, "count")
    m["blowup.classes_per_op"] = (t["classes"] / n, "count")
    m["blowup.us_per_class"] = (ratio(layer_self["blowup"] * 1e6, t["classes"]), "us")
    m["scalar.quad_inits_per_op"] = (get("QuadNumber.__init__", 0) / n, "count")
    m["scalar.sqrt_calls_per_op"] = (get("sqrt_rational", 0) / n, "count")
    m["scalar.us_per_call"] = (ratio(layer_self["scalar"] * 1e6,
                                     layer_calls["scalar"]), "us")
    parser_s = get("build_parser", 2) + get("ArgumentParser.parse_args", 2)
    m["cli.parser_ms"] = (parser_s * 1000 / n, "ms")
    m["cli.command_ms"] = ((get("main", 2) - parser_s) * 1000 / n, "ms")
    m["imports.total_ms"] = (imports["total"], "ms")
    m["python.startup_ms"] = (python_startup_ms, "ms")
    m["trace.overhead_ratio"] = (ratio(t["traced_s"], t["untraced_s"]), "1")
    return m


def percentiles(latencies: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, in milliseconds."""
    p90 = (statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 2
           else latencies[0])
    return statistics.median(latencies) * 1000, p90 * 1000


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    lat = result["latencies"]
    p50, p90 = percentiles(lat)
    return {"setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_p90_ms": (p90, "ms"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB")}


def timed_setup(env: dict, argv: list[str], importtime: bool):
    """Seconds from spawning a set-up process until it is ready to run
    ops, scaled; the scale factor; and the process's stderr."""
    before = calibrate.calibration_ms()
    proc, ready = start_worker(env, argv, importtime)
    _, err = finish(proc, SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {err}")
    factor = calibrate.scale(before, calibrate.calibration_ms())
    return ready * factor, factor, err


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    root = os.getcwd()
    env = child_env(root)
    check_checkout(root, env)
    setup_samples, splits = [], []
    for _ in range(SETUP_PROCESSES):
        ready, factor, err = timed_setup(env, ["setup", workload, str(seed)], trace)
        setup_samples.append(ready)
        if trace:
            splits.append({key: ms * factor for key, ms in import_split(err).items()})
    proc, _ = start_worker(
        env, ["measure", workload, str(seed), str(seconds), str(int(trace))], False)
    out, _ = finish(proc, seconds + MEASURE_GRACE_S)
    if proc.returncode != 0:
        raise BenchError(f"measuring process exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if trace:
        imports = {key: statistics.median(s[key] for s in splits)
                   for key in splits[0]}
        metrics = per_layer(result, imports, startup_ms(env))
    else:
        metrics = end_to_end(result, setup_samples)
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    samples = len(result["latencies"])
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}: {samples} timed ops (the sample count behind "
          f"every percentile), work sizes of every op in {result['sizes_file']}")
    print(f"  sizes: {json.dumps(result['sizes'], sort_keys=True)}")
    print(f"  fail_ratio = {result['failed'] / result['attempted']:.6g} (1) "
          f"[{result['failed']} of {result['attempted']} ops]")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} ({unit})")
    raw_p50, raw_p90 = percentiles(result["raw_latencies"])
    print(f"  unscaled: op_p50_ms = {raw_p50:.6g} (ms), op_p90_ms = {raw_p90:.6g} "
          f"(ms); times are scaled to a machine that runs the calibration "
          f"loop in {calibrate.REFERENCE_MS} ms")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
