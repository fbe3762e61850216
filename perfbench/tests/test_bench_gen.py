"""The generator is deterministic, and curvebounds accepts every op it
generates: each op runs and passes the benchmark's output checks."""

import itertools

import pytest

import curvebounds
import curvebounds.cli  # noqa: F401
import check
import exact
import gen
import workloads
from curvebounds.replay import GonalityMode, RestrictionMode, build_system
from curvebounds.blowup import CurveGeometry

# ops per workload run through the program here; enough to meet every
# family, command and mode several times
CHECKED_OPS = {"desk": 40, "table": 300, "sweep": 12, "verify": 30}


def first_ops(workload, seed, count):
    return list(itertools.islice(gen.op_stream(workload, seed), count))


def as_text(op):
    return repr(op)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_ops(workload):
    a = first_ops(workload, 7, 30)
    b = first_ops(workload, 7, 30)
    assert [as_text(op) for op in a] == [as_text(op) for op in b]
    assert as_text(gen.warmup_op(workload, 7)) == as_text(gen.warmup_op(workload, 7))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_other_ops(workload):
    a = [as_text(op) for op in first_ops(workload, 7, 30)]
    b = [as_text(op) for op in first_ops(workload, 8, 30)]
    assert a != b


def run_in_process(workload, op):
    """The op's raw output, with desk commands run through cli.main in
    this process instead of a fresh interpreter."""
    if workload == "desk":
        code, out = workloads.call_main(curvebounds, op["argv"])
        return code, out, ""
    execute = {"table": workloads.execute_table, "sweep": workloads.execute_sweep,
               "verify": workloads.execute_verify}[workload]
    return execute(curvebounds, op)


@pytest.mark.parametrize("seed", [gen.DEFAULT_SEED, 2])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_program_accepts_every_generated_op(workload, seed):
    ops = first_ops(workload, seed, CHECKED_OPS[workload])
    ops.append(gen.warmup_op(workload, seed))
    for op in ops:
        record = workloads.EXTRACT[workload](op, run_in_process(workload, op))
        check.CHECK[workload](op, record)


def test_generated_curves_stay_in_their_families():
    for workload in gen.WORKLOADS:
        for op in first_ops(workload, 3, 60):
            c = op["curve"]
            assert c.d <= gen.MAX_DEGREE[workload]
            assert c.eta * c.eta * c.d < 1
            if c.family == "complete_intersection":
                assert c.params["a"] > c.params["b"] >= 1
            elif c.family == "linked_line":
                assert c.params["a"] >= c.params["b"] >= 2
            else:
                assert c.d >= 3 and 0 <= c.g <= exact.castelnuovo_genus(c.d)


def test_sweep_boxes_match_the_program():
    for op in first_ops("sweep", 4, 12):
        c = op["curve"]
        curve = CurveGeometry(d=c.d, g=c.g)
        for param, (mode, box, _) in enumerate(op["enumerations"]):
            replay_mode = (GonalityMode(k=param) if mode == "gonality"
                           else RestrictionMode(c2=param))
            got = build_system(curve, c.eta, replay_mode).box
            assert (got.x_min, got.x_max, got.y_min, got.y_max) == box


def test_sweep_and_verify_sizes_stay_in_their_bands():
    for op in first_ops("sweep", 5, 40):
        points = gen.op_points(op)
        params = op["stop"] - op["start"] + 1
        assert params >= gen.SWEEP_MIN_PARAMS
        assert points <= gen.SWEEP_POINTS[op["mode"]] or params == gen.SWEEP_MIN_PARAMS
    for op in first_ops("verify", 5, 40):
        assert gen.op_points(op) <= gen.VERIFY_MAX_POINTS
