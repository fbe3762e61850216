"""Seeded input generator for the four workloads.

Every op is a plain dict built from ``random.Random`` and the exact
arithmetic in ``exact``; curvebounds itself is never consulted, so the
program receives only the generated descriptors and argv.  The same
(workload, seed) always yields the same op stream.

Curves come from three families, all with eta^2 d < 1 so that every
replay box is bounded:

* complete intersections of type (a, b) with a > b >= 1 (a = b is left
  out: there eta^2 d = 1 and the replay refuses the unbounded box);
* curves linked to a line in a complete intersection of type (a, b),
  a >= b >= 2;
* ``raw`` nondegenerate curves of degree d >= 3 and genus g at most the
  Castelnuovo bound pi(d, 3).

Degrees stay at most a few hundred.  Ops cycle through the families by
index, and sweep and verify ops are sized by the box points they
enumerate, so that every seed gives the same mix of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import exact

WORKLOADS = ("desk", "table", "sweep", "verify")
DEFAULT_SEED = 1

# largest degree per workload; a few hundred at most, so that a cap on
# radicand size would not change which inputs are accepted
MAX_DEGREE = {"desk": 120, "table": 300, "sweep": 40, "verify": 100}

# each workload cycles through the families by op index, so every run
# holds them in the same proportions whatever the seed
FAMILIES = ("complete_intersection", "linked_line", "raw")
DESK_COMMANDS = ("invariants", "seshadri", "gonality", "restrict",
                 "replay-gonality")
SWEEP_MARGIN = 5
# box points enumerated per sweep op, per mode, chosen so that ops of
# both modes take about as long at the seed commit (the restriction mode
# also builds a larger system per parameter), which keeps the latency
# distribution unimodal
SWEEP_POINTS = {"gonality": 3000, "restriction": 2100}
SWEEP_MIN_PARAMS = 10
VERIFY_MARGINS = (0, 5)
VERIFY_RANGE = 8
VERIFY_MAX_POINTS = 600


@dataclass(frozen=True)
class Curve:
    family: str
    params: dict
    d: int
    g: int
    eta: Fraction
    gon_ceiling: int
    res_ceiling: int

    @property
    def descriptor(self) -> str:
        doc: dict = {"kind": {self.family: self.params}}
        if self.family == "raw":
            doc["flags"] = {"nondegenerate": True}
        return json.dumps(doc, separators=(",", ":"))

    @property
    def name(self) -> str:
        short = {"complete_intersection": "ci", "linked_line": "ll",
                 "raw": "raw"}[self.family]
        return "-".join([short] + [str(v) for v in self.params.values()])

    @property
    def k_below(self) -> int:
        """Pencil degree just below the gonality ceiling (0 when the
        bound is vacuous)."""
        return max(0, self.gon_ceiling - 1)

    @property
    def c2_below(self) -> int:
        return max(0, self.res_ceiling - 1)


def make_curve(family: str, params: dict) -> Curve:
    if family == "complete_intersection":
        a, b = params["a"], params["b"]
        d, g = a * b, a * b * (a + b - 4) // 2 + 1
    elif family == "linked_line":
        a, b = params["a"], params["b"]
        d, g = a * b - 1, (a + b - 4) * (a * b - 2) // 2
    else:
        d, g = params["d"], params["g"]
    eta = exact.family_eta(family, params)
    return Curve(family, dict(params), d, g, eta,
                 exact.gonality_ceiling(d, g, eta),
                 exact.restriction_ceiling(d, g, eta))


def random_curve(rng: random.Random, max_degree: int, family: str) -> Curve:
    if family == "complete_intersection":
        # b (b + 1) <= max_degree leaves room for some a > b
        b = rng.randint(1, (math.isqrt(4 * max_degree + 1) - 1) // 2)
        a = rng.randint(b + 1, max_degree // b)
        return make_curve(family, {"a": a, "b": b})
    if family == "linked_line":
        b = rng.randint(2, math.isqrt(max_degree + 1))
        a = rng.randint(b, (max_degree + 1) // b)
        return make_curve(family, {"a": a, "b": b})
    d = rng.randint(3, max_degree)
    return make_curve(family, {"d": d, "g": rng.randint(0, exact.castelnuovo_genus(d))})


def desk_op(rng: random.Random, index: int) -> dict:
    cycle = len(DESK_COMMANDS)
    curve = random_curve(rng, MAX_DEGREE["desk"], FAMILIES[index // (2 * cycle) % 3])
    command = DESK_COMMANDS[index % cycle]
    as_json = (index // cycle) % 2 == 0
    op: dict = {"curve": curve, "command": command, "json": as_json}
    if command == "restrict":
        op["c2"] = rng.randint(0, max(0, curve.res_ceiling) + 2)
        argv = ["restrict", curve.descriptor, "--c2", str(op["c2"])]
    elif command == "replay-gonality":
        op["k"] = curve.k_below
        op["box"] = exact.replay_box(curve.d, curve.eta, "gonality")
        op["enumerations"] = [("gonality", op["box"], 0)]
        argv = ["verify", "replay-gonality", curve.descriptor, "--k", str(op["k"])]
    else:
        argv = [command, curve.descriptor]
    op["argv"] = argv + (["--json"] if as_json else [])
    return op


def table_op(rng: random.Random, index: int) -> dict:
    curve = random_curve(rng, MAX_DEGREE["table"], FAMILIES[index % 3])
    t = max(0, curve.res_ceiling)
    return {"curve": curve, "c2": [max(0, t - 1), t, t + 3]}


def sweep_op(rng: random.Random, index: int) -> dict:
    curve = random_curve(rng, MAX_DEGREE["sweep"], FAMILIES[index // 2 % 3])
    mode = ("gonality", "restriction")[index % 2]
    budget = SWEEP_POINTS[mode]
    # extend the range [0, stop] while its boxes fit the budget
    enumerations, points = [], 0
    while True:
        box = exact.replay_box(curve.d, curve.eta, mode, c2=len(enumerations))
        size = exact.box_points(box, SWEEP_MARGIN)
        if points + size > budget and len(enumerations) >= SWEEP_MIN_PARAMS:
            break
        enumerations.append((mode, box, SWEEP_MARGIN))
        points += size
    stop = len(enumerations) - 1
    argv = ["verify", "sweep", curve.descriptor, "--mode", mode,
            "--start", "0", "--stop", str(stop),
            "--box-margin", str(SWEEP_MARGIN), "--json"]
    return {"curve": curve, "mode": mode, "start": 0, "stop": stop,
            "margin": SWEEP_MARGIN, "enumerations": enumerations,
            "argv": argv}


def verify_op(rng: random.Random, index: int) -> dict:
    # redraw curves whose replays would enumerate more than
    # VERIFY_MAX_POINTS points, so that no cluster of slow ops sits at
    # the 90th percentile; large boxes are the sweep workload's subject
    while True:
        curve = random_curve(rng, MAX_DEGREE["verify"], FAMILIES[index % 3])
        replays = []
        for mode, param in (("gonality", curve.k_below),
                            ("restriction", curve.c2_below)):
            box = exact.replay_box(curve.d, curve.eta, mode, c2=param)
            flag = "--k" if mode == "gonality" else "--c2"
            for margin in VERIFY_MARGINS:
                replays.append({
                    "mode": mode, "param": param, "margin": margin, "box": box,
                    "argv": ["verify", f"replay-{mode}", curve.descriptor,
                             flag, str(param), "--box-margin", str(margin),
                             "--json"]})
        enumerations = [(r["mode"], r["box"], r["margin"]) for r in replays]
        if sum(exact.box_points(box, margin)
               for _, box, margin in enumerations) <= VERIFY_MAX_POINTS:
            break
    identity = {"range": VERIFY_RANGE,
                "argv": ["verify", "identity-sl", curve.descriptor,
                         "--range", str(VERIFY_RANGE), "--json"]}
    return {"curve": curve, "replays": replays, "identity": identity,
            "enumerations": enumerations,
            "classes": (2 * VERIFY_RANGE + 1) ** 2}


_OP_MAKERS = {"desk": desk_op, "table": table_op, "sweep": sweep_op,
              "verify": verify_op}


def op_stream(workload: str, seed: int) -> Iterator[dict]:
    """The workload's ops in order; deterministic in (workload, seed)."""
    make = _OP_MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield make(rng, index)
        index += 1


def warmup_op(workload: str, seed: int) -> dict:
    """An op drawn apart from the timed stream, run once during set-up."""
    return _OP_MAKERS[workload](random.Random(f"{workload}:{seed}:warmup"), 0)


def op_sizes(workload: str, op: dict) -> dict:
    """The work an op asks for: curve, command, parameter range, margin,
    box bounds and identity classes."""
    curve = op["curve"]
    sizes: dict = {"curve": curve.name}
    if workload == "desk":
        sizes.update((key, op[key]) for key in ("command", "json", "c2", "k")
                     if key in op)
        if "box" in op:
            sizes["box"] = list(op["box"])
    elif workload == "table":
        sizes["c2"] = list(op["c2"])
    elif workload == "sweep":
        sizes.update(mode=op["mode"], range=[op["start"], op["stop"]],
                     margin=op["margin"], points=op_points(op))
    else:
        sizes["replays"] = [[r["mode"], r["param"], r["margin"], list(r["box"])]
                            for r in op["replays"]]
        sizes["identity_range"] = op["identity"]["range"]
    return sizes


def op_points(op: dict) -> int:
    """Box points the op's replays enumerate, margins included."""
    return sum(exact.box_points(box, margin)
               for _, box, margin in op.get("enumerations", ()))


def op_distinct_points(op: dict) -> int:
    """Points of the op's distinct (mode, enlarged box) pairs: what a
    replay that enumerated each box once would visit."""
    seen = {(mode, box, margin) for mode, box, margin in op.get("enumerations", ())}
    return sum(exact.box_points(box, margin) for _, box, margin in seen)
