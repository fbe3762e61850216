"""The tracer's self-time arithmetic, its wrappers, and the import split."""

import itertools
from fractions import Fraction

import pytest

import curvebounds
import curvebounds.cli  # noqa: F401
import tracer
from run import import_split


def test_self_times_on_a_synthetic_call_tree():
    # root [0, 10] calls a [1, 4] and b [5, 9]; b calls c [6, 8]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 5.0, 9.0),
             (3, 2, 6.0, 8.0)]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_self_times_of_a_leaf_and_of_siblings_without_children():
    assert tracer.self_times([(0, -1, 2.0, 5.0)]) == [3.0]
    spans = [(0, -1, 0.0, 4.0), (1, 0, 0.0, 1.0), (1, 0, 1.0, 2.0),
             (1, 0, 2.0, 4.0)]
    assert tracer.self_times(spans) == [0.0, 1.0, 1.0, 2.0]


def test_wrappers_fold_nested_calls_into_totals():
    ticks = itertools.count()
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return "leaf"

    wrapped_leaf = t.wrap(leaf, "scalar", "leaf")

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_middle = t.wrap(middle, "bounds", "middle")
    with t.span("op"):
        assert wrapped_middle() == "leafleaf"
    t.flush()
    # clock reads: op 0, middle 1, leaf 2-3, leaf 4-5, middle 6, op 7
    summary = t.summary()
    assert summary["bench:op"] == [1, 2.0, 7.0]
    assert summary["bounds:middle"] == [1, 3.0, 5.0]
    assert summary["scalar:leaf"] == [2, 2.0, 2.0]
    assert t.spans == [] and t.stack == []


def test_install_traces_the_layers_and_uninstall_restores_them():
    modules = tracer.layer_modules(curvebounds)
    originals = {name: getattr(modules["bounds"], name)
                 for name in ("gonality_bound", "delta_eta", "sqrt_rational")}
    quad_add = curvebounds.scalar.QuadNumber.__add__
    t = tracer.Tracer()
    t.install(modules)
    try:
        curve = curvebounds.blowup.CurveGeometry(d=10, g=16)
        with t.span("op"):
            report = curvebounds.bounds.gonality_bound(curve, Fraction(1, 5))
        t.flush()
    finally:
        t.uninstall()
    assert report.value == 5
    summary = t.summary()
    assert summary["bounds:gonality_bound"][0] == 1
    assert summary["blowup:delta_eta"][0] == 1
    assert summary["scalar:sqrt_rational"][0] == 1
    assert summary["scalar:QuadNumber.__init__"][0] > 0
    root = summary["bench:op"][2]
    assert sum(own for _, own, _ in summary.values()) == pytest.approx(root)
    for name, fn in originals.items():
        assert getattr(modules["bounds"], name) is fn
    assert curvebounds.scalar.QuadNumber.__add__ is quad_add


def test_install_times_parse_args_inside_cli_main():
    t = tracer.Tracer()
    t.install(tracer.layer_modules(curvebounds))
    try:
        with t.span("op"):
            code = curvebounds.cli.main(["surface-restrict", "--variant", "barth",
                                         "--c2", "2", "--a", "5", "--json"])
        t.flush()
    finally:
        t.uninstall()
    assert code == 0
    summary = t.summary()
    for name in ("cli:main", "cli:build_parser", "cli:ArgumentParser.parse_args",
                 "bounds:surface_restriction_checks"):
        assert summary[name][0] == 1, name


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:        50 |         50 |   _io
import time:       100 |        100 |       fractions
import time:       200 |        300 |     curvebounds.scalar
import time:        40 |         40 |     dataclasses
import time:        60 |        400 |   curvebounds.blowup
import time:        10 |        410 | curvebounds
import time:       500 |        500 |   argparse
import time:        30 |        530 | curvebounds.cli
"""


def test_import_split_charges_stdlib_to_the_importing_layer():
    split = import_split(IMPORTTIME)
    assert split["scalar"] == pytest.approx(0.3)     # itself and fractions
    assert split["blowup"] == pytest.approx(0.1)     # itself and dataclasses
    assert split["cli"] == pytest.approx(0.53)       # itself and argparse
    assert split["replay"] == 0
    assert split["total"] == pytest.approx(0.94)     # 410 + 530 us
