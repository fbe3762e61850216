"""Names that the README lists as removed stay gone: neither their module
nor the package re-exports them, no record keeps a removed field, and
the README still names each one beside its replacement."""

import importlib
import os
import re

import pytest

import curvebounds

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

REMOVED = [
    ("bounds", "gonality_bound_general_r"),
    ("bounds", "GeneralRGonalityReport"),
    ("bounds", "pencil_degree_bound_subvariety"),
    ("blowup", "delta_eta_compact"),
    ("blowup", "delta_eta_segre"),
    ("blowup", "halphen_f"),
    ("blowup", "genus_consistency"),
    ("blowup", "triple_product"),
    ("errors", "UnsupportedDimension"),
    ("errors", "NonpositiveEpsilon"),
    ("scalar", "quad_cmp"),
    ("scalar", "sqrt_rational"),
    ("scalar", "quad_add"),
    ("scalar", "quad_mul"),
    ("scalar", "quad_neg"),
    ("scalar", "quad_min"),
    ("scalar", "quad_max"),
    ("scalar", "floor_quad"),
    ("scalar", "ceil_quad"),
    ("seshadri", "make_evidence"),
    ("seshadri", "bound_from_evidence"),
    ("seshadri", "EvidenceBound"),
    ("bounds", "linked_line_claim_gap"),
    *[("seshadri", kind) for kind in (
        "degree_default", "global_generation", "regularity", "secant_line",
        "complete_intersection", "linked_line", "normal_bundle_s",
        "bundle_seshadri", "residual_reduced", "assert_exact")],
]


# (module, record, field)
REMOVED_FIELDS = [
    ("bounds", "CertificationResult", "report"),
]


@pytest.fixture(scope="module")
def readme():
    with open(README, encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("module,name", REMOVED, ids=[name for _, name in REMOVED])
def test_a_removed_name_stays_gone(readme, module, name):
    assert not hasattr(importlib.import_module(f"curvebounds.{module}"), name)
    assert not hasattr(curvebounds, name)
    # as `name`, `module.name` or the call `name(...)`
    assert re.search(rf"`({module}\.)?{name}[`(]", readme)


@pytest.mark.parametrize("module,record,field", REMOVED_FIELDS,
                         ids=[f"{r}.{f}" for _, r, f in REMOVED_FIELDS])
def test_a_removed_field_stays_gone(readme, module, record, field):
    cls = getattr(importlib.import_module(f"curvebounds.{module}"), record)
    assert field not in cls.__record_fields__
    assert not hasattr(cls, field)
    assert f"`{record}.{field}`" in readme
