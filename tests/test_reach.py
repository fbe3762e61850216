"""What the product reaches.  ``tools/reach.py`` traces, in a fresh
interpreter, every golden CLI transcript and the ``table`` workload's
library calls; this module pins each ``src/`` function that the trace
never enters, with its reason, as ``tools/mutants.EQUIVALENT`` pins the
mutants no test can kill.  A function that nothing reaches fails here
until a golden enters it or it gets a row, and so do a row whose
function is now reached and a row whose function is gone.  The trace's
float audit must find nothing.

The reasons form a closed set:

* ``error path``: a refusal that no well-formed call takes;
* ``record protocol``: what every ``_record`` value supports, which no
  command uses;
* ``library API``: supported for library callers and named in the
  README's Library section (a closure by the function that makes it);
* ``waits for item N``: API that ROADMAP.md's item N gives a caller.
"""

import importlib.util
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "reach.py")

ERROR_PATH = "error path"
RECORD_PROTOCOL = "record protocol"
LIBRARY = "library API"
ITEM_4 = "waits for item 4"
ITEM_10 = "waits for item 10"

UNREACHED = {
    "_record._bad_arguments": ERROR_PATH,
    "_record._no_setattr": ERROR_PATH,
    "_record._no_delattr": ERROR_PATH,
    "_record.record.<locals>.__eq__": RECORD_PROTOCOL,
    "_record.record.<locals>.__hash__": RECORD_PROTOCOL,
    "_record.record.<locals>.__repr__": RECORD_PROTOCOL,
    # the program builds every value through scalar._quad and decides
    # every order through _sign and _rational_cmp
    "scalar.QuadNumber.__init__": LIBRARY,
    "scalar._order.<locals>.compare": LIBRARY,
    "scalar._cmp": LIBRARY,
    "scalar.QuadNumber.__hash__": LIBRARY,
    "scalar.QuadNumber.__floor__": LIBRARY,
    "scalar.QuadNumber.as_rational": LIBRARY,
    "scalar.QuadNumber.__repr__": LIBRARY,
    # the integer view (A, B, Q, m); combine tests its Fraction
    # candidates against 1/sqrt(d) through _rational_cmp
    "scalar.QuadNumber.parts": LIBRARY,
    "scalar.quad_from_json": LIBRARY,
    # the slope-identity scan calls the kernel, _top_ratio
    "blowup.top_product": LIBRARY,
    "blowup.DivisorClass.__str__": LIBRARY,
    # the ten worked curves and their descriptor JSON, which the CLI
    # reads but never writes
    "catalog.standard_catalog": LIBRARY,
    "catalog.serialize_descriptor": LIBRARY,
    # the certified source of gamma, which no descriptor feeds yet
    "bounds.gamma_lower": ITEM_4,
    # the kernel-bundle premise of Reider's Bogomolov argument
    "blowup.ChernData.__init__": ITEM_10,
    "blowup.chern_of_kernel": ITEM_10,
    "blowup.discriminant_dot_heta": ITEM_10,
    "blowup.bogomolov_unstable": ITEM_10,
    "blowup.DivisorClass.__sub__": ITEM_10,
}
REASONS = {ERROR_PATH, RECORD_PROTOCOL, LIBRARY, ITEM_4, ITEM_10}

_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)
FUNCTIONS = set(reach.functions().values())


@pytest.fixture(scope="module")
def trace():
    """(unreached functions, float findings), as the tool prints them
    from a fresh interpreter."""
    out = subprocess.run([sys.executable, TOOL], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    unreached = {line.split(" ", 1)[1] for line in out if line.startswith("unreached ")}
    assert out[0] == f"entered {len(FUNCTIONS - unreached)} of {len(FUNCTIONS)} functions"
    return unreached, [line for line in out if line.startswith("float ")]


def test_every_unreached_function_has_a_row(trace):
    unreached, _ = trace
    assert sorted(unreached - UNREACHED.keys()) == []


def test_no_row_names_a_reached_function(trace):
    unreached, _ = trace
    assert sorted(UNREACHED.keys() & (FUNCTIONS - unreached)) == []


def test_no_row_names_a_function_that_is_gone():
    assert sorted(UNREACHED.keys() - FUNCTIONS) == []


def test_the_float_audit_finds_nothing(trace):
    _, floats = trace
    assert floats == []


def test_every_reason_is_from_the_closed_set():
    assert set(UNREACHED.values()) <= REASONS


def test_the_readme_library_section_names_every_library_row():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    # "scalar.QuadNumber.__hash__" as `QuadNumber.__hash__`, a closure
    # such as "scalar._order.<locals>.compare" as `_order`
    names = [qualname.split(".", 1)[1].split(".<locals>.")[0]
             for qualname, reason in UNREACHED.items() if reason == LIBRARY]
    assert [n for n in names if not re.search(rf"`{re.escape(n)}[`(]", library)] == []


def test_the_trace_refuses_an_interpreter_that_imported_the_package():
    # import time counts as reached only if the tracer is set first
    import curvebounds  # noqa: F401
    with pytest.raises(RuntimeError, match="fresh interpreter"):
        reach.trace()
