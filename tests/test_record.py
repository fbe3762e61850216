"""The package's result types are frozen value records, and importing the
CLI loads neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curvebounds._record import asdict, record, replace
from curvebounds.blowup import E, H, ChernData, CurveGeometry, DivisorClass
from curvebounds.replay import Box, GonalityMode, RestrictionMode
from curvebounds.seshadri import Evidence, make_evidence

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, curvebounds.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_positional_keyword_and_default_construction():
    c = CurveGeometry(5, 1)
    assert (c.d, c.g) == (5, 1)
    assert c == CurveGeometry(d=5, g=1) == CurveGeometry(5, g=1)
    m = RestrictionMode(4)
    assert (m.c2, m.l_min) == (4, 0)
    assert m == RestrictionMode(c2=4) == RestrictionMode(4, 0) == RestrictionMode(4, l_min=0)
    assert RestrictionMode(4, l_min=2).l_min == 2
    assert Evidence("regularity", (3,)).note == ""


@pytest.mark.parametrize("make", [
    lambda: CurveGeometry(5),
    lambda: CurveGeometry(g=1),
    lambda: CurveGeometry(5, 1, 3),
    lambda: CurveGeometry(5, 1, r=3),
    lambda: RestrictionMode(4, 0, 1),
    lambda: CurveGeometry(5, 1, genus=1),
    lambda: CurveGeometry(5, 1, d=5),
    lambda: GonalityMode(),
    lambda: GonalityMode(j=3),
])
def test_missing_or_unknown_argument_raises_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_records_are_frozen():
    c = CurveGeometry(5, 1)
    with pytest.raises(AttributeError):
        c.d = 6
    with pytest.raises(AttributeError):
        del c.g
    with pytest.raises(AttributeError):
        c.extra = 1
    with pytest.raises(AttributeError):
        DivisorClass(1, 2).x = 3
    assert c == CurveGeometry(5, 1)


def test_equality_is_by_type_and_fields():
    assert hash(CurveGeometry(5, 1)) == hash(CurveGeometry(d=5, g=1))
    assert hash(RestrictionMode(4)) == hash(RestrictionMode(4, l_min=0))
    assert len({GonalityMode(3), GonalityMode(k=3), GonalityMode(4)}) == 2
    assert DivisorClass(1, 0) == H and hash(DivisorClass(1, 0)) == hash(H)
    assert CurveGeometry(5, 1) != (5, 1)
    assert RestrictionMode(4) != RestrictionMode(4, 1)
    assert GonalityMode(3) != (3,)
    assert RestrictionMode(3, 0) != GonalityMode(3)
    assert CurveGeometry(5, 1) != CurveGeometry(5, 2)


def test_repr_matches_the_dataclass_format():
    assert repr(CurveGeometry(d=5, g=1)) == "CurveGeometry(d=5, g=1)"
    assert repr(GonalityMode(3)) == "GonalityMode(k=3)"
    assert repr(RestrictionMode(c2=4)) == "RestrictionMode(c2=4, l_min=0)"
    assert repr(DivisorClass(1, Fraction(-1, 5))) == (
        "DivisorClass(x=Fraction(1, 1), y=Fraction(-1, 5))")
    assert repr(make_evidence("global_generation", (1, 2), note="x")) == (
        "Evidence(kind='global_generation', params=(1, 2), note='x')")
    assert repr(Box(0, 2, -1, 0, ("n",))) == (
        "Box(x_min=0, x_max=2, y_min=-1, y_max=0, notes=('n',))")
    assert repr(ChernData(H - E, 2, Fraction(1, 3))) == (
        "ChernData(c1=DivisorClass(x=Fraction(1, 1), y=Fraction(-1, 1)), "
        "c2_h=Fraction(2, 1), c2_f=Fraction(1, 3))")


def test_post_init_and_own_init_still_run():
    with pytest.raises(ValueError):
        CurveGeometry(d=0, g=0)
    with pytest.raises(ValueError):
        CurveGeometry(5, -1)
    assert DivisorClass(1, 2).y == Fraction(2) and isinstance(DivisorClass(1, 2).y, Fraction)
    assert ChernData(H, 1, 2).c2_f == Fraction(2)


def test_replace_and_asdict():
    c = CurveGeometry(5, 1)
    assert asdict(c) == {"d": 5, "g": 1}
    assert replace(c, g=2) == CurveGeometry(5, 2)
    assert c == CurveGeometry(5, 1)
    m = RestrictionMode(4)
    assert asdict(m) == {"c2": 4, "l_min": 0}
    assert replace(m, l_min=2) == RestrictionMode(4, 2)
    assert asdict(Evidence("regularity", (3,))) == {
        "kind": "regularity", "params": (3,), "note": ""}
    with pytest.raises(ValueError):
        replace(c, d=0)
    with pytest.raises(TypeError):
        replace(c, genus=2)


@record
class _Shown:
    raw: tuple
    tail: int = 0
    __record_view__ = {"raw": "text"}

    @property
    def text(self):
        return "-".join(map(str, self.raw))


def test_asdict_shows_a_property_in_place_of_its_field():
    v = _Shown((1, 2), 3)
    assert list(asdict(v).items()) == [("text", "1-2"), ("tail", 3)]
    # replace still works on the fields themselves
    assert replace(v, tail=4) == _Shown((1, 2), 4)
    assert _Shown.__record_fields__ == ("raw", "tail")
