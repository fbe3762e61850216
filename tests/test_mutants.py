"""tools/mutants.py's table stays applicable to the code: each row's old
texts occur exactly once in its file, the mutated file still compiles,
its tests exist and its CHANGES.md entry is there; each equivalent
mutant applies and compiles too.  No mutant is run here;
``python tools/mutants.py`` runs them."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


CHANGES_LINES = read("CHANGES.md").splitlines()


def test_rows_have_distinct_names():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 25


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_row_applies_once_and_compiles(m):
    text = read(m.file)
    changed = mutants.mutated(m, text)
    assert changed != text
    compile(changed, m.file, "exec")
    assert all(os.path.isfile(os.path.join(ROOT, t)) for t in m.tests)
    assert any(line.startswith(m.source) for line in CHANGES_LINES)


@pytest.mark.parametrize("m", mutants.EQUIVALENT, ids=lambda m: m.name)
def test_equivalent_row_applies_once_and_compiles(m):
    text = read(m.file)
    changed = mutants.mutated(m, text)
    assert changed != text and m.reason
    compile(changed, m.file, "exec")


def test_an_old_text_that_is_not_there_is_refused():
    row = mutants.row("blowup", "absent", "-", ("no such text", ""))
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.mutated(row, "x = 1\n")
