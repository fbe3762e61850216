"""The README's examples run as shown.

Each ``sh`` block that shows a ``$ curvebounds ...`` command is run
through ``cli.main`` in process, in a directory holding the files the
README's ``$ echo '...' > file`` lines write, with ``COLUMNS=80``.  The
lines the block shows under a command must be the command's output
lines, in order and adjacent; a ``...`` line stands for any number of
lines.  The Library block is run as Python and its commented values
are checked by value."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from curvebounds import cli
from curvebounds.scalar import QuadNumber

README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
ELLIPSIS = "..."


def fenced_blocks(text, lang):
    """The bodies of the README's ```lang blocks, as lists of lines."""
    return [body.splitlines() for body in
            re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)]


def examples(text):
    """(argv, shown lines, files written so far) for each ``$ curvebounds``
    command of an ``sh`` block, in README order."""
    files, found = {}, []
    for block in fenced_blocks(text, "sh"):
        shown = None
        for line in block:
            if line.startswith("$ echo "):
                # $ echo '<json>' > <file>
                content, _, name = shlex.split(line[2:])[1:]
                files[name] = content + "\n"
            elif line.startswith("$ curvebounds "):
                shown = []
                found.append((shlex.split(line[2:])[1:], shown, dict(files)))
            elif shown is not None:
                shown.append(line)
    return found


def matches(shown, output):
    """True iff ``output`` is ``shown`` with each ``...`` line taken as
    any run of lines, the first and last lines matched at the ends."""
    pattern = "".join(r"(?:.*\n)*" if line.strip() == ELLIPSIS else re.escape(line) + r"\n"
                      for line in shown)
    return re.fullmatch(pattern, output) is not None


EXAMPLES = examples(README_TEXT)


def test_the_readme_shows_four_commands():
    assert [argv[:1] for argv, _, _ in EXAMPLES] == [
        ["invariants"], ["seshadri"], ["gonality"], ["verify"]]
    assert all(shown for _, shown, _ in EXAMPLES)
    assert all("ci52.json" in files for _, _, files in EXAMPLES)


def test_matches_takes_ellipsis_as_any_lines():
    assert matches(["a", ELLIPSIS, "d"], "a\nb\nc\nd\n")
    assert matches(["a", ELLIPSIS], "a\nb\n")
    assert not matches(["a", "d"], "a\nb\nd\n")
    assert not matches(["a"], "a\nb\n")
    assert not matches(["b", ELLIPSIS], "a\nb\n")
    # the README indents its ellipsis like the lines around it
    assert matches(["a", "  ...", "d"], "a\nb\nd\n")


@pytest.mark.parametrize("argv,shown,files", EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in EXAMPLES])
def test_readme_command_prints_what_it_shows(argv, shown, files, tmp_path,
                                             monkeypatch, capsys):
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert matches(shown, out), out


def test_readme_library_block_gives_the_commented_values():
    [block] = fenced_blocks(README_TEXT, "python")
    namespace = {}
    exec("\n".join(block), namespace)
    iv, rep = namespace["iv"], namespace["rep"]
    assert iv.lower == iv.upper == Fraction(1, 5)
    # by value: the repr spells the parts out, QuadNumber(Fraction(5, 1), ...)
    assert rep.value == QuadNumber(5)
    assert rep.value_ceiling == 5
    assert rep.trace
    res = namespace["res"]
    assert res.verdict == "certified"
    assert res.threshold == QuadNumber(Fraction(-31, 2), 3, 30)
