"""tools/code_lines.py counts the lines that hold a statement's token:
not blank lines, comments or docstrings."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "code_lines.py")

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line


# a comment line
def f(x):
    """Docstring."""
    s = """a string value
spanning two lines"""
    return (x +
            1)


class C:
    "one-line docstring"
    y = ("implicitly "
         "concatenated")
'''


def test_counts_statement_lines_only(tmp_path):
    p = tmp_path / "sample.py"
    p.write_text(SAMPLE)
    out = subprocess.run([sys.executable, TOOL, str(p), str(p)], capture_output=True,
                         text=True, check=True, timeout=30).stdout
    # import, def, s (2 lines), return (2 lines), class, y (2 lines)
    assert out == f"      9 {p}\n      9 {p}\n     18 total\n"
