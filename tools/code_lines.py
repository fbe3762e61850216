"""Count the code lines of Python files: lines that hold a token of a
statement, so blank lines, comments and docstrings (any statement that
is only a string) do not count.  Stdlib ``tokenize`` only.

Usage: python tools/code_lines.py FILE...

Prints one "<count> <file>" line per file, as ``wc -l`` does, then the
total.  It reports and gates nothing.
"""

from __future__ import annotations

import sys
import tokenize

_LAYOUT = {tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE:
                # a statement that is only string literals is a docstring
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
