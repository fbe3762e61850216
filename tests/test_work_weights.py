"""tools/work_weights.py times a replay point, an identity class and a
sweep system and prints each, as a median with its quartiles, and as a
weight in replay points.  Timings vary from host to host, so only the
shape of the output is checked."""

import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "work_weights.py")


def test_prints_one_weight_per_kind_of_work():
    out = subprocess.run([sys.executable, TOOL, "--quick"], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    header, *rows = out.splitlines()
    assert re.fullmatch(r"# Python \S+ on \S*, \S+ cpus, median of 3", header)
    kinds = []
    for row in rows:
        m = re.fullmatch(r"(\S+) +(-?\d+\.\d\d) us  \[(-?\d+\.\d\d), (-?\d+\.\d\d)\]"
                         r"  weight (\d+)", row)
        assert m, row
        kinds.append(m[1])
        assert float(m[3]) <= float(m[2]) <= float(m[4])
        assert int(m[5]) >= 1
    assert kinds == ["replay-point", "identity-class", "sweep-system"]
    # a replay point is the unit
    assert rows[0].endswith("weight 1")
