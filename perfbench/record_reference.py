"""Record the reference digests of the default seed into reference.json.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good (the reference was
recorded at the seed commit); every later run compares against it.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import gen  # noqa: E402
from run import child_env  # noqa: E402

# ops recorded per workload: more than one run of the default seed
# completes at the seed commit
RECORDED_OPS = {"desk": 200, "table": 8000, "sweep": 400, "verify": 1000}


def main() -> int:
    env = child_env(os.getcwd())
    blocks = {}
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "record",
             workload, str(RECORDED_OPS[workload])],
            env=env, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failures"]:
            print(f"{workload}: checks failed, nothing recorded: "
                  f"{result['failures']}", file=sys.stderr)
            return 1
        blocks[workload] = result["blocks"]
        print(f"{workload}: {len(result['blocks'])} blocks")
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": gen.DEFAULT_SEED, "blocks": blocks}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
