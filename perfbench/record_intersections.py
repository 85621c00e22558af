"""Record the brute-force intersection counts of the audit workload's jittered meshes.

    python3 perfbench/record_intersections.py FIRST_SEED LAST_SEED

Writes ``perfbench/intersections.json``: for each seed, the count for each
jittered mesh index. A run of ``audit_existing`` with a recorded seed requires
its brute-force count to equal the recorded one, so a change to the exact
triangle test that moves the brute-force path along with the accelerated one
still fails the check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from aortafit import quadmesh  # noqa: E402


def main(first, last):
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench", "record")
    os.makedirs(scratch, exist_ok=True)
    table = {}
    try:
        for seed in range(first, last + 1):
            cases, _ = workloads.audit_inputs(seed, scratch)
            table[str(seed)] = {
                str(c["index"]): workloads.patch_intersections(quadmesh.load_mesh(c["mesh"]), c["patches"])
                for c in cases
                if c["patches"]
            }
            print(seed, table[str(seed)], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(workloads.RECORDED, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
