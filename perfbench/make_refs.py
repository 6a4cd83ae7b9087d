#!/usr/bin/env python3
"""Regenerate the stored references in ``refs/`` from the current library.

Every pool entry of a workload is run once and its reference outputs are
written, one entry per line. The benchmark compares each timed item against
these, so regenerate them only when a change is meant to alter outputs, and
say so; a change that claims a speed-up must leave them untouched.

    python3 perfbench/make_refs.py [workload ...]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def reference(job):
    name, i = job
    wl = workloads.WORKLOADS[name]
    inp = wl.make_input(i)
    return wl.reference(inp, wl.run(inp))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    (HERE / "refs").mkdir(exist_ok=True)
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        for name in args.workloads:
            wl = workloads.WORKLOADS[name]
            refs = pool.map(reference, [(name, i) for i in range(wl.POOL)], chunksize=16)
            with open(HERE / "refs" / f"{name}.json", "w") as fh:
                fh.write(f'{{"workload": "{name}", "pool": {wl.POOL}, "refs": [\n')
                fh.write(",\n".join(json.dumps(r) for r in refs))
                fh.write("\n]}\n")
            if name == "audit-battery":
                print(f"{name}: {sum(r[0] for r in refs)} potential-claim violations over {wl.POOL} runs")
            print(f"{name}: wrote {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
