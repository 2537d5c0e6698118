"""Record the program's outputs for a fixed set of seeds into reference.json.

Usage, from the repository root: ``python3 perfbench/record_reference.py``.
Run it on the commit whose outputs later commits must reproduce. Each
output is checked against the oracle before it is stored.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads

SEEDS = range(21)


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for seed in SEEDS:
            workdir = os.path.join(os.getcwd(), ".perfbench_work",
                                   f"record-{name}-{seed}")
            os.makedirs(workdir, exist_ok=True)
            try:
                wl = workloads.build(name, seed, workdir)
                wl.prepare()
                result, _, _ = run.spawn(
                    {"workload": name, "seed": seed, "workdir": workdir,
                     "seconds": 0, "smallest": False, "trace": 0, "run": 0},
                    time.monotonic() + run.DEADLINE_S)
                tally = run.Tally()
                tally.judge(wl, result, wl.expected())
                if tally.failed:
                    print(f"{name} seed {seed}: {tally.errors}", file=sys.stderr)
                    return 1
                reference[name][str(seed)] = [wl.summary(outs[0])
                                              for outs in result["outputs"]]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: recorded", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
