"""Measure the benchmark's run-to-run spread and record a baseline.

Usage, from the repository root:

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--write]

Runs ``run.py`` once per workload and seed, as the benchmark's caller
does, then twice traced per workload, failing if any count differs
between the two traced runs. Prints, for every end-to-end metric,
the median over the seeds and the quartile spread (q3 - q1) / median next
to the metric's bound in BENCHMARK.json. With ``--write`` the figures, the
machine, the software and the workload parameters go to baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: incorrect\n{proc.stderr}")
    return result


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": "1 in every worker (OPENBLAS_NUM_THREADS, "
                            "OMP_NUM_THREADS, MKL_NUM_THREADS)"}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--workloads",
                        help="comma-separated; default: those in BENCHMARK.json")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0)["metrics"] for seed in args.seeds]
        e2e = {}
        for metric, bound in bounds.items():
            values = [r[metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[metric] = {"median": statistics.median(values), "q1": q1,
                           "q3": q3, "spread": (q3 - q1) / statistics.median(values),
                           "bound": bound, "values": values}
            print(f"{name:18} {metric:18} median {e2e[metric]['median']:12.6g} "
                  f"spread {e2e[metric]['spread']:7.4f} (bound {bound})", flush=True)
        # Two traced runs of one seed: every count must repeat exactly.
        layers, again = (run_once(name, args.seeds[0], seconds, 1)["metrics"]
                         for _ in range(2))
        moved = [k for k, v in layers.items() if v["unit"] in ("count", "flop")
                 and v["value"] != again[k]["value"]]
        if moved:
            raise SystemExit(f"{name}: counts differ between runs: {moved}")
        _, full, small, why = workloads.WORKLOADS[name]
        report["workloads"][name] = {
            "why": why, "params": full, "smallest": small,
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in layers.items()},
            "counts_repeat": True}
    if args.write:
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
