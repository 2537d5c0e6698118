"""vpboot benchmark: one checked run of one workload, with its metrics.

Usage, from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run reports the end-to-end metrics: the median
time of a pass over the workload in a fresh worker process, at the
reference machine speed (``run_s``, see ``reference_seconds``), the
replicates it completes per second, the median wall time
of ``SETUP_RUNS`` fresh processes that run the workload at its smallest
legal size (``setup_s``) and the worker's peak resident memory. With
``--trace 1`` it runs the workload once untraced and once traced and
reports per-layer metrics from the traced run's spans, plus the tracing
overhead. Every operation's output is checked; the last line of standard
output is the JSON result. Workers run with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 9
#: Wall-clock budget of one run; the caller allows 180 s.
DEADLINE_S = 170.0


def load_reference() -> dict:
    """Outputs of the seed commit, by workload, then seed, then operation."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def spawn(spec: dict, deadline: float):
    """Run one worker to completion; return (result, wall seconds, peak RSS MB).

    ``result`` is None when the worker failed or overran ``deadline``.
    """
    workdir = spec["workdir"]
    spec = {**spec, "result": os.path.join(workdir, f"result-{spec['run']}.json"),
            "spans": os.path.join(workdir, f"spans-{spec['run']}.json")}
    spec_path = os.path.join(workdir, f"spec-{spec['run']}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = {**os.environ, **BLAS_ENV,
           "PYTHONPATH": os.path.join(os.getcwd(), "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             spec_path], env=env, stdout=subprocess.DEVNULL)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return None, wall, 0.0
    with open(spec["result"]) as fh:
        result = json.load(fh)
    if spec["trace"]:
        with open(spec["spans"]) as fh:
            result["trace"] = json.load(fh)
    return result, wall, usage.ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, with the reasons for the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def judge(self, wl, result, expected, reference=None) -> None:
        """Check every output of one or more worker results.

        ``result`` holds, per operation, the outputs of every pass (or of
        every fresh process). The first is checked against the oracle and
        the reference; the others must equal it exactly.
        """
        per_call = wl.operations_per_call()
        if result is None:
            self.attempted += per_call * len(expected)
            self.failed += per_call * len(expected)
            self.errors.append("worker process failed or timed out")
            return
        for k, outs in enumerate(result["outputs"]):
            errors = self._check(wl, outs[0], expected[k],
                                 reference[k] if reference else None)
            for out in outs:
                self.attempted += per_call
                errs = errors if out == outs[0] else [
                    f"operation {k}: output differs between passes of one seed"]
                if errs:
                    self.failed += per_call
                    self.errors.extend(errs)

    @staticmethod
    def _check(wl, output, expected, reference) -> list[str]:
        if isinstance(output, dict) and "error" in output:
            return [output["error"]]
        try:
            errors = wl.check(output, expected)
            if reference is not None:
                errors += workloads.compare(wl.summary(output), reference, "reference")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            errors = [f"malformed output: {type(exc).__name__}: {exc}"]
        return errors


def pass_seconds(result) -> float:
    """Median wall time of each operation, summed over one pass."""
    return sum(statistics.median(t) for t in result["times"])


def reference_seconds(name: str, result) -> float:
    """``pass_seconds`` at the speed of the reference machine.

    The shared host's speed drifts by tens of percent over minutes. The
    worker runs the workload's reference kernel, fixed work on the oracle,
    between the operations, so both sample the same moments. The pass time
    is divided by the kernel's median time in the run and multiplied by
    the kernel's fixed reference time, ``workloads.KERNEL_S``.
    """
    return (pass_seconds(result) / statistics.median(result["kernel_times"])
            * workloads.KERNEL_S[name])


def measure(name: str, seed: int, seconds: int, trace: bool, workdir: str,
            deadline: float):
    wl = workloads.build(name, seed, workdir)
    wl.prepare()
    expected = wl.expected()
    reference = load_reference().get(name, {}).get(str(seed))
    tally = Tally()
    base = {"workload": name, "seed": seed, "workdir": workdir,
            "seconds": seconds, "smallest": False, "trace": 0}

    def setup(runs):
        return [spawn({**base, "run": f"setup{r}", "smallest": True,
                       "seconds": 0}, deadline) for r in runs]

    # Set-up runs go on both sides of the main run, so that they sample
    # the machine at the start and at the end of the run.
    setups = [] if trace else setup(range(SETUP_RUNS // 2))
    plain, _, rss = spawn({**base, "run": "main"}, deadline)
    tally.judge(wl, plain, expected, reference)
    if not trace:
        setups += setup(range(SETUP_RUNS // 2, SETUP_RUNS))
        small = workloads.build(name, seed, workdir, smallest=True)
        small_expected = small.expected()
        done = [res for res, _, _ in setups if res is not None]
        for _ in range(SETUP_RUNS - len(done)):
            tally.judge(small, None, small_expected)
        if done:  # one result whose passes are the fresh processes
            tally.judge(small, {"outputs": [
                [out for res in done for out in res["outputs"][k]]
                for k in range(len(done[0]["outputs"]))]}, small_expected)
    if plain is None:
        return tally, {}
    run_s = reference_seconds(name, plain)
    if not trace:
        return tally, {
            "run_s": (run_s, "s"),
            "replicates_per_s": (wl.units() / run_s, "1/s"),
            "setup_s": (statistics.median(wall for _, wall, _ in setups), "s"),
            "peak_rss_mb": (rss, "MB")}
    traced, _, _ = spawn({**base, "run": "traced", "trace": 1}, deadline)
    tally.judge(wl, traced, expected, reference)
    if traced is None:
        return tally, {}
    for err in traced["trace"]["errors"]:
        print(err, file=sys.stderr)
    metrics = spans.layer_metrics(
        traced["trace"], sum(map(sum, traced["times"])),
        len(traced["times"]), wl.units())
    wall_s = pass_seconds(plain)
    metrics["trace.overhead_s"] = (pass_seconds(traced) - wall_s, "s")
    metrics["cli.import_s"] = (plain["import_s"], "s")
    metrics["wall.run_s"] = (wall_s, "s")
    metrics["wall.kernel_ms"] = (
        statistics.median(plain["kernel_times"]) * 1e3, "ms")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    src = os.path.join(os.getcwd(), "src", "vpboot", "__init__.py")
    if not os.path.isfile(src):
        print(f"perfbench: {src} not found; run from the root of a vpboot "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(os.getcwd(), ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tally, metrics = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in tally.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
