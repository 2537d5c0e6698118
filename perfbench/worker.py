"""One workload run in a fresh process: import vpboot, loop, write the result.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``src`` on
``PYTHONPATH``; ``run.py`` writes the spec and reads the result file it
names. The loop runs whole passes over the workload's operations until
``seconds`` have elapsed (one pass when ``seconds`` is 0). Each operation
is timed on its own; its output is kept for the parent to check.

In an untraced timed run, each operation is followed by the workload's
reference kernel, repeated until it has taken ``KERNEL_SHARE`` of the
operation's time. The kernel does fixed work, so its timings sample the
machine's speed at the same moments as the operations do.
"""

from __future__ import annotations

import json
import sys
import time

#: Time spent in the reference kernel, as a share of the operations' time.
KERNEL_SHARE = 0.15


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import vpboot.cli  # noqa: F401  (the import users pay for)
    import_s = time.perf_counter() - t0

    import spans
    import workloads

    wl = workloads.build(spec["workload"], spec["seed"], spec["workdir"],
                         spec["smallest"])
    ops = wl.operations()
    tracer = kernel = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    elif not spec["smallest"]:
        kernel = wl.reference_kernel()
        kernel()  # warm-up, not timed
    times = [[] for _ in ops]
    outputs = [[] for _ in ops]
    kernel_times = []
    start = time.perf_counter()
    n_done = 0
    while True:
        for k, op in enumerate(ops):
            if tracer:
                tracer.op = n_done
            t = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # recorded as a failed operation
                out = {"error": f"{type(exc).__name__}: {exc}"}
            times[k].append(time.perf_counter() - t)
            outputs[k].append(out)
            n_done += 1
            spent = 0.0
            while kernel and spent < KERNEL_SHARE * times[k][-1]:
                t = time.perf_counter()
                kernel()
                kernel_times.append(time.perf_counter() - t)
                spent += kernel_times[-1]
        if time.perf_counter() - start >= spec["seconds"]:
            break
    if tracer:
        tracer.op = -1
        probe_errors = spans.probe(spec["seed"], spec["workdir"])
        tracer.dump(spec["spans"], f"{spec['workload']}-{spec['seed']}-{spec['run']}",
                    probe_errors)
    with open(spec["result"], "w") as fh:
        json.dump({"import_s": import_s, "times": times,
                   "kernel_times": kernel_times, "outputs": outputs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
