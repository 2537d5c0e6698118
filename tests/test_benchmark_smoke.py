"""The sweep-generate benchmark runs and reproduces the recorded outputs.

Seed 0 of ``perfbench/run.py`` is compared with the outputs recorded in
``perfbench/reference.json``, so a generator whose random streams or
arithmetic drift from the recorded ones fails here, not only in a
benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_sweep_generate_benchmark_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-generate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
