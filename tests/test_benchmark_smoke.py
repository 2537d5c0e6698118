"""The sweep-generate, validation-cca and analyze-rda benchmarks reproduce
their references.

Seed 0 of ``perfbench/run.py`` is compared with the outputs recorded in
``perfbench/reference.json`` and with the benchmark's own oracle, so a
generator or a study whose random streams or arithmetic drift from the
recorded ones fails here, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_sweep_generate_benchmark_is_correct():
    _run("sweep-generate")


def test_validation_cca_benchmark_is_correct():
    # The only oracle and recorded-reference check of the fig6 study path.
    _run("validation-cca")


def test_analyze_rda_benchmark_is_correct():
    # The oracle and recorded-reference check of the bootstrap's count rows.
    _run("analyze-rda")
