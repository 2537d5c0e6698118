"""Golden ``vpboot analyze`` reports: how they are made, and their files.

Regenerate the files under ``tests/golden/`` from the root of a checkout:

    PYTHONPATH=src python tests/golden_outputs.py

Each report is the ``analyze --out`` JSON, less ``runtime_seconds``, of
M = 1000 bootstrap replicates with seed 1 on tables that ``vpboot.synth``
makes from a fixed seed:

- ``analyze_rda.json``: RDA of a 100-site, 2-species table; the env and
  spatial blocks are its first and second gradient.
- ``analyze_cca.json``: CCA (log1p on) of a 100 x 35 table with narrow
  niches; env is the first gradient and the spatial block holds site
  coordinates (the second gradient and an unrelated uniform axis), which
  ``analyze`` expands to a trend surface.

``host.json`` records the NumPy version and BLAS library that wrote them:
``test_golden`` compares bytes on a matching host and numbers otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from vpboot import cli
from vpboot.io import write_table_csv
from vpboot.synth import generate_complex_dataset, generate_dataset, ScenarioConfig
from vpboot.tables import PredictorBlock

GOLDEN = Path(__file__).resolve().parent / "golden"
METHODS = ("rda", "cca")


def host() -> dict:
    """The NumPy version and BLAS library of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def _inputs(method: str):
    if method == "rda":
        table, env = generate_dataset(ScenarioConfig(seed=11, n_sites=100))
        return table, env.values[:, :1], env.values[:, 1:]
    table, env = generate_complex_dataset(100, 35, sigma_noise=0.01, seed=12,
                                          sigma_niche=0.1)
    other = np.random.default_rng(12).uniform(size=table.n_sites)
    return table, env.values[:, :1], np.column_stack([env.values[:, 1], other])


def report(method: str) -> str:
    """The golden text of ``method``'s report, computed on this host."""
    table, env, spatial = _inputs(method)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{name}.csv")
                 for name in ("community", "env", "spatial")]
        write_table_csv(paths[0], table)
        for path, name, values in ((paths[1], "env", env),
                                   (paths[2], "spatial", spatial)):
            write_table_csv(path, PredictorBlock(name, table.site_ids, values))
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", *paths, "--method", method,
                             "--bootstrap", "1000", "--seed", "1",
                             "--out", out])
        if code != 0:
            raise RuntimeError(f"vpboot analyze exited with {code}")
        with open(out) as fh:
            payload = json.load(fh)
    del payload["runtime_seconds"]
    return json.dumps(payload, indent=2) + "\n"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for method in METHODS:
        (GOLDEN / f"analyze_{method}.json").write_text(report(method))
    (GOLDEN / "host.json").write_text(json.dumps(host(), indent=2) + "\n")
    print(f"wrote {len(METHODS)} reports and host.json to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
