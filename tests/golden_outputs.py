"""Golden ``vpboot`` outputs: how they are made, and their files.

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

The figure studies, ``reproduce FIG --scale desk --seed 1`` for fig2 to
fig6, keep ``FIG_results.csv`` and ``FIG_checks.json`` as they are and
each chart as the SHA-256 of its SVG in ``figure_svgs.json``. The
``simulate`` outputs are ``simulate.community.csv`` and
``simulate.env.csv`` of the scenario document ``SCENARIO``.

``host.json`` records the NumPy version and BLAS library that wrote them:
``test_golden`` compares bytes on a matching host and numbers otherwise.

For each file it rewrites, the script prints how many fields moved from
the file it replaces and the largest absolute and relative move, as
``test_golden`` measures them, so a change that moves bits on purpose can
quote its move from this one command.
"""

from __future__ import annotations

import contextlib
import hashlib
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
FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")
SVG_DIGESTS = "figure_svgs.json"
SCENARIO = "seed = 5\nn_sites = 30\nsigma_noise = 0.05\n"
SIMULATED = ("simulate.community.csv", "simulate.env.csv")


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


def reproduce(figure: str, out, threads: int = 1) -> int:
    """``vpboot reproduce FIG --scale desk --seed 1`` into ``out``; the
    exit code."""
    return cli.main(["reproduce", figure, "--scale", "desk", "--seed", "1",
                     "--out", str(out), "--threads", str(threads)])


def figure_files(figure: str) -> tuple[str, str]:
    """The text artifacts of ``figure`` kept as golden files."""
    return f"{figure}_results.csv", f"{figure}_checks.json"


def svg_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def simulate(out: Path) -> list[Path]:
    """``vpboot simulate`` of ``SCENARIO`` into ``out``; the paths of
    ``SIMULATED``."""
    config = out / "scenario.cfg"
    config.write_text(SCENARIO)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", str(config),
                         "--out", str(out / "simulate")])
    if code != 0:
        raise RuntimeError(f"vpboot simulate exited with {code}")
    return [out / name for name in SIMULATED]


def _rewrite(name: str, text: str) -> None:
    """Write golden file ``name`` and print how far it moved."""
    from test_golden import _field_moves, _parser  # it imports this module
    path = GOLDEN / name
    old = path.read_text() if path.exists() else None
    path.write_text(text)
    if old is None or old == text:
        print(f"{name}: {'new' if old is None else 'unchanged'}")
        return
    moves = _field_moves(old, text, 0.0, _parser(name))
    sizes = [(a, r) for _, a, r in moves if a is not None]
    largest = (f", largest absolute {max(a for a, _ in sizes):.2e}, "
               f"relative {max(r for _, r in sizes):.2e}" if sizes else "")
    print(f"{name}: {len(moves)} fields moved{largest}")


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for method in METHODS:
        _rewrite(f"analyze_{method}.json", report(method))
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for figure in FIGURES:
            with contextlib.redirect_stdout(io.StringIO()):
                reproduce(figure, tmp)
            for name in figure_files(figure):
                _rewrite(name, (tmp / name).read_text())
            digests[f"{figure}.svg"] = svg_digest(tmp / f"{figure}.svg")
        for path in simulate(tmp):
            _rewrite(path.name, path.read_text())
    _rewrite(SVG_DIGESTS, json.dumps(digests, indent=2) + "\n")
    _rewrite("host.json", json.dumps(host(), indent=2) + "\n")
    print(f"wrote {len(METHODS)} reports, {len(FIGURES)} figures, "
          f"{len(SIMULATED)} simulate tables and host.json to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
