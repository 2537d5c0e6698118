"""The four workloads: parameters, inputs, operations and output checks.

Each workload class is built from its parameters and used on both sides of
the process boundary. The parent (``run.py``) calls ``prepare``,
``expected`` and ``check``, which need numpy only. The worker calls
``operations``, which imports vpboot. An operation returns a JSON-ready
output; the parent compares it with the independent oracle, with the
outputs the seed commit recorded in ``reference.json`` (for the seeds
stored there) and with every other pass of the same run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

import oracle

#: Relative tolerance against the oracle and the recorded reference. It
#: admits roundoff-level moves (the oracle itself differs from vpboot by
#: ~1e-15) and rejects a changed random stream, which moves bootstrap and
#: study values by ~1e-3.
TOL = 1e-9
#: The partition identity and the rollup sum, as vpboot guarantees them.
IDENTITY_TOL = 1e-12
#: Stream path of the benchmark's own input tables, disjoint from vpboot's.
INPUT_TAG = 900
#: Seed of the reference kernels' fixed inputs; no workload seed changes them.
KERNEL_SEED = 20240917

_RUNTIME_LINE = re.compile(r'^\s*"runtime_seconds": .*\n', re.MULTILINE)


def close(a, b, tol: float = TOL) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= tol * max(1.0, abs(b))


def compare(actual, expected, where: str = "") -> list[str]:
    """Differences between two nested lists/dicts of numbers."""
    if isinstance(expected, dict):
        return [msg for key in expected
                for msg in compare(actual[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{where}: {len(actual)} entries, expected {len(expected)}"]
        return [msg for k, (a, e) in enumerate(zip(actual, expected))
                for msg in compare(a, e, f"{where}[{k}]")]
    return [] if close(actual, expected) else [
        f"{where}: {actual!r} differs from expected {expected!r}"]


def _write_csv(path: str, header, labels, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for label, row in zip(labels, rows):
            writer.writerow([label, *(repr(float(v)) for v in row)])


class Analyze:
    """One ``vpboot analyze`` call on tables the benchmark generates."""

    def __init__(self, params: dict, workdir: str, seed: int):
        self.p = params
        self.seed = seed
        self.files = [os.path.join(workdir, f"{n}.csv")
                      for n in ("community", "env", "spatial")]
        self.out = os.path.join(workdir, "report.json")

    def _tables(self, seed=None):
        p = self.p
        seed_in = oracle.derive_seed(self.seed if seed is None else seed, INPUT_TAG)
        niches = p.get("niches") or oracle.random_niches(seed_in, p["n_species"])
        counts, env = oracle.generate(seed_in, 0, p["n_sites"], niches,
                                      p["sigma_niche"], p["sigma_noise"])
        if p["spatial"] == "gradient":
            spatial = env[:, 1:]
        else:  # site coordinates: the second gradient plus an unrelated axis
            other = oracle.stream(seed_in, INPUT_TAG).uniform(size=p["n_sites"])
            spatial = np.column_stack([env[:, 1], other])
        return counts, env[:, :1], spatial

    def prepare(self) -> None:
        counts, env, spatial = self._tables()
        labels = [f"site{i + 1}" for i in range(counts.shape[0])]
        species = [f"sp{j + 1}" for j in range(counts.shape[1])]
        _write_csv(self.files[0], ["site", *species], labels, counts)
        _write_csv(self.files[1], ["site", "x"], labels, env)
        _write_csv(self.files[2], ["site", *("uv"[:spatial.shape[1]])],
                   labels, spatial)

    def units(self) -> int:
        return self.p["bootstrap"]

    def operations_per_call(self) -> int:
        return 1

    def operations(self):
        import contextlib
        import io
        from vpboot import cli

        argv = ["analyze", *self.files, "--method", self.p["method"],
                "--bootstrap", str(self.p["bootstrap"]), "--seed", str(self.seed),
                "--out", self.out]

        def analyze():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"vpboot analyze exited with {code}")
            with open(self.out) as fh:
                return _RUNTIME_LINE.sub("", fh.read())
        return [analyze]

    def _blocks(self, seed=None):
        counts, env, spatial = self._tables(seed)
        if self.p["spatial"] == "coordinates":
            spatial = oracle.trend_surface(spatial)
        return [counts, env, spatial]

    def _boot(self, blocks, m_replicates: int, seed: int):
        method = self.p["method"]
        return oracle.bootstrap(
            blocks, lambda y, x, w: oracle.rollup(y, x, w, method),
            m_replicates, seed)

    def reference_kernel(self):
        """The oracle's bootstrap of this workload's statistic, on fixed tables."""
        blocks = self._blocks(KERNEL_SEED)
        reps = 80 if self.p["method"] == "rda" else 40
        return lambda: self._boot(blocks, reps, KERNEL_SEED)

    def expected(self) -> list:
        blocks = self._blocks()
        boot = self._boot(blocks, self.p["bootstrap"], self.seed)
        return [{"fractions": list(oracle.rollup(*blocks, self.p["method"])),
                 **boot}]

    @staticmethod
    def summary(output: str) -> dict:
        report = json.loads(output)
        unc = [report["uncertainty"][k] for k in report["fractions"]]
        return {"fractions": list(report["fractions"].values()),
                **{key: [u[key] for u in unc]
                   for key in ("mean", "sd", "ci95_low", "ci95_high")},
                "redraws": unc[0]["redraw_count"]}

    def check(self, output: str, expected: dict) -> list[str]:
        report = json.loads(output)
        part = report["partition"]
        errors = []
        explained = part["frac_pure_x"] + part["frac_shared"] + part["frac_pure_w"]
        if abs(explained - part["r2_xw"]) > IDENTITY_TOL or abs(
                part["frac_residual"] - (1.0 - part["r2_xw"])) > IDENTITY_TOL:
            errors.append("partition identity broken")
        if abs(sum(report["fractions"].values()) - 1.0) > IDENTITY_TOL:
            errors.append("rollup does not sum to 1")
        if any(u["replicate_count"] != self.p["bootstrap"]
               for u in report["uncertainty"].values()):
            errors.append("wrong replicate count")
        return errors + compare(self.summary(output), expected)


class Sweep:
    """``sweep_sample_size`` one cell at a time; a pass visits every cell.

    All cells of one noise level share a derived seed, so calling one size
    at a time gives exactly the cells of the full grid.
    """

    def __init__(self, params: dict, workdir: str, seed: int):
        self.p = params
        self.seed = seed

    def prepare(self) -> None:
        pass

    def units(self) -> int:
        return self.p["replicates"] * len(self.p["sizes"])

    def operations_per_call(self) -> int:
        return 1

    def operations(self):
        from vpboot.experiments import sweep_sample_size
        from vpboot.synth import ScenarioConfig

        base = ScenarioConfig(seed=self.seed, replicates=self.p["replicates"])

        def cell(n):
            out = sweep_sample_size(base, sizes=(n,),
                                    noise_levels=(self.p["noise"],))[0]
            return {"n_sites": out.config.n_sites, "mean": out.observed_mean_r2,
                    "sd": out.observed_sd, "rel_err": out.observed_relative_error,
                    "r2_values": list(out.r2_values)}
        return [lambda n=n: cell(n) for n in self.p["sizes"]]

    def reference_kernel(self):
        """The oracle's generator and fit for eight fixed 50-site replicates."""
        niches = [(0.25, 0.0), (0.75, 0.5)]

        def kernel():
            for r in range(8):
                oracle.effect_r2(*oracle.generate(KERNEL_SEED, r, 50, niches, 0.5,
                                                  self.p["noise"]))
        return kernel

    def _sampled(self) -> list[int]:
        last = self.p["replicates"] - 1
        return sorted({0, self.seed % (last + 1), last})

    def expected(self) -> list:
        cell_seed = oracle.derive_seed(self.seed, oracle.TAG_SAMPLE_SIZE, 0)
        niches = [(0.25, 0.0), (0.75, 0.5)]
        cells = []
        for n in self.p["sizes"]:
            sample = {}
            for r in self._sampled():
                counts, env = oracle.generate(cell_seed, r, n, niches, 0.5,
                                              self.p["noise"])
                sample[r] = oracle.effect_r2(counts, env)
            cells.append(sample)
        return cells

    @staticmethod
    def summary(output: dict) -> dict:
        return {key: output[key] for key in ("mean", "sd", "rel_err")}

    def check(self, output: dict, expected: dict) -> list[str]:
        values = np.asarray(output["r2_values"])
        if values.size != self.p["replicates"] or not np.all(np.isfinite(values)):
            return ["r2_values missing or not finite"]
        sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
        errors = compare(self.summary(output), {
            "mean": float(values.mean()), "sd": sd,
            "rel_err": oracle.relative_error(sd, float(values.mean()))})
        for r, value in expected.items():
            if not close(values[r], value):
                errors.append(f"replicate {r}: {values[r]!r} vs oracle {value!r}")
        return errors


class Validation:
    """One ``cca_validation`` study on a reduced fig6 grid."""

    FIELDS = ("mean_proportion", "observed_sd", "observed_relative_error",
              "bootstrap_relative_error")

    def __init__(self, params: dict, workdir: str, seed: int):
        self.p = params
        self.seed = seed

    def prepare(self) -> None:
        pass

    def _items(self):
        p = self.p
        return [(n, noise, rep, oracle.derive_seed(self.seed, oracle.TAG_CCA, i, j, rep))
                for i, n in enumerate(p["sizes"])
                for j, noise in enumerate(p["noise_levels"])
                for rep in range(p["repeats"])]

    def operations_per_call(self) -> int:
        """One validation repeat is one operation."""
        p = self.p
        return len(p["sizes"]) * len(p["noise_levels"]) * p["repeats"]

    def units(self) -> int:
        m, v = self.p["m_replicates"], self.p["n_validation"]
        return self.operations_per_call() * (m + v + v * m)

    def operations(self):
        from vpboot.experiments import cca_validation

        def study():
            outcomes, report = cca_validation(
                sizes=self.p["sizes"], noise_levels=self.p["noise_levels"],
                repeats=self.p["repeats"], m_replicates=self.p["m_replicates"],
                n_validation=self.p["n_validation"],
                n_species=self.p["n_species"], seed=self.seed)
            return {"outcomes": [{"n_sites": o.n_sites, "seed": o.seed,
                                  **{f: getattr(o, f) for f in self.FIELDS}}
                                 for o in outcomes],
                    "pearson_r": report["pearson_r"]}
        return [study]

    def reference_kernel(self):
        """The oracle's generator, CCA proportion and bootstrap on fixed inputs:
        one table at each of the grid's sizes, then 40 resamples of the last."""
        p = self.p
        niches = oracle.random_niches(KERNEL_SEED, p["n_species"])
        noise = max(p["noise_levels"])

        def kernel():
            for r, n in enumerate(p["sizes"]):
                table = oracle.generate(KERNEL_SEED, r, n, niches, 0.5, noise)
                oracle.cca_proportion(*table)
            oracle.bootstrap(list(table), oracle.cca_proportion, 40, KERNEL_SEED)
        return kernel

    def _repeat(self, n, noise, cell_seed):
        """Oracle values of one validation repeat."""
        p = self.p
        m, s = p["m_replicates"], p["n_species"]
        niches = oracle.random_niches(cell_seed, s)

        def table(r):
            return oracle.generate(cell_seed, r, n, niches, 0.5, noise)
        values = np.array([oracle.cca_proportion(*table(r)) for r in range(m)])
        mean, sd = float(values.mean()), float(values.std(ddof=1))
        spreads = [oracle.bootstrap(
            list(table(m + v)), oracle.cca_proportion, m,
            oracle.derive_seed(cell_seed, oracle.TAG_VALIDATION_TABLE, v))["sd"][0]
            for v in range(p["n_validation"])]
        return [mean, sd, oracle.relative_error(sd, mean),
                oracle.relative_error(float(np.mean(spreads)), mean)]

    def expected(self) -> list:
        # The oracle replays the smallest size only; larger cells are covered
        # by the invariants, the recorded reference and pass-to-pass equality.
        smallest = min(self.p["sizes"])
        return [{k: self._repeat(n, noise, cell_seed)
                 for k, (n, noise, _, cell_seed) in enumerate(self._items())
                 if n == smallest}]

    @classmethod
    def summary(cls, output: dict) -> dict:
        return {"outcomes": [[o[f] for f in cls.FIELDS] for o in output["outcomes"]],
                "pearson_r": output["pearson_r"]}

    def check(self, output: dict, expected: dict) -> list[str]:
        rows = self.summary(output)["outcomes"]
        if len(rows) != self.operations_per_call():
            return [f"{len(rows)} outcomes, expected {self.operations_per_call()}"]
        errors = [f"outcome {k}: seed {o['seed']} is not the derived cell seed"
                  for k, (o, item) in enumerate(zip(output["outcomes"], self._items()))
                  if o["seed"] != item[3]]
        for row in rows:
            mean, sd, rel, boot = row
            if not all(math.isfinite(v) for v in row) or not close(
                    rel, oracle.relative_error(sd, mean)):
                errors.append(f"inconsistent outcome {row}")
        r = float(np.corrcoef([row[2] for row in rows], [row[3] for row in rows])[0, 1])
        if not close(output["pearson_r"], r):
            errors.append(f"pearson_r {output['pearson_r']!r} vs {r!r}")
        for k, values in expected.items():
            errors += compare(rows[k], values, f"outcome[{k}]")
        return errors


_SITES_RDA = {"n_sites": 100, "niches": [(0.25, 0.0), (0.75, 0.5)],
              "sigma_niche": 0.5, "sigma_noise": 0.01, "spatial": "gradient"}
_SITES_CCA = {"n_sites": 100, "n_species": 35, "sigma_niche": 0.1,
              "sigma_noise": 0.01, "spatial": "coordinates"}

#: name -> (class, full parameters, smallest legal parameters, reason)
WORKLOADS = {
    "analyze-rda": (
        Analyze,
        {**_SITES_RDA, "method": "rda", "bootstrap": 1000},
        {**_SITES_RDA, "method": "rda", "bootstrap": 2},
        "bootstrap hot path: 1000 resamples of a 100-site, 2-species table, "
        "three narrow RDA fits each; Python overhead dominates"),
    "analyze-cca-wide": (
        Analyze,
        {**_SITES_CCA, "method": "cca", "bootstrap": 1000},
        {**_SITES_CCA, "method": "cca", "bootstrap": 2},
        "same bootstrap, three wide CCA fits per resample of a sparse "
        "100x35 table with species pruning; linear algebra weighs more"),
    "sweep-generate": (
        Sweep,
        {"sizes": (25, 50, 100, 250), "noise": 0.01, "replicates": 200},
        {"sizes": (25,), "noise": 0.01, "replicates": 1},
        "sample-size sweep: the generator and its per-site streams, "
        "no bootstrap"),
    "validation-cca": (
        Validation,
        {"sizes": (20, 100), "noise_levels": (0.0, 0.05), "repeats": 1,
         "m_replicates": 200, "n_validation": 10, "n_species": 5},
        {"sizes": (20,), "noise_levels": (0.05,), "repeats": 3,
         "m_replicates": 2, "n_validation": 1, "n_species": 5},
        "reduced fig6 study: generator and bootstrap gains must add up"),
}


#: Time of each workload's reference kernel, measured once on the machine
#: recorded in baseline.json. They fix the scale of ``run_s``; changing one
#: makes ``run_s`` incomparable with earlier runs.
KERNEL_S = {"analyze-rda": 0.0292, "analyze-cca-wide": 0.0337,
            "sweep-generate": 0.0210, "validation-cca": 0.0182}


def build(name: str, seed: int, workdir: str, smallest: bool = False):
    cls, full, small, _ = WORKLOADS[name]
    return cls(small if smallest else full, workdir, seed)
