"""Two-block partition reports with bootstrapped uncertainty."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .ordination import (PartitionResult, _log1p, _partition, _planned,
                         _rollups)
from .resample import BootstrapSummary, _check_bootstrap, bootstrap_statistic
from .tables import CommunityTable, PredictorBlock, require_aligned

#: Fixed fraction names used in reports and serialized output.
FRACTION_NAMES = ("env_pure", "spatial_including_shared", "residual")


@dataclass(frozen=True)
class AnalysisReport:
    """Variance-partition point estimates plus bootstrap uncertainty.

    ``fractions`` is the three-way rollup (pure first block, second block
    including the shared part, residual); it sums to 1. ``uncertainty``
    maps each fraction name to its bootstrap summary. ``runtime_seconds``
    is wall-clock time and is the one field expected to differ between
    otherwise identical runs.
    """

    dataset_name: str
    method: str
    log1p: bool
    seed: int
    bootstrap_replicates: int
    partition: PartitionResult
    fractions: dict[str, float]
    uncertainty: dict[str, BootstrapSummary]
    runtime_seconds: float


def trend_surface(block: PredictorBlock) -> PredictorBlock:
    """Expand a 2-column coordinate block to (x, y, x^2, xy, y^2).

    Raw site coordinates make a poor linear predictor set; the second-order
    polynomial surface lets broad spatial gradients and simple curvature be
    captured. Only defined for exactly two columns.
    """
    if block.n_columns != 2:
        raise ValidationError(
            f"trend surface needs exactly 2 coordinate columns, "
            f"block {block.name!r} has {block.n_columns}")
    x = block.values[:, 0]
    y = block.values[:, 1]
    expanded = np.column_stack([x, y, x * x, x * y, y * y])
    return PredictorBlock(block.name, block.site_ids, expanded)


def partition_tables(table, env, spatial, method: str = "cca",
                     log1p: bool | None = None) -> PartitionResult:
    """Partition a community table between two predictor blocks.

    ``method`` is ``cca`` (chi-square inertia) or ``rda`` (linear, with the
    small-sample adjustment). ``log1p`` defaults to on for ``cca`` and off
    for ``rda``.
    """
    if log1p is None:
        log1p = method == "cca"
    return _partition(_log1p(table) if log1p else table, env, spatial, method)


def run_analysis(table: CommunityTable, env: PredictorBlock,
                 spatial: PredictorBlock, *, seed: int, method: str = "cca",
                 m_replicates: int = 1000,
                 log1p: bool | None = None,
                 dataset_name: str = "community") -> AnalysisReport:
    """Full analysis: point partition plus bootstrap uncertainty per fraction."""
    start = time.perf_counter()
    _check_bootstrap(m_replicates, seed)
    require_aligned(table, env, spatial)
    if log1p is None:
        log1p = method == "cca"
    y = _log1p(table) if log1p else table
    part = _partition(y, env, spatial, method)
    rollup = part.rollup()
    summaries = bootstrap_statistic(
        y, [env, spatial], _planned(partial(_rollups, method=method)),
        m_replicates, seed, names=FRACTION_NAMES)
    return AnalysisReport(
        dataset_name=dataset_name,
        method=method,
        log1p=log1p,
        seed=seed,
        bootstrap_replicates=m_replicates,
        partition=part,
        fractions=dict(zip(FRACTION_NAMES, rollup)),
        uncertainty=dict(zip(FRACTION_NAMES, summaries)),
        runtime_seconds=time.perf_counter() - start,
    )


def report_to_dict(report: AnalysisReport) -> dict:
    """JSON-ready dict with a stable key order."""
    return {
        "dataset_name": report.dataset_name,
        "method": report.method,
        "log1p": report.log1p,
        "seed": report.seed,
        "bootstrap_replicates": report.bootstrap_replicates,
        "partition": asdict(report.partition),
        "fractions": {k: report.fractions[k] for k in FRACTION_NAMES},
        "uncertainty": {
            k: {
                "mean": s.mean,
                "sd": s.sd,
                "relative_uncertainty": s.relative_uncertainty,
                "ci95_low": s.ci95_low,
                "ci95_high": s.ci95_high,
                "replicate_count": s.replicate_count,
                "redraw_count": s.redraw_count,
            }
            for k, s in ((k, report.uncertainty[k]) for k in FRACTION_NAMES)
        },
        "runtime_seconds": report.runtime_seconds,
    }


def format_report(report: AnalysisReport) -> str:
    """Human-readable text rendering (the one place percentages appear)."""
    lines = [
        f"dataset: {report.dataset_name}",
        f"method: {report.method} (log1p {'on' if report.log1p else 'off'}), "
        f"bootstrap M={report.bootstrap_replicates}, seed={report.seed}",
        "",
        f"{'fraction':<28}{'estimate':>10}{'boot mean':>11}{'sd':>8}"
        f"{'rel.unc':>9}  {'95% CI':>18}",
    ]
    labels = {
        "env_pure": "environment (pure)",
        "spatial_including_shared": "spatial (incl. shared)",
        "residual": "residual",
    }
    for key in FRACTION_NAMES:
        s = report.uncertainty[key]
        ci = f"[{100 * s.ci95_low:.1f}%, {100 * s.ci95_high:.1f}%]"
        lines.append(
            f"{labels[key]:<28}{100 * report.fractions[key]:>9.1f}%"
            f"{100 * s.mean:>10.1f}%{100 * s.sd:>7.1f}%"
            f"{100 * s.relative_uncertainty:>8.1f}%  {ci:>18}")
    lines.append("")
    lines.append(f"runtime: {report.runtime_seconds:.2f} s")
    return "\n".join(lines)
