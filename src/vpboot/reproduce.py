"""Builders for the canned simulation-study artifacts.

Each figure id maps to one study: a results CSV, a chart, and a JSON
document of trend/correlation checks. Figure builders are deterministic
functions of ``(seed, scale)``; thread count only affects speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .experiments import (DEFAULT_NOISE_LEVELS, DEFAULT_Y_MAX_GRID, _map,
                          bootstrap_validation, cca_validation,
                          optimum_distance_configs, pearson_r,
                          run_replicated_scenario, sample_size_configs,
                          sampling_range_configs, spearman_rho)
from .errors import ValidationError
from .svgplot import line_chart, scatter_chart
from .synth import ScenarioConfig

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6")

#: Replicates per scenario at each scale.
SCALE_REPLICATES = {"desk": 200, "paper": 1000}

SWEEP_COLUMNS = (
    "figure", "sigma_noise", "n_sites", "y_max", "y_opt2", "replicates",
    "cell_seed", "observed_mean_r2", "observed_sd",
    "observed_relative_error", "bootstrap_relative_error",
)
CCA_COLUMNS = (
    "figure", "sigma_noise", "n_sites", "n_species", "repeat", "replicates",
    "cell_seed", "mean_proportion", "observed_sd",
    "observed_relative_error", "bootstrap_relative_error",
)

#: Observed-error band used for the bootstrap-validation correlation check.
VALIDATION_BAND = (0.03, 1.0)
#: Span the many-species study's observed errors must at least cover.
CCA_SPAN = (0.01, 0.25)
#: Species per community in the many-species study.
CCA_SPECIES = 5


@dataclass(frozen=True)
class FigureResult:
    """Everything one reproduction run produces, before any file is written."""

    figure: str
    columns: tuple[str, ...]
    rows: list[dict]
    checks: list[dict]
    svg: str

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _sweep_rows(figure: str, outcomes) -> list[dict]:
    rows = []
    for o in outcomes:
        cfg = o.config
        rows.append({
            "figure": figure,
            "sigma_noise": cfg.sigma_noise,
            "n_sites": cfg.n_sites,
            "y_max": cfg.y_max,
            "y_opt2": cfg.niches[1].y_opt,
            "replicates": cfg.replicates,
            "cell_seed": cfg.seed,
            "observed_mean_r2": o.observed_mean_r2,
            "observed_sd": o.observed_sd,
            "observed_relative_error": o.observed_relative_error,
            "bootstrap_relative_error": o.bootstrap_relative_error,
        })
    return rows


def _series_by_noise(rows, column: str):
    series = []
    for noise in DEFAULT_NOISE_LEVELS:
        cells = [r for r in rows if r["sigma_noise"] == noise]
        series.append((f"noise={noise:g}", [r[column] for r in cells],
                       [r["observed_mean_r2"] for r in cells],
                       [r["observed_sd"] / math.sqrt(r["replicates"])
                        for r in cells]))
    return series


def _trend_check(name: str, rows, column: str, noise: float) -> dict:
    cells = [r for r in rows if r["sigma_noise"] == noise]
    rho = spearman_rho([r[column] for r in cells],
                       [r["observed_relative_error"] for r in cells])
    return {
        "name": name,
        "sigma_noise": noise,
        "spearman_rho": rho,
        "threshold": -0.9,
        "passed": rho <= -0.9,
    }


#: The parameter sweeps: each figure's scenario grid, the CSV column it
#: varies, its trend check, and its chart's title, x label and x scale.
_SWEEPS = {
    "fig2": (sample_size_configs, "n_sites",
             "relative_error_decreases_with_sample_size",
             "Gradient contribution vs number of sites", "number of sites",
             True),
    "fig3": (sampling_range_configs, "y_max",
             "relative_error_grows_as_range_shrinks",
             "Gradient contribution vs sampled range",
             "sampled range of second gradient (y_max)", False),
    "fig4": (optimum_distance_configs, "y_opt2",
             "relative_error_decreases_with_separation",
             "Gradient contribution vs niche separation",
             "optimum of second species on second gradient", False),
}


def _build_sweep(figure: str, base: ScenarioConfig,
                 threads: int = 1) -> FigureResult:
    """Effect size and precision along one sweep's grid, per noise level.

    The precision check is a falling relative error along the swept
    column; fig3 also checks that the mean effect shrinks with the range.
    """
    grid, column, trend, title, x_label, x_log = _SWEEPS[figure]
    rows = _sweep_rows(figure, _map(run_replicated_scenario, grid(base),
                                    threads))
    noise = DEFAULT_NOISE_LEVELS[0]
    checks = [_trend_check(trend, rows, column, noise)]
    if figure == "fig3":
        at = {r["y_max"]: r["observed_mean_r2"] for r in rows
              if r["sigma_noise"] == noise}
        low, high = at[DEFAULT_Y_MAX_GRID[0]], at[DEFAULT_Y_MAX_GRID[-1]]
        checks.append({
            "name": "mean_effect_shrinks_with_range",
            "sigma_noise": noise,
            "mean_r2_at_narrowest": low,
            "mean_r2_at_full_range": high,
            "passed": low < high,
        })
    svg = line_chart(_series_by_noise(rows, column), title=title,
                     x_label=x_label, y_label="mean adjusted R2 (+/- SE)",
                     x_log=x_log)
    return FigureResult(figure, SWEEP_COLUMNS, rows, checks, svg)


def validation_pool(base: ScenarioConfig) -> list[ScenarioConfig]:
    """Union of all sweep cells: the scenario pool for bootstrap validation."""
    return [config for grid, *_ in _SWEEPS.values() for config in grid(base)]


def _scatter(outcomes, title_suffix: str) -> str:
    """Chart of each validation outcome's bootstrap-estimated against its
    observed relative error."""
    return scatter_chart(
        [o.observed_relative_error for o in outcomes],
        [o.bootstrap_relative_error for o in outcomes],
        title="Bootstrap-estimated vs observed relative error" + title_suffix,
        x_label="observed relative error",
        y_label="bootstrap-estimated relative error")


def build_fig5(base: ScenarioConfig, threads: int = 1) -> FigureResult:
    """Observed versus bootstrap-estimated relative error over all sweep cells."""
    outcomes = bootstrap_validation(validation_pool(base), threads=threads)
    observed = [o.observed_relative_error for o in outcomes]
    estimated = [o.bootstrap_relative_error for o in outcomes]
    lo, hi = VALIDATION_BAND
    band = [(x, y) for x, y in zip(observed, estimated) if lo <= x <= hi]
    checks = []
    if len(band) >= 3:
        r, t, df = pearson_r([p[0] for p in band], [p[1] for p in band])
        band_check = {"pearson_r": r, "t": t, "df": df,
                      "passed": r >= 0.85}
    else:
        band_check = {"pearson_r": None, "t": None, "df": None, "passed": False}
    band_check.update({
        "name": "band_correlation", "band_low": lo, "band_high": hi,
        "n_pairs": len(band), "threshold": 0.85,
    })
    checks.append(band_check)
    above = [(x, y) for x, y in zip(observed, estimated) if x > hi]
    mean_diff = (sum(y - x for x, y in above) / len(above)) if above else None
    checks.append({
        "name": "overestimates_above_band",
        "n_pairs": len(above),
        "mean_signed_difference": mean_diff,
        "passed": bool(above) and mean_diff > 0,
    })
    return FigureResult("fig5", SWEEP_COLUMNS, _sweep_rows("fig5", outcomes),
                        checks, _scatter(outcomes, ""))


def build_fig6(base: ScenarioConfig, threads: int = 1) -> FigureResult:
    """Bootstrap validation on randomly assembled five-species communities."""
    outcomes, report = cca_validation(
        m_replicates=base.replicates, n_species=CCA_SPECIES, seed=base.seed,
        threads=threads)
    observed = [o.observed_relative_error for o in outcomes]
    lo, hi = CCA_SPAN
    checks = [
        {
            "name": "pooled_correlation",
            "n_pairs": report["n_pairs"],
            "pearson_r": report["pearson_r"],
            "t": report["t"],
            "df": report["df"],
            "threshold": 0.9,
            "passed": report["pearson_r"] >= 0.9,
        },
        {
            "name": "observed_error_span",
            "min_observed": min(observed),
            "max_observed": max(observed),
            "span_low": lo,
            "span_high": hi,
            "passed": min(observed) <= lo and max(observed) >= hi,
        },
    ]
    rows = [{
        "figure": "fig6",
        "sigma_noise": o.sigma_noise,
        "n_sites": o.n_sites,
        "n_species": CCA_SPECIES,
        "repeat": o.repeat,
        "replicates": base.replicates,
        "cell_seed": o.seed,
        "mean_proportion": o.mean_proportion,
        "observed_sd": o.observed_sd,
        "observed_relative_error": o.observed_relative_error,
        "bootstrap_relative_error": o.bootstrap_relative_error,
    } for o in outcomes]
    return FigureResult("fig6", CCA_COLUMNS, rows, checks,
                        _scatter(outcomes, " (many species)"))


_BUILDERS = {**{figure: partial(_build_sweep, figure) for figure in _SWEEPS},
             "fig5": build_fig5, "fig6": build_fig6}


def build_figure(figure: str, seed: int, scale: str = "desk",
                 threads: int = 1) -> FigureResult:
    """Run one study end to end and return its artifacts."""
    if figure not in _BUILDERS:
        raise ValidationError(
            f"unknown figure id {figure!r}; expected one of {FIGURE_IDS}")
    if scale not in SCALE_REPLICATES:
        raise ValidationError(f"unknown scale {scale!r}; expected desk or paper")
    base = ScenarioConfig(seed=seed, replicates=SCALE_REPLICATES[scale])
    return _BUILDERS[figure](base, threads=threads)
