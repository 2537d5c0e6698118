"""Replicated simulation studies: parameter sweeps and bootstrap validation.

Each sweep runs a grid of scenarios, re-generating every scenario many times
to measure how precisely a variance-partitioning statistic is recovered. The
validation studies then compare that observed run-to-run error against the
error a site bootstrap estimates from single datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DegenerateDataError, ValidationError, VpbootError
from .ordination import _as_stack, _block_fractions, _log1p
from .resample import _check_bootstrap, bootstrap_statistic, relative_spread
from .rng import derive_seed
from .synth import (ScenarioConfig, SpeciesNiche, _complex_config,
                    _generate_cell)

DEFAULT_NOISE_LEVELS = (0.01, 0.05, 0.1)
DEFAULT_SAMPLE_SIZES = (25, 50, 100, 250, 500, 1000)
DEFAULT_Y_MAX_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))
DEFAULT_Y_OPT_GRID = tuple(round(0.1 * k, 1) for k in range(0, 11))
CCA_SAMPLE_SIZES = (20, 40, 60, 80, 100)
CCA_NOISE_LEVELS = (0.0, 0.01, 0.05, 0.1)

# Path tags for deriving per-cell master seeds; distinct per sweep family.
_TAG_SAMPLE_SIZE = 11
_TAG_RANGE = 12
_TAG_OPTIMUM = 13
_TAG_VALIDATION_TABLE = 14
_TAG_CCA = 15

#: Float64 values of one chunk of a study cell: replicates x sites x
#: (species + 2 gradients). Generating a chunk holds about 125 bytes per
#: site at its peak (2 species), so a 250-site chunk traces about 0.25 MB,
#: and its fit no more. Larger chunks run faster (the generator pays one
#: array step per raw word per chunk), but a caller that keeps every
#: output, as the benchmark worker does, completes more cells in the same
#: time, and its peak memory grows with them.
_CELL_CHUNK_VALUES = 2 ** 13


def predictor_effect_r2(table, env) -> float:
    """Semipartial adjusted R^2 of the second gradient.

    The RDA fit on both columns of ``env`` minus the fit on its first column
    alone, each with the small-sample adjustment: the pure share of the
    table's variance that the second gradient explains.
    """
    return float(_effect_r2(None, table, env)[0][0, 0])


def _effect_r2(counts, table, env):
    """``predictor_effect_r2`` per count row, as a batched bootstrap statistic,
    or per table of a ``(k, n, S)`` stack with a ``(k, n, 2)`` environment."""
    em = _as_stack(env)
    if em.shape[-1] != 2:
        raise ValidationError("environment block must have exactly 2 columns")
    fractions, reasons = _block_fractions(
        table, [("both gradients", em), ("first gradient", em[..., 0:1])],
        "rda", counts)
    return fractions[:, :1] - fractions[:, 1:], reasons


@dataclass(frozen=True)
class ScenarioOutcome:
    """Replication summary of one scenario.

    ``observed_relative_error`` is the across-replicate standard deviation
    relative to the magnitude of the mean. ``bootstrap_relative_error`` is
    filled by the validation studies and stays None inside plain sweeps.
    """

    config: ScenarioConfig
    observed_mean_r2: float
    observed_sd: float
    observed_relative_error: float
    bootstrap_relative_error: float | None = None
    r2_values: tuple[float, ...] = ()


def run_replicated_scenario(config: ScenarioConfig) -> ScenarioOutcome:
    """Generate ``config.replicates`` datasets and summarise the effect size."""
    return _outcome(config, _effect_r2)


def _outcome(config: ScenarioConfig, statistic,
             n_validation: int = 0) -> ScenarioOutcome:
    """Replication summary of ``statistic`` over ``config``'s replicates;
    with ``n_validation`` tables, also the bootstrap relative error."""
    values = _cell_values(config, statistic)
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if config.replicates > 1 else 0.0
    estimate = None
    if n_validation:
        spread = _bootstrap_spread(config, statistic, n_validation)
        # Both error measures are scaled by the same across-replicate mean,
        # so the comparison isolates how well the bootstrap spread tracks
        # the true run-to-run spread. Dividing each table's spread by its
        # own bootstrap mean instead would blow up whenever that mean sits
        # near zero.
        estimate = abs(relative_spread(spread, mean))
    return ScenarioOutcome(config, mean, sd, abs(relative_spread(sd, mean)),
                           estimate, tuple(float(v) for v in values))


def _cell_values(config: ScenarioConfig, statistic) -> np.ndarray:
    """``statistic`` of replicates ``0 .. config.replicates - 1``.

    Replicates are generated and fitted a chunk at a time as stacked
    arrays; ``statistic(None, counts, env)`` is a unit-count statistic such
    as ``_effect_r2``. A chunk that fails is replayed one replicate at a
    time, so the first failing replicate raises its own error, from
    generation or fit, as a loop over the replicates would.
    """
    per_replicate = config.n_sites * (config.n_species + 2)
    size = max(1, _CELL_CHUNK_VALUES // per_replicate)
    values = []
    for start in range(0, config.replicates, size):
        chunk = range(start, min(start + size, config.replicates))
        try:
            fractions, _ = statistic(None, *_generate_cell(config, chunk))
        except VpbootError:
            for r in chunk:
                statistic(None, *_generate_cell(config, [r]))
            raise
        values.append(fractions[:, 0])
    return np.concatenate(values)


def _bootstrap_spread(config: ScenarioConfig, statistic,
                      n_validation: int) -> float:
    """Mean bootstrap standard deviation of ``statistic`` over validation
    tables ``R + v`` of ``config``, ``v < n_validation``, each bootstrapped
    ``R = config.replicates`` times; one generator call makes the tables."""
    m = config.replicates
    tables, envs = _generate_cell(config, range(m, m + n_validation))
    return float(np.mean([
        bootstrap_statistic(table, [env], statistic, m, derive_seed(
            config.seed, _TAG_VALIDATION_TABLE, v))[0].sd
        for v, (table, env) in enumerate(zip(tables, envs))]))


def _check_validation(replicates, n_validation: int) -> None:
    """The validation studies' checks, made before any generation: each
    scenario is bootstrapped as many times as it has replicates."""
    if n_validation < 1:
        raise ValidationError("need at least 1 validation table")
    for r in replicates:
        _check_bootstrap(r, 0)


def _map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, spread over ``threads`` processes,
    never more than there are items.

    Results come back in input order, so the thread count never changes them.
    The pool's modules are imported only here: multiprocessing adds about
    2 MB to every process that imports vpboot, most of which never fork.
    """
    if threads > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _grid(base: ScenarioConfig, tag: int, noise_levels,
          cells) -> list[ScenarioConfig]:
    """``base`` with each cell's dict of changed fields at each noise level.

    All cells within one noise level share a seed derived from ``tag``, so
    they see the same site draws (common random numbers) and differ only in
    the swept parameter. Per-cell marginals are unaffected; cross-cell
    comparisons lose most of their Monte Carlo noise.
    """
    return [
        replace(base, **cell, sigma_noise=float(noise),
                seed=derive_seed(base.seed, tag, j))
        for j, noise in enumerate(noise_levels)
        for cell in cells
    ]


def sample_size_configs(base: ScenarioConfig,
                        sizes=DEFAULT_SAMPLE_SIZES,
                        noise_levels=DEFAULT_NOISE_LEVELS) -> list[ScenarioConfig]:
    """Grid of configs varying the number of sites at each noise level."""
    return _grid(base, _TAG_SAMPLE_SIZE, noise_levels,
                 [{"n_sites": int(n)} for n in sizes])


def sampling_range_configs(base: ScenarioConfig,
                           y_max_values=DEFAULT_Y_MAX_GRID,
                           noise_levels=DEFAULT_NOISE_LEVELS) -> list[ScenarioConfig]:
    """Grid of configs shrinking the sampled range of the second gradient.

    With common random numbers the gradient positions scale smoothly with
    the range cap instead of being redrawn per cell.
    """
    return _grid(base, _TAG_RANGE, noise_levels,
                 [{"y_max": float(v)} for v in y_max_values])


def optimum_distance_configs(base: ScenarioConfig,
                             y_opt_values=DEFAULT_Y_OPT_GRID,
                             noise_levels=DEFAULT_NOISE_LEVELS) -> list[ScenarioConfig]:
    """Grid of configs moving the second species' optimum along the gradient.

    The first species keeps its optimum at the foot of the gradient; only
    the separation between the two optima changes.
    """
    if len(base.niches) != 2:
        raise ValidationError("optimum-distance sweep needs a 2-species base config")
    first, second = base.niches
    return _grid(base, _TAG_OPTIMUM, noise_levels, [
        {"niches": (SpeciesNiche(first.x_opt, 0.0),
                    SpeciesNiche(second.x_opt, float(v)))}
        for v in y_opt_values])


def sweep_sample_size(base: ScenarioConfig, sizes=DEFAULT_SAMPLE_SIZES,
                      noise_levels=DEFAULT_NOISE_LEVELS,
                      threads: int = 1) -> list[ScenarioOutcome]:
    """Precision of the effect estimate as the number of sites grows."""
    return _map(run_replicated_scenario,
                sample_size_configs(base, sizes, noise_levels), threads)


def bootstrap_validation(scenarios, n_validation: int = 10,
                         threads: int = 1) -> list[ScenarioOutcome]:
    """Observed versus bootstrap-estimated relative error per scenario.

    For each scenario the observed error comes from full re-generation; the
    bootstrap error is the mean bootstrap standard deviation over
    ``n_validation`` fresh datasets, divided by the scenario's mean effect
    size so that both error measures share one denominator.
    """
    scenarios = list(scenarios)
    _check_validation([cfg.replicates for cfg in scenarios], n_validation)
    return _map(partial(_outcome, statistic=_effect_r2,
                        n_validation=n_validation), scenarios, threads)


def cca_proportion(table, env) -> float:
    """Explained-inertia share of the log-transformed table.

    All-zero species columns and all-zero sites are removed first; bootstrap
    resamples produce them routinely. Fewer than 3 usable sites or 2 usable
    species is reported as degenerate.
    """
    return float(_cca_share(None, table, env)[0][0, 0])


def _cca_share(counts, table, env):
    """``cca_proportion`` per count row, as a batched bootstrap statistic."""
    return _block_fractions(_log1p(table), [("env", env)], "cca", counts)


@dataclass(frozen=True)
class CcaScenarioOutcome:
    """One repeat of one cell of the many-species validation grid."""

    n_sites: int
    sigma_noise: float
    repeat: int
    seed: int
    mean_proportion: float
    observed_sd: float
    observed_relative_error: float
    bootstrap_relative_error: float


def _cca_repeat(item, n_validation: int) -> CcaScenarioOutcome:
    config, repeat = item
    o = _outcome(config, _cca_share, n_validation)
    return CcaScenarioOutcome(
        int(config.n_sites), float(config.sigma_noise), int(repeat),
        config.seed, o.observed_mean_r2, o.observed_sd,
        o.observed_relative_error, o.bootstrap_relative_error)


def cca_validation(sizes=CCA_SAMPLE_SIZES, noise_levels=CCA_NOISE_LEVELS,
                   repeats: int = 5, m_replicates: int = 200,
                   n_validation: int = 10, n_species: int = 5, seed: int = 0,
                   threads: int = 1):
    """Bootstrap-error validation on randomly assembled many-species communities.

    Every (size, noise) cell is repeated ``repeats`` times with fresh niche
    optima, and each repeat runs ``m_replicates`` replicates. Returns
    ``(outcomes, report)`` where the report carries the pooled correlation
    between observed and bootstrap-estimated relative errors across all
    repeats.
    """
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    _check_validation([m_replicates], n_validation)
    # Every cell's scenario, niche optima included, is built before any work.
    items = [
        (replace(_complex_config(n, n_species, noise,
                                 derive_seed(seed, _TAG_CCA, i, j, rep), 0.5),
                 replicates=m_replicates), rep)
        for i, n in enumerate(sizes)
        for j, noise in enumerate(noise_levels)
        for rep in range(repeats)
    ]
    outcomes = _map(partial(_cca_repeat, n_validation=n_validation), items,
                    threads)
    observed = [o.observed_relative_error for o in outcomes]
    estimated = [o.bootstrap_relative_error for o in outcomes]
    r, t, df = pearson_r(observed, estimated)
    report = {"pearson_r": r, "t": t, "df": df, "n_pairs": len(outcomes)}
    return outcomes, report


def pearson_r(xs, ys) -> tuple[float, float, int]:
    """Product-moment correlation with its t statistic and degrees of freedom.

    ``t = r * sqrt(df / (1 - r^2))`` with ``df = n - 2``; a perfect
    correlation reports an infinite t.
    """
    x = np.asarray(xs, dtype=float).reshape(-1)
    y = np.asarray(ys, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValidationError("inputs must have equal length")
    if x.size < 3:
        raise ValidationError("need at least 3 pairs")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("inputs contain non-finite values")
    xd = x - x.mean()
    yd = y - y.mean()
    sxx = float(xd @ xd)
    syy = float(yd @ yd)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateDataError("an input has zero variance")
    # One sqrt of the product keeps exactly proportional inputs at r = +/-1.
    r = float(xd @ yd) / math.sqrt(sxx * syy)
    r = min(max(r, -1.0), 1.0)
    df = x.size - 2
    if abs(r) == 1.0:
        t = math.copysign(math.inf, r)
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
    return r, t, df


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman_rho(xs, ys) -> float:
    """Rank correlation; ties get average ranks."""
    x = np.asarray(xs, dtype=float).reshape(-1)
    y = np.asarray(ys, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValidationError("inputs must have equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("inputs contain non-finite values")
    return pearson_r(_ranks(x), _ranks(y))[0]
