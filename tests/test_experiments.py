"""Replicated scenario studies, sweeps, and the validation machinery."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vpboot import experiments, ordination, resample
from vpboot.errors import FEW_SPECIES, DegenerateDataError, ValidationError
from vpboot.experiments import (bootstrap_validation, cca_proportion,
                                cca_validation, optimum_distance_configs,
                                pearson_r, predictor_effect_r2,
                                run_replicated_scenario,
                                sample_size_configs, sampling_range_configs,
                                spearman_rho, sweep_sample_size)
from vpboot.ordination import _planned, _unit
from vpboot.resample import bootstrap_statistic, relative_spread
from vpboot.rng import derive_seed
from vpboot.synth import (ScenarioConfig, SpeciesNiche, _generate_cell,
                          generate_dataset)
from vpboot.tables import CommunityTable


def test_pearson_r_reference_values():
    r, t, df = pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert r == 1.0 and math.isinf(t) and t > 0 and df == 1

    r, t, _ = pearson_r([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert r == -1.0 and math.isinf(t) and t < 0

    r, t, _ = pearson_r([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    assert r == 1.0 and math.isinf(t) and t > 0

    r, t, df = pearson_r([1, 2, 3, 4], [1, 3, 2, 4])
    assert r == pytest.approx(0.8, abs=1e-12)
    assert df == 2
    assert t == pytest.approx(0.8 * math.sqrt(2 / (1 - 0.64)), abs=1e-12)


def test_pearson_r_input_validation():
    with pytest.raises(ValidationError):
        pearson_r([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        pearson_r([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        pearson_r([1.0, 2.0, float("nan")], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError):
        pearson_r([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_spearman_rho_ranks_with_ties():
    assert spearman_rho([1, 2, 3, 4], [10, 100, 1000, 10000]) == 1.0
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
    assert spearman_rho([1, 2, 2, 3], [10, 20, 20, 30]) == 1.0
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_rho(xs, np.exp(xs)) == 1.0
    # Mean ranks of tied runs, against Pearson's r of hand-ranked values.
    assert spearman_rho([3, 1, 3, 2, 3, 1], [1, 2, 3, 4, 5, 6]) == pearson_r(
        [5, 1.5, 5, 3, 5, 1.5], [1, 2, 3, 4, 5, 6])[0]


def test_spearman_rho_rejects_unequal_lengths():
    with pytest.raises(ValidationError, match="^inputs must have equal length$"):
        spearman_rho([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])


def test_spearman_rho_rejects_non_finite_values():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="non-finite"):
            spearman_rho([1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError, match="non-finite"):
            spearman_rho([1.0, 2.0, 3.0, 4.0], [bad, 2.0, 3.0, 4.0])


def test_relative_error_conventions():
    # Relative errors are ``abs(relative_spread(sd, mean))``: the sign of
    # the mean drops out, and the zero-mean conventions survive.
    assert abs(relative_spread(0.2, 0.4)) == pytest.approx(0.5)
    assert abs(relative_spread(0.2, -0.4)) == pytest.approx(0.5)
    assert abs(relative_spread(0.3, 0.0)) == math.inf
    assert math.isnan(abs(relative_spread(0.0, 0.0)))


def test_predictor_effect_matches_manual_decomposition():
    config = ScenarioConfig(seed=6, n_sites=60)
    table, env = generate_dataset(config)
    ym, em = table.values, env.values
    n = ym.shape[0]

    def adjusted(block):
        # Least squares on centred columns, adjusted by the block's rank.
        yc, bc = ym - ym.mean(axis=0), block - block.mean(axis=0)
        coef, *_ = np.linalg.lstsq(bc, yc, rcond=None)
        r2 = np.sum(np.square(bc @ coef)) / np.sum(np.square(yc))
        m = np.linalg.matrix_rank(bc)
        return 1.0 - (1.0 - r2) * (n - 1) / (n - m - 1)

    semipartial = predictor_effect_r2(table, env)
    assert semipartial == pytest.approx(
        adjusted(em) - adjusted(em[:, 0:1]), abs=1e-12)

    with pytest.raises(ValidationError):
        predictor_effect_r2(table, np.ones((n, 3)))


def test_replicated_scenario_is_deterministic_and_self_consistent():
    config = ScenarioConfig(seed=10, n_sites=30, replicates=25)
    first = run_replicated_scenario(config)
    second = run_replicated_scenario(config)
    assert first == second
    values = np.array(first.r2_values)
    assert values.size == 25
    assert first.observed_mean_r2 == pytest.approx(values.mean(), abs=1e-15)
    assert first.observed_sd == pytest.approx(values.std(ddof=1), abs=1e-15)
    assert first.observed_relative_error == pytest.approx(
        abs(relative_spread(first.observed_sd, first.observed_mean_r2)),
        abs=1e-15)
    assert first.bootstrap_relative_error is None


def test_null_configuration_has_vanishing_effect():
    config = ScenarioConfig(
        seed=11, n_sites=100, sigma_noise=0.0, y_max=0.05, replicates=20,
        niches=(SpeciesNiche(0.25, 0.0), SpeciesNiche(0.75, 0.0)))
    outcome = run_replicated_scenario(config)
    assert abs(outcome.observed_mean_r2) < 0.02


def test_more_sites_mean_less_relative_error():
    small = ScenarioConfig(seed=12, n_sites=25, replicates=1000)
    large = ScenarioConfig(seed=12, n_sites=100, replicates=1000)
    assert (run_replicated_scenario(large).observed_relative_error
            < run_replicated_scenario(small).observed_relative_error)


def test_noise_floor_persists_at_large_samples():
    base = ScenarioConfig(seed=23, replicates=100)
    quiet, loud = sweep_sample_size(base, sizes=(1000,),
                                    noise_levels=(0.01, 0.1))
    assert loud.observed_relative_error > quiet.observed_relative_error


def test_null_second_optimum_keeps_range_sweep_flat():
    base = ScenarioConfig(
        seed=24, replicates=20, n_sites=50,
        niches=(SpeciesNiche(0.25, 0.0), SpeciesNiche(0.75, 0.0)))
    outcomes = [run_replicated_scenario(c) for c in sampling_range_configs(
        base, y_max_values=(0.1, 0.5, 1.0), noise_levels=(0.01,))]
    assert all(abs(o.observed_mean_r2) < 0.02 for o in outcomes)


def test_mean_effect_rises_with_separation():
    base = ScenarioConfig(seed=25, replicates=60)
    outcomes = [run_replicated_scenario(c)
                for c in optimum_distance_configs(base, noise_levels=(0.01,))]
    rho = spearman_rho([o.config.niches[1].y_opt for o in outcomes],
                       [o.observed_mean_r2 for o in outcomes])
    assert rho >= 0.9


def test_single_cell_sweep_equals_direct_run():
    base = ScenarioConfig(seed=13, n_sites=10, replicates=15)
    outcomes = sweep_sample_size(base, sizes=(40,), noise_levels=(0.01,))
    assert len(outcomes) == 1
    assert outcomes[0] == run_replicated_scenario(outcomes[0].config)
    assert outcomes[0].config.n_sites == 40


def test_sweep_cells_share_seeds_within_a_noise_level():
    base = ScenarioConfig(seed=14)
    configs = sample_size_configs(base, sizes=(25, 50), noise_levels=(0.01, 0.1))
    assert configs[0].seed == configs[1].seed
    assert configs[2].seed == configs[3].seed
    assert configs[0].seed != configs[2].seed
    assert configs[0].seed != base.seed


def test_optimum_sweep_pins_the_first_species_and_needs_two():
    base = ScenarioConfig(seed=15)
    configs = optimum_distance_configs(base, y_opt_values=(0.0, 0.4),
                                       noise_levels=(0.01,))
    assert [c.niches[1].y_opt for c in configs] == [0.0, 0.4]
    assert all(c.niches[0].y_opt == 0.0 for c in configs)
    assert all(c.niches[0].x_opt == base.niches[0].x_opt for c in configs)

    three_species = replace(
        base, niches=(SpeciesNiche(0.2, 0.0), SpeciesNiche(0.5, 0.5),
                      SpeciesNiche(0.8, 1.0)))
    with pytest.raises(ValidationError):
        optimum_distance_configs(three_species)


def test_the_pool_never_outnumbers_the_items(monkeypatch):
    # A fork pool starts all its workers on the first submit, so asking for
    # more workers than items forks processes that never get work.
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert experiments._map(lambda v: 10 * v, range(3), threads=64) == [0, 10, 20]
    assert asked == [3]
    assert experiments._map(lambda v: 10 * v, [4], threads=64) == [40]
    assert asked == [3]


def test_parallel_sweep_matches_serial():
    base = ScenarioConfig(seed=16, replicates=10)
    serial = sweep_sample_size(base, sizes=(10, 15), noise_levels=(0.05,))
    parallel = sweep_sample_size(base, sizes=(10, 15), noise_levels=(0.05,),
                                 threads=2)
    assert serial == parallel


def test_easy_scenario_bootstrap_tracks_observed_error():
    config = ScenarioConfig(seed=17, replicates=200)
    outcome, = bootstrap_validation([config])
    assert outcome.observed_relative_error < 0.2
    assert outcome.bootstrap_relative_error < 0.2
    ratio = outcome.bootstrap_relative_error / outcome.observed_relative_error
    assert 0.7 < ratio < 1.4


def test_easiest_cell_has_small_well_matched_errors():
    config = ScenarioConfig(seed=17, n_sites=1000, replicates=200)
    outcome, = bootstrap_validation([config])
    assert outcome.observed_relative_error < 0.05
    assert outcome.bootstrap_relative_error < 0.05
    ratio = outcome.bootstrap_relative_error / outcome.observed_relative_error
    assert 0.5 < ratio < 2.0


def test_cca_proportion_prunes_empty_lines():
    values = np.array([
        [5.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        [2.0, 4.0, 0.0],
        [1.0, 3.0, 0.0],
    ])
    ids = ("a", "b", "c", "d")
    table = CommunityTable(ids, ("s1", "s2", "s3"), values)
    env = np.arange(8, dtype=float).reshape(4, 2)
    pruned = cca_proportion(table, env)
    direct = cca_proportion(
        CommunityTable(("a", "c", "d"), ("s1", "s2"),
                       values[[0, 2, 3]][:, :2]),
        env[[0, 2, 3]])
    assert pruned == pytest.approx(direct, abs=1e-12)

    with pytest.raises(ValidationError):
        cca_proportion(table, env[:3])
    sparse = CommunityTable(ids, ("s1", "s2"),
                            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    with pytest.raises(DegenerateDataError):
        cca_proportion(sparse, env)


def test_cca_validation_small_grid():
    outcomes, report = cca_validation(
        sizes=(20,), noise_levels=(0.0, 0.05), repeats=3, m_replicates=20,
        n_validation=2, seed=20)
    assert len(outcomes) == 6
    assert report["n_pairs"] == 6
    assert report["df"] == 4
    assert -1.0 <= report["pearson_r"] <= 1.0
    for o in outcomes:
        assert 0.0 <= o.mean_proportion <= 1.0
        assert o.observed_sd >= 0.0

    again, _ = cca_validation(
        sizes=(20,), noise_levels=(0.0, 0.05), repeats=3, m_replicates=20,
        n_validation=2, seed=20)
    assert outcomes == again


def test_zero_noise_cca_errors_sit_at_the_low_end():
    outcomes, _ = cca_validation(sizes=(100,), noise_levels=(0.0,), repeats=3,
                                 m_replicates=100, n_validation=1, seed=26)
    for o in outcomes:
        assert o.observed_relative_error < 0.05
        assert o.bootstrap_relative_error < 0.05


def test_cca_observed_error_grows_as_sites_shrink():
    outcomes, _ = cca_validation(
        sizes=(20, 100), noise_levels=(0.01,), repeats=2, m_replicates=50,
        n_validation=2, seed=21)
    by_size = {}
    for o in outcomes:
        by_size.setdefault(o.n_sites, []).append(o.observed_relative_error)
    assert np.mean(by_size[20]) >= np.mean(by_size[100])


def _no_generation(*_args):
    raise AssertionError("a study generated data before checking its arguments")


@pytest.mark.parametrize("study", [
    lambda: bootstrap_validation([ScenarioConfig(seed=1, n_sites=10)],
                                 n_validation=0),
    lambda: bootstrap_validation([ScenarioConfig(seed=1, n_sites=10,
                                                 replicates=1)]),
    lambda: cca_validation(sizes=(20,), noise_levels=(0.0,), n_validation=0),
    lambda: cca_validation(sizes=(20,), noise_levels=(0.0,), m_replicates=1),
    lambda: cca_validation(sizes=(20,), noise_levels=(0.0,), seed=-1),
    lambda: cca_validation(sizes=(20, 2), noise_levels=(0.0,)),
    lambda: bootstrap_validation([ScenarioConfig(seed=1, n_sites=10,
                                                 replicates=2 ** 32)]),
    lambda: cca_validation(sizes=(20,), noise_levels=(0.0,),
                           m_replicates=2 ** 32),
], ids=["no-validation-tables", "one-replicate", "cca-no-validation-tables",
        "cca-one-replicate", "cca-negative-seed", "cca-too-few-sites",
        "too-many-replicates", "cca-too-many-replicates"])
def test_studies_check_their_arguments_before_any_work(study, monkeypatch):
    monkeypatch.setattr(experiments, "_generate_cell", _no_generation)
    with pytest.raises(ValidationError):
        study()


def _spy(monkeypatch, name):
    calls = []
    original = getattr(experiments, name)

    def spy(config, arg, *rest):
        calls.append((config, list(arg) if name == "_generate_cell" else arg))
        return original(config, arg, *rest)

    monkeypatch.setattr(experiments, name, spy)
    return calls


@pytest.mark.parametrize("study, scenarios", [
    (lambda: bootstrap_validation(
        [ScenarioConfig(seed=s, n_sites=12, replicates=6) for s in (2, 3)],
        n_validation=3), 2),
    (lambda: cca_validation(sizes=(12,), noise_levels=(0.05,), repeats=3,
                            m_replicates=6, n_validation=3, seed=2), 3),
], ids=["rda", "cca"])
def test_one_generator_call_makes_a_scenarios_validation_tables(
        study, scenarios, monkeypatch):
    calls = _spy(monkeypatch, "_generate_cell")
    study()
    assert [r for _, r in calls if max(r) >= 6] == [[6, 7, 8]] * scenarios


@pytest.mark.parametrize("statistic", ["_effect_r2", "_cca_share"])
def test_validation_tables_get_bootstraps_of_their_own(statistic):
    # Each table's bootstrap plans its own fit: the spread over two tables
    # is the mean of two bootstraps that fit every chunk afresh.
    spec = getattr(experiments, statistic)
    config = ScenarioConfig(seed=6, n_sites=30, replicates=40)
    tables, envs = _generate_cell(config, range(40, 42))
    fresh = [bootstrap_statistic(
        table, [env], lambda c, *a: _planned(spec)(c, *a), 40,
        derive_seed(6, experiments._TAG_VALIDATION_TABLE, v))[0].sd
        for v, (table, env) in enumerate(zip(tables, envs))]
    assert fresh[0] != fresh[1]
    assert experiments._bootstrap_spread(config, spec, 2) == float(
        np.mean(fresh))


@pytest.mark.parametrize("statistic", ["_effect_r2", "_cca_share"])
def test_a_validation_bootstrap_plans_each_table_once(statistic, monkeypatch):
    # Three tables of 20 replicates in chunks of 8, and one forced redraw
    # per table: one plan per table, whatever the chunks and redraws.
    config = ScenarioConfig(seed=7, n_sites=20, replicates=20)
    monkeypatch.setattr(resample, "_CHUNK_VALUES",
                        8 * resample._replicate_values(20, 2, 2))
    plans, fits = [], []

    class CountingPlan(ordination._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            self.table = len(plans)
            plans.append(self)

        def fit(self, counts):
            fractions, reasons = super().fit(counts)
            if (self.table, 8) not in fits:  # this table's first chunk
                reasons = np.where(np.arange(len(counts)) == 0, FEW_SPECIES,
                                   reasons)
            fits.append((self.table, len(counts)))
            return fractions, reasons

    monkeypatch.setattr(ordination, "_Plan", CountingPlan)
    experiments._bootstrap_spread(config, getattr(experiments, statistic), 3)
    assert len(plans) == 3
    assert fits == [(t, k) for t in range(3) for k in (8, 1, 8, 4)]


def test_cca_configs_carry_the_studys_replicate_count(monkeypatch):
    calls = _spy(monkeypatch, "_cell_values")
    outcomes, _ = cca_validation(sizes=(12,), noise_levels=(0.0, 0.05),
                                 repeats=2, m_replicates=7, n_validation=1,
                                 seed=3)
    assert len(calls) == len(outcomes) == 4
    assert [config.replicates for config, _ in calls] == [7] * 4


@pytest.mark.parametrize("broken, expected", [(5, "fit of 2"),
                                              (1, "generation of 1")])
def test_cell_errors_come_in_replicate_order(broken, expected, monkeypatch):
    # One chunk holds all eight replicates: a failure anywhere in it must
    # still surface as the first failing replicate's own error.
    config = ScenarioConfig(seed=4, n_sites=10, replicates=8)
    generate = experiments._generate_cell
    second = generate(config, [2])[0][0]

    def generating(cfg, replicates):
        if broken in replicates:
            raise DegenerateDataError(f"generation of {broken}")
        return generate(cfg, replicates)

    def fitting(tables, env):
        if any(np.array_equal(t, second) for t in tables):
            raise DegenerateDataError("fit of 2")
        return tables, [("env", env)], "rda", lambda f: np.zeros_like(f)

    monkeypatch.setattr(experiments, "_generate_cell", generating)
    with pytest.raises(DegenerateDataError, match=f"^{expected}$"):
        experiments._cell_values(config, fitting)


def test_a_failing_replicate_raises_its_per_replicate_error():
    # Far-off optima and no noise: site 4 of replicate 16 underflows to 0.
    config = ScenarioConfig(
        seed=8, n_sites=8, sigma_noise=0.0, sigma_niche=0.1, replicates=30,
        niches=(SpeciesNiche(3.0, 3.0), SpeciesNiche(-2.0, 3.0)))
    for r in range(config.replicates):
        try:
            generate_dataset(config, replicate=r)
        except DegenerateDataError as exc:
            expected = str(exc)
            break
    else:
        pytest.fail("no replicate failed")
    assert r == 16 and expected.startswith("site 4: ")
    with pytest.raises(DegenerateDataError) as raised:
        run_replicated_scenario(config)
    assert str(raised.value) == expected


def test_one_sweep_chunk_stays_within_its_memory_bound():
    # The largest chunk of the 25-250-site sweep: generating it took about
    # 390 bytes a site when the generator went through Python lists; the
    # array generator and the fit each peak near 125.
    config = ScenarioConfig(seed=5, n_sites=250)
    size = experiments._CELL_CHUNK_VALUES // (config.n_sites * 4)
    chunk = range(size)
    _unit(experiments._effect_r2, *_generate_cell(config, chunk))
    tracemalloc.start()
    try:
        _unit(experiments._effect_r2, *_generate_cell(config, chunk))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * size * config.n_sites
