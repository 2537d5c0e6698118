"""Behaviour of the Gaussian-niche community generator."""

import math

import numpy as np
import pytest

from scalar_oracle import (SiteEnvironment, gaussian_response,
                           relative_abundance, site_abundances)
from vpboot.errors import DegenerateDataError, ValidationError
from vpboot.ordination import _block_fractions, rda_r2
from vpboot.rng import ROLE_SITE, stream
from vpboot.synth import (ScenarioConfig, SpeciesNiche, _complex_config,
                          _densities, _generate_cell,
                          generate_complex_dataset, generate_dataset)


def test_gaussian_response_reference_values():
    peak = 1.0 / (0.5 * math.sqrt(2.0 * math.pi))
    assert gaussian_response(0.5, 0.5, 0.5) == pytest.approx(peak, abs=1e-12)
    assert gaussian_response(1.0, 0.5, 0.5) == pytest.approx(
        peak * math.exp(-0.5), abs=1e-12)
    assert gaussian_response(1.0, 0.5, 0.5) == pytest.approx(0.483941, abs=1e-6)
    assert gaussian_response(0.3, 0.5, 0.5) == pytest.approx(
        gaussian_response(0.7, 0.5, 0.5), rel=1e-12)
    with pytest.raises(ValidationError):
        gaussian_response(0.5, 0.5, 0.0)


def test_vectorised_densities_equal_the_scalar_response_bitwise():
    # A last-bit change in a density rarely flips a rounded-up count, so
    # the densities themselves are compared with the scalar reference.
    rng = np.random.default_rng(17)
    values = rng.uniform(0.0, 1.0, size=2000)
    optima = rng.uniform(-0.5, 1.5, size=5)
    for sigma in (0.1, 0.5, 0.3):
        dens = _densities(values, optima, sigma)
        expected = np.array([[gaussian_response(v, o, sigma) for o in optima]
                             for v in values.tolist()])
        assert dens.tobytes() == expected.tobytes()


def test_noise_free_abundance_is_the_exact_product():
    site = SiteEnvironment(0.5, 0.5)
    niche = SpeciesNiche(0.5, 0.5)
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state
    value = relative_abundance(site, niche, 0.5, 0.0, rng)
    assert value == pytest.approx(0.636620, abs=1e-6)
    assert value == gaussian_response(0.5, 0.5, 0.5) ** 2
    # no random numbers are consumed when the noise is off
    assert rng.bit_generator.state == state_before


def test_noisy_abundance_mean_converges_to_the_product():
    site = SiteEnvironment(0.5, 0.5)
    niche = SpeciesNiche(0.5, 0.5)
    rng = np.random.default_rng(99)
    draws = np.array([
        relative_abundance(site, niche, 0.5, 0.05, rng)
        for _ in range(100_000)
    ])
    exact = gaussian_response(0.5, 0.5, 0.5) ** 2
    standard_error = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - exact) < 3.0 * standard_error


def test_noisy_abundance_is_never_negative():
    site = SiteEnvironment(0.0, 1.0)
    niche = SpeciesNiche(1.0, 0.0)  # far from the site, so noise dominates
    rng = np.random.default_rng(7)
    values = [relative_abundance(site, niche, 0.5, 0.5, rng)
              for _ in range(2000)]
    assert min(values) >= 0.0


def test_site_abundances_exact_triples():
    assert site_abundances([1.0, 1.0], 10_000) == [5000, 5000]
    assert site_abundances([1.0, 3.0], 10_000) == [2500, 7500]
    counts = site_abundances([1.0, 2.0], 10_000)
    assert counts == [3334, 6667]
    assert sum(counts) == 10_001
    assert site_abundances([0.0, 1.0], 10) == [0, 10]
    assert site_abundances([1e-12, 1.0], 100) == [1, 100]


def test_site_abundances_validation():
    with pytest.raises(DegenerateDataError):
        site_abundances([0.0, 0.0], 100)
    with pytest.raises(ValidationError):
        site_abundances([-1.0, 2.0], 100)
    with pytest.raises(ValidationError):
        site_abundances([float("nan"), 1.0], 100)


def test_scenario_config_validation():
    good = ScenarioConfig(seed=3)
    assert good.n_species == 2
    cases = [
        dict(seed=-1),
        dict(seed=0, n_sites=2),
        dict(seed=0, n_sites=2 ** 32),
        dict(seed=0, n_sites=10 ** 308),
        dict(seed=0, niches=(SpeciesNiche(0.5, 0.5),)),
        dict(seed=0, sigma_niche=0.0),
        dict(seed=0, sigma_noise=-0.1),
        dict(seed=0, y_max=0.0),
        dict(seed=0, y_max=1.5),
        dict(seed=0, carrying_capacity=0),
        dict(seed=0, replicates=0),
    ]
    for kwargs in cases:
        with pytest.raises(ValidationError):
            ScenarioConfig(**kwargs)


def test_species_niche_rejects_non_finite_optima():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for optima in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValidationError,
                               match="^niche optima must be finite$"):
                SpeciesNiche(*optima)


def test_generate_dataset_is_deterministic():
    config = ScenarioConfig(seed=42, n_sites=12)
    table1, env1 = generate_dataset(config, replicate=3)
    table2, env2 = generate_dataset(config, replicate=3)
    assert np.array_equal(table1.values, table2.values)
    assert np.array_equal(env1.values, env2.values)
    assert table1.site_ids == table2.site_ids

    other, _ = generate_dataset(config, replicate=4)
    assert not np.array_equal(table1.values, other.values)
    with pytest.raises(ValidationError):
        generate_dataset(config, replicate=-1)


def test_sites_are_independent_streams():
    # the first sites of a longer run coincide with a shorter run
    small, env_small = generate_dataset(ScenarioConfig(seed=8, n_sites=5))
    large, env_large = generate_dataset(ScenarioConfig(seed=8, n_sites=9))
    assert np.array_equal(small.values, large.values[:5])
    assert np.array_equal(env_small.values, env_large.values[:5])


def test_identical_niches_give_equal_columns_without_noise():
    config = ScenarioConfig(
        seed=5, n_sites=20, sigma_noise=0.0,
        niches=(SpeciesNiche(0.5, 0.5), SpeciesNiche(0.5, 0.5)))
    table, _ = generate_dataset(config)
    assert np.max(np.abs(table.values[:, 0] - table.values[:, 1])) <= 1.0


def test_generated_rows_meet_the_capacity_bounds():
    config = ScenarioConfig(seed=1)
    table, env = generate_dataset(config)
    sums = table.values.sum(axis=1)
    assert np.all(sums >= config.carrying_capacity)
    assert np.all(sums < config.carrying_capacity + config.n_species)
    assert np.array_equal(table.values, np.floor(table.values))
    assert np.all(env.values[:, 0] >= 0.0) and np.all(env.values[:, 0] <= 1.0)
    assert np.all(env.values[:, 1] >= 0.0) and np.all(env.values[:, 1] <= 1.0)


def test_gradient_range_cap_bounds_the_second_column():
    config = ScenarioConfig(seed=2, y_max=0.3)
    _, env = generate_dataset(config)
    assert np.all(env.values[:, 1] <= 0.3)


def test_shrinking_the_range_never_raises_gradient_variance():
    grid = (0.2, 0.5, 1.0)
    mean_variance = []
    for y_max in grid:
        variances = [
            np.var(generate_dataset(
                ScenarioConfig(seed=s, n_sites=20, y_max=y_max,
                               replicates=1))[1].values[:, 1], ddof=1)
            for s in range(200)
        ]
        mean_variance.append(np.mean(variances))
    assert mean_variance[0] <= mean_variance[1] <= mean_variance[2]


def test_unreachable_niches_without_noise_fail_loudly():
    config = ScenarioConfig(
        seed=0, n_sites=3, sigma_noise=0.0,
        niches=(SpeciesNiche(100.0, 100.0), SpeciesNiche(100.0, 100.0)))
    with pytest.raises(DegenerateDataError,
                       match=r"^site 0: .*\(no noise to redraw\)$"):
        generate_dataset(config)


def test_noise_redraw_budget_exhaustion_fails_loudly():
    # Every noisy factor is about 1e-200, so each product underflows to 0
    # on all 100 draws of the site's noise.
    config = ScenarioConfig(
        seed=0, n_sites=3, sigma_noise=1e-200,
        niches=(SpeciesNiche(100.0, 100.0), SpeciesNiche(100.0, 100.0)))
    with pytest.raises(DegenerateDataError,
                       match=r"^site 0: .*budget of 100 exhausted"):
        generate_dataset(config)


def test_complex_dataset_shapes_and_determinism():
    table, env = generate_complex_dataset(40, n_species=5, seed=9)
    assert table.values.shape == (40, 5)
    assert env.values.shape == (40, 2)

    again, _ = generate_complex_dataset(40, n_species=5, seed=9)
    assert np.array_equal(table.values, again.values)

    other_replicate, _ = generate_complex_dataset(40, n_species=5, seed=9,
                                                  replicate=1)
    assert not np.array_equal(table.values, other_replicate.values)

    with pytest.raises(ValidationError):
        generate_complex_dataset(4)
    with pytest.raises(ValidationError):
        generate_complex_dataset(40, n_species=1)


def test_complex_communities_exhibit_nonlinearity():
    # random optima produce unimodal responses, which the chi-square view
    # captures better than a straight linear fit on at least some draws
    wins = 0
    for seed in range(20):
        table, env = generate_complex_dataset(40, seed=seed)
        linear = rda_r2(table.values, env.values)
        shares, _ = _block_fractions(table.values, [("env", env.values)],
                                     "cca")
        unimodal = shares[0, 0]
        wins += unimodal > linear
    assert wins >= 1


def test_a_cell_stacks_the_datasets_of_its_replicates():
    far = (SpeciesNiche(3.0, 3.0), SpeciesNiche(-2.0, 3.0))  # many redraws
    configs = [ScenarioConfig(seed=6, n_sites=11),
               ScenarioConfig(seed=2**40, n_sites=7, sigma_noise=0.0, y_max=0.3),
               ScenarioConfig(seed=5, n_sites=9, niches=far, sigma_niche=0.1),
               _complex_config(12, 6, 0.05, 77, 0.5)]
    for config in configs:
        replicates = [4, 0, 9, 2**31]
        counts, env = _generate_cell(config, replicates)
        assert counts.shape == (4, config.n_sites, config.n_species)
        assert env.shape == (4, config.n_sites, 2)
        for k, r in enumerate(replicates):
            table, block = generate_dataset(config, replicate=r)
            assert counts[k].tobytes() == table.values.tobytes()
            assert env[k].tobytes() == block.values.tobytes()
    complex_table, _ = generate_complex_dataset(12, 6, 0.05, 77, replicate=9)
    assert complex_table.values.tobytes() == _generate_cell(
        configs[-1], [9])[0][0].tobytes()


def test_a_cell_raises_the_first_failing_replicates_error():
    # Site 4 of replicate 16 is the first site to die; replicate 20 dies too.
    config = ScenarioConfig(
        seed=8, n_sites=8, sigma_noise=0.0, sigma_niche=0.1,
        niches=(SpeciesNiche(3.0, 3.0), SpeciesNiche(-2.0, 3.0)))
    with pytest.raises(DegenerateDataError) as single:
        generate_dataset(config, replicate=16)
    assert str(single.value).startswith("site 4: ")
    with pytest.raises(DegenerateDataError) as cell:
        _generate_cell(config, range(30))
    assert str(cell.value) == str(single.value)


def test_dead_sites_continue_their_own_streams():
    # Far-off optima kill most sites on their first noise draws. A dead site
    # whose first normals also left the ziggurat's fast path resumes from
    # the state its fallback generator ended in, not a stepped one.
    config = ScenarioConfig(seed=12, n_sites=40, sigma_niche=0.1,
                            niches=(SpeciesNiche(3.0, 3.0),
                                    SpeciesNiche(-2.0, 3.0)))
    counts, env = _generate_cell(config, range(6))
    words = 2 + 2 * config.n_species
    resumed = 0
    for r in range(6):
        for i in range(config.n_sites):
            rng = stream(config.seed, ROLE_SITE, r, i)
            site = SiteEnvironment(rng.uniform(0.0, 1.0),
                                   rng.uniform(0.0, config.y_max))
            draws = 0
            while True:
                alphas = [relative_abundance(site, niche, config.sigma_niche,
                                             config.sigma_noise, rng)
                          for niche in config.niches]
                if draws == 0:
                    plain = stream(config.seed, ROLE_SITE, r, i)
                    plain.random(words)
                    fell_back = (rng.bit_generator.state !=
                                 plain.bit_generator.state)
                draws += 1
                if math.fsum(alphas) > 0.0:
                    break
            resumed += draws > 1 and fell_back
            assert counts[r, i].tolist() == site_abundances(
                alphas, config.carrying_capacity)
            assert env[r, i].tolist() == [site.x, site.y]
    assert resumed > 0
