"""Randomized invariant checks, 1000 cases per property.

The count-weight oracle check uses 200 random tables per statistic instead:
each table runs a full materialising bootstrap.
"""

import math
from functools import partial

import numpy as np
import pytest

from vpboot.errors import DegenerateDataError
from vpboot.experiments import (_cca_share, _effect_r2, cca_proportion,
                                predictor_effect_r2)
from vpboot.ordination import (_partition, _rollups, chi_square_transform,
                               fit_projection)
from vpboot.resample import FAILURE_BUDGET, bootstrap_statistic
from vpboot.rng import ROLE_NICHE, ROLE_SITE, stream
from vpboot.synth import (ScenarioConfig, SiteEnvironment, SpeciesNiche,
                          generate_complex_dataset, generate_dataset,
                          relative_abundance, site_abundances)
from vpboot.tables import CommunityTable, PredictorBlock

CASES = 1000


def test_projection_is_idempotent():
    rng = np.random.default_rng(101)
    for _ in range(CASES):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(0, 4))
        x = rng.normal(size=(n, m))
        if m > 1 and rng.random() < 0.3:
            x[:, -1] = x[:, 0]
        y = rng.normal(size=(n, p))
        weights = rng.uniform(0.2, 2.0, size=n) if rng.random() < 0.3 else None
        once = fit_projection(y, x, weights=weights)
        twice = fit_projection(once, x, weights=weights)
        assert np.max(np.abs(twice - once)) < 1e-10


def test_chi_square_weighted_marginals_vanish():
    rng = np.random.default_rng(102)
    for _ in range(CASES):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(2, 7))
        y = rng.uniform(0.05, 5.0, size=(n, p))
        qbar, r, c, inertia = chi_square_transform(y)
        assert inertia >= 0.0
        row_sums = np.sqrt(r) @ qbar
        col_sums = qbar @ np.sqrt(c)
        assert np.max(np.abs(row_sums)) < 1e-10
        assert np.max(np.abs(col_sums)) < 1e-10


def test_generated_rows_hit_the_capacity_band():
    rng = np.random.default_rng(103)
    for _ in range(CASES):
        n_species = int(rng.integers(2, 5))
        niches = tuple(
            SpeciesNiche(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            for _ in range(n_species))
        config = ScenarioConfig(
            seed=int(rng.integers(0, 2**32)),
            n_sites=int(rng.integers(3, 9)),
            niches=niches,
            sigma_noise=float(rng.choice([0.0, 0.01, 0.1])),
            y_max=float(rng.uniform(0.05, 1.0)),
            carrying_capacity=int(rng.choice([1, 10, 100, 10**4])))
        table, env = generate_dataset(config)
        values = table.values
        assert np.all(values >= 0)
        assert np.array_equal(values, np.round(values))
        sums = values.sum(axis=1)
        assert np.all(sums >= config.carrying_capacity)
        assert np.all(sums < config.carrying_capacity + config.n_species)
        assert env.values.shape == (config.n_sites, 2)
        assert np.all(env.values[:, 0] >= 0) and np.all(env.values[:, 0] <= 1)
        assert np.all(env.values[:, 1] >= 0)
        assert np.all(env.values[:, 1] <= config.y_max)


def _scalar_site_oracle(config, replicate):
    """The per-site generator: one stream per site, one scalar draw at a time.

    Returns the counts, the environment and the number of noise redraws.
    """
    counts, env, redraws = [], [], 0
    for i in range(config.n_sites):
        rng = stream(config.seed, ROLE_SITE, replicate, i)
        site = SiteEnvironment(rng.uniform(0.0, 1.0),
                               rng.uniform(0.0, config.y_max))
        for _ in range(100):
            alphas = [relative_abundance(site, niche, config.sigma_niche,
                                         config.sigma_noise, rng)
                      for niche in config.niches]
            if math.fsum(alphas) > 0.0:
                break
            if config.sigma_noise == 0.0:
                raise DegenerateDataError(f"site {i}: no noise to redraw")
            redraws += 1
        else:
            raise DegenerateDataError(f"site {i}: budget exhausted")
        counts.append(site_abundances(alphas, config.carrying_capacity))
        env.append((site.x, site.y))
    return np.array(counts, dtype=float), np.array(env), redraws


def _oracle_case(rng, case):
    """A random generator config, or a complex-dataset one (last entry True)."""
    if case % 5 == 4:
        n_species = int(rng.integers(2, 36))
        seed = int(rng.integers(0, 2**63))
        niche_rng = stream(seed, ROLE_NICHE)
        niches = tuple(SpeciesNiche(niche_rng.uniform(0.0, 1.0),
                                    niche_rng.uniform(0.0, 1.0))
                       for _ in range(n_species))
        config = ScenarioConfig(
            seed=seed, n_sites=int(rng.integers(5, 40)), niches=niches,
            sigma_niche=float(rng.choice([0.5, 0.2])),
            sigma_noise=float(rng.choice([0.0, 0.01, 0.5])))
        return config, int(rng.integers(0, 3)), True
    if case % 5 == 3:  # far-off optima: most sites need noise redraws
        niches = (SpeciesNiche(3.0, 3.0), SpeciesNiche(-2.0, 3.0))
        sigma_niche = 0.1
        sigma_noise = float(rng.choice([0.01, 0.01, 0.01, 0.0]))
    else:
        niches = tuple(SpeciesNiche(*rng.uniform(-0.5, 1.5, size=2).tolist())
                       for _ in range(int(rng.integers(2, 6))))
        sigma_niche = float(rng.choice([0.5, 0.3, 0.1]))
        sigma_noise = float(rng.choice([0.0, 0.01, 0.5, 2.0]))
    config = ScenarioConfig(
        seed=int(rng.integers(0, 2**32)) if case % 2 else int(rng.integers(0, 4)),
        n_sites=200 if case == 3 else int(rng.integers(3, 60)),
        niches=niches, sigma_niche=sigma_niche, sigma_noise=sigma_noise,
        y_max=float(rng.choice([1.0, 0.3])),
        carrying_capacity=int(rng.choice([7, 10**4, 10**6 + 3])))
    return config, int(rng.integers(0, 1000)), False


def test_vectorised_generator_matches_the_scalar_oracle():
    rng = np.random.default_rng(105)
    redraws = failures = 0
    for case in range(200):
        config, replicate, complex_ = _oracle_case(rng, case)
        try:
            counts, env, redrawn = _scalar_site_oracle(config, replicate)
        except DegenerateDataError as exc:
            site = str(exc).split(":")[0]
            with pytest.raises(DegenerateDataError, match=f"^{site}:"):
                generate_dataset(config, replicate=replicate)
            failures += 1
            continue
        if complex_:
            table, block = generate_complex_dataset(
                config.n_sites, config.n_species, config.sigma_noise,
                config.seed, replicate, config.sigma_niche)
        else:
            table, block = generate_dataset(config, replicate=replicate)
        assert table.values.tobytes() == counts.tobytes()
        assert block.values.tobytes() == env.tobytes()
        redraws += redrawn
    # The far-off optima exercise both the redraw loop and the failure path.
    assert redraws > 200 and failures > 0


def test_resampling_keeps_sites_glued():
    rng = np.random.default_rng(104)
    chi2 = df = 0.0
    for _ in range(CASES):
        n = int(rng.integers(3, 11))
        seed = int(rng.integers(0, 2**32))
        ids = tuple(f"site{i}" for i in range(n))
        index_column = np.arange(n, dtype=float)
        table = CommunityTable(ids, ("sp1", "sp2"),
                               np.column_stack([index_column, index_column]))
        block_a = PredictorBlock("a", ids, index_column + 100.0)
        block_b = PredictorBlock("b", ids,
                                 np.column_stack([index_column + 200.0,
                                                  index_column + 300.0]))
        draws = []

        def recording(counts, y, a, b):
            draws.append((counts, y, a, b))
            return np.zeros((len(counts), 1)), np.zeros(len(counts), dtype=bool)

        bootstrap_statistic(table, [block_a, block_b], recording, 2, seed)
        (counts, y, a, b), = draws
        assert np.array_equal(y, table.values)
        for j, c in enumerate(counts):
            drawn = np.repeat(y, c, axis=0)[:, 0]
            assert np.array_equal(np.repeat(y, c, axis=0)[:, 1], drawn)
            assert np.array_equal(np.repeat(a, c, axis=0)[:, 0], drawn + 100.0)
            assert np.array_equal(np.repeat(b, c, axis=0),
                                  np.column_stack([drawn + 200.0,
                                                   drawn + 300.0]))
            # Role 2 is the bootstrap role of the stream contract.
            expected = stream(seed, 2, j, 0).integers(0, n, size=n)
            assert np.array_equal(c, np.bincount(expected, minlength=n))
        counts = counts.sum(axis=0)
        mean_count = counts.sum() / n
        chi2 += float(np.sum((counts - mean_count) ** 2)) / mean_count
        df += n - 1
    # Pooled Pearson statistic of the uniform law: mean df, sd <= sqrt(2 df).
    assert abs(chi2 - df) < 5.0 * np.sqrt(2.0 * df)


def _materialising_bootstrap(y, blocks, fit, m_replicates, seed):
    """The pre-count bootstrap: fit every resampled table ``y[idx]`` alone.

    Draws as ``bootstrap_statistic`` does and redraws a replicate whose fit
    raises ``DegenerateDataError``. Returns the index vectors of the kept
    replicates, their values, the index vectors of the rejected draws and
    whether the failure budget ran out.
    """
    n = y.shape[0]
    kept, values, rejected = [], [], []
    for j in range(m_replicates):
        attempt = 0
        while True:
            idx = stream(seed, 2, j, attempt).integers(0, n, size=n)
            try:
                values.append(np.atleast_1d(fit(y[idx], *(b[idx] for b in blocks))))
            except DegenerateDataError:
                rejected.append(idx)
                if len(rejected) > FAILURE_BUDGET * m_replicates:
                    return kept, values, rejected, True
                attempt += 1
                continue
            kept.append(idx)
            break
    return kept, values, rejected, False


def _rda_case(rng):
    n = int(rng.integers(5, 11))
    y = rng.normal(size=(n, int(rng.integers(1, 4))))
    x = rng.normal(size=(n, int(rng.integers(1, 3))))
    w = rng.normal(size=(n, int(rng.integers(1, 4))))
    if rng.random() < 0.3:
        x = np.round(x)  # few distinct levels: resamples lose rank
    return y, [x, w]


def _cca_table(rng, n, p):
    y = rng.integers(0, 6, size=(n, p)).astype(float)
    y[rng.random(size=(n, p)) < 0.5] = 0.0  # sparse: resamples lose species
    if rng.random() < 0.2:
        y[int(rng.integers(0, n))] = 0.0  # an empty site, dead everywhere
    return y


def _cca_case(rng):
    n = int(rng.integers(5, 11))
    return _cca_table(rng, n, int(rng.integers(2, 6))), [
        rng.normal(size=(n, int(rng.integers(1, 3)))),
        rng.normal(size=(n, int(rng.integers(0, 3))))]


def _effect_case(rng):
    n = int(rng.integers(3, 9))
    return rng.normal(size=(n, int(rng.integers(1, 3)))), [
        rng.uniform(size=(n, 2))]


def _share_case(rng):
    n = int(rng.integers(5, 11))
    return _cca_table(rng, n, int(rng.integers(2, 6))), [
        rng.normal(size=(n, int(rng.integers(1, 3))))]


ORACLE_CASES = {
    "rda": (_rda_case, lambda y, x, w: _partition(y, x, w, "rda").rollup(),
            partial(_rollups, method="rda")),
    "cca": (_cca_case, lambda y, x, w: _partition(y, x, w, "cca").rollup(),
            partial(_rollups, method="cca")),
    "effect": (_effect_case, predictor_effect_r2,
               partial(_effect_r2, mode="semipartial")),
    "cca_share": (_share_case, cca_proportion, _cca_share),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_CASES))
def test_count_weights_match_the_materialising_oracle(kind):
    make_case, fit, statistic = ORACLE_CASES[kind]
    rng = np.random.default_rng(105)
    m_replicates, tol = 60, 1e-12
    redraws = 0
    for case in range(200):
        y, blocks = make_case(rng)
        n = y.shape[0]
        kept, values, rejected, aborted = _materialising_bootstrap(
            y, blocks, fit, m_replicates, case)
        counts = [np.bincount(idx, minlength=n) for idx in kept]
        if counts:
            got, flagged = statistic(np.stack(counts), y, *blocks)
            assert not flagged.any()
            assert np.max(np.abs(got - np.array(values))) <= tol
        if rejected:
            _, flagged = statistic(
                np.stack([np.bincount(idx, minlength=n) for idx in rejected]),
                y, *blocks)
            assert flagged.all()
        redraws += len(rejected)
        if aborted:
            with pytest.raises(DegenerateDataError,
                               match=f"^{len(rejected)} of {m_replicates} "):
                bootstrap_statistic(y, blocks, statistic, m_replicates, case)
            continue
        expected = np.array(values)
        summaries = bootstrap_statistic(y, blocks, statistic, m_replicates,
                                        case)
        for k, summary in enumerate(summaries):
            assert summary.redraw_count == len(rejected)
            lo, hi = np.percentile(expected[:, k], [2.5, 97.5])
            assert abs(summary.mean - expected[:, k].mean()) <= tol
            assert abs(summary.sd - expected[:, k].std(ddof=1)) <= tol
            assert abs(summary.ci95_low - lo) <= tol
            assert abs(summary.ci95_high - hi) <= tol
    # The cases must exercise redraws, not only clean replicates.
    assert redraws > 0
