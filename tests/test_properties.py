"""Randomized invariant checks, 1000 cases per property."""

import numpy as np

from vpboot.ordination import chi_square_transform, fit_projection
from vpboot.resample import bootstrap_statistic
from vpboot.rng import stream
from vpboot.synth import ScenarioConfig, SpeciesNiche, generate_dataset
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

        def recording(y, a, b):
            draws.append((y, a, b))
            return 0.0

        bootstrap_statistic(table, [block_a, block_b], recording, 2, seed)
        for j, (y, a, b) in enumerate(draws):
            drawn = y[:, 0]
            assert np.array_equal(y[:, 1], drawn)
            assert np.array_equal(a[:, 0], drawn + 100.0)
            assert np.array_equal(b[:, 0], drawn + 200.0)
            assert np.array_equal(b[:, 1], drawn + 300.0)
            # Role 2 is the bootstrap role of the stream contract.
            expected = stream(seed, 2, j, 0).integers(0, n, size=n)
            assert np.array_equal(drawn.astype(int), expected)
        counts = np.bincount(
            np.concatenate([y[:, 0] for y, _, _ in draws]).astype(int),
            minlength=n)
        mean_count = counts.sum() / n
        chi2 += float(np.sum((counts - mean_count) ** 2)) / mean_count
        df += n - 1
    # Pooled Pearson statistic of the uniform law: mean df, sd <= sqrt(2 df).
    assert abs(chi2 - df) < 5.0 * np.sqrt(2.0 * df)
