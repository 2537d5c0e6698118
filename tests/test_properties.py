"""Randomized invariant checks, 1000 cases per property.

The count-weight oracle check uses 200 random tables per statistic instead:
each table runs a full materialising bootstrap. The stacked-kernel checks
fit five stacks of 200 tables per method, each table also on its own.
"""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from scalar_oracle import SiteEnvironment, relative_abundance, site_abundances
from vpboot.errors import DegenerateDataError, ValidationError
from vpboot.experiments import (_cca_share, _effect_r2, cca_proportion,
                                predictor_effect_r2)
from vpboot.ordination import (_block_fractions, _partition, _Plan, _planned,
                               _r2, _rollups, chi_square_transform,
                               fit_projection)
from vpboot.resample import FAILURE_BUDGET, bootstrap_statistic
from vpboot.rng import ROLE_NICHE, ROLE_SITE, stream
from vpboot.synth import (ScenarioConfig, SpeciesNiche,
                          generate_complex_dataset, generate_dataset)
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
        once = fit_projection(y, x)
        twice = fit_projection(once, x)
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
    "effect": (_effect_case, predictor_effect_r2, _effect_r2),
    "cca_share": (_share_case, cca_proportion, _cca_share),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_CASES))
def test_count_weights_match_the_materialising_oracle(kind):
    make_case, fit, spec = ORACLE_CASES[kind]
    rng = np.random.default_rng(105)
    m_replicates, tol = 60, 1e-12
    redraws = 0
    for case in range(200):
        y, blocks = make_case(rng)
        n = y.shape[0]
        kept, values, rejected, aborted = _materialising_bootstrap(
            y, blocks, fit, m_replicates, case)
        counts = [np.bincount(idx, minlength=n) for idx in kept]
        statistic = _planned(spec)
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
                bootstrap_statistic(y, blocks, _planned(spec), m_replicates,
                                    case)
            continue
        expected = np.array(values)
        summaries = bootstrap_statistic(y, blocks, _planned(spec),
                                        m_replicates, case)
        for k, summary in enumerate(summaries):
            assert summary.redraw_count == len(rejected)
            lo, hi = np.percentile(expected[:, k], [2.5, 97.5])
            assert abs(summary.mean - expected[:, k].mean()) <= tol
            assert abs(summary.sd - expected[:, k].std(ddof=1)) <= tol
            assert abs(summary.ci95_low - lo) <= tol
            assert abs(summary.ci95_high - hi) <= tol
    # The cases must exercise redraws, not only clean replicates.
    assert redraws > 0


def _stacked_blocks(env, row=None):
    """Named blocks over an environment stack, or over its table ``row``.

    Column slices stay strided views, as the studies pass them.
    """
    e = env if row is None else env[row]
    return [("both", e[..., :2]), ("first", e[..., 0:1]),
            ("joint", e[..., 0:1], e[..., 2:3])]


def _stack(rng, method, k):
    n, p = int(rng.integers(5, 12)), int(rng.integers(2, 6))
    if method == "cca":
        # Sparse tables: some need their empty sites or species pruned.
        tables = []
        while len(tables) < k:
            t = _cca_table(rng, n, p)
            if np.sum(t.sum(axis=1) > 0) >= 3 and np.sum(t.sum(axis=0) > 0) >= 2:
                tables.append(t)
        y = np.stack(tables)
    else:
        y = rng.normal(size=(k, n, p))
    return y, rng.uniform(size=(k, n, 3))


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_stack_fits_each_table_as_its_unit_fit(method):
    rng = np.random.default_rng(106)
    for _ in range(5):
        y, env = _stack(rng, method, 200)
        if method == "cca":
            # The first 100 tables have nothing to prune, so they are fitted
            # as one stack; the whole stack is pruned table by table.
            y[:100] += 1.0
        units = np.concatenate([
            _block_fractions(y[i], _stacked_blocks(env, i), method)[0]
            for i in range(200)])
        for k in (100, 200):
            stacked, reasons = _block_fractions(
                y[:k], _stacked_blocks(env[:k]), method)
            assert stacked.tobytes() == units[:k].tobytes()
            assert not reasons.any()
        for i in range(200):
            one, _ = _block_fractions(y[i:i + 1], _stacked_blocks(env[i:i + 1]),
                                      method)
            assert one.tobytes() == units[i:i + 1].tobytes()


def _degenerate_stack(method):
    """Ten tables, of which 3 and 7 fail their unit fits, each its own way."""
    rng = np.random.default_rng(107)
    n = 5
    if method == "cca":
        y = rng.uniform(1.0, 5.0, size=(10, n, 3))
        y[3, :, 1:] = 0.0  # one live species
        y[7, 2:] = 0.0     # two live sites
        return y, [("env", rng.uniform(size=(10, n, 2)))]
    y = rng.normal(size=(10, n, 2))
    a, b = rng.normal(size=(10, n, 4)), rng.normal(size=(10, n, 4))
    a[:, :, 2:], b[:, :, 2:] = a[:, :, :2], b[:, :, :2]  # rank 2 of 4
    b[3] = rng.normal(size=(n, 4))  # rank 4 of 5 sites: no residual df
    a[7] = rng.normal(size=(n, 4))
    return y, [("a", a), ("b", b)]


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_stack_raises_the_first_degenerate_tables_unit_error(method):
    y, blocks = _degenerate_stack(method)
    messages = []
    for i in (3, 7):
        with pytest.raises(DegenerateDataError) as unit:
            _block_fractions(y[i], [(name, b[i]) for name, b in blocks], method)
        messages.append(str(unit.value))
    assert messages[0] != messages[1]
    with pytest.raises(DegenerateDataError) as stacked:
        _block_fractions(y, blocks, method)
    assert str(stacked.value) == messages[0]
    healthy = [0, 1, 2, 4, 5, 6, 8, 9]
    fractions, reasons = _block_fractions(
        y[healthy], [(name, b[healthy]) for name, b in blocks], method)
    assert np.all(np.isfinite(fractions)) and not reasons.any()


def test_cca_shares_keep_their_bits_under_power_of_four_scales():
    # The kernel scales each table by a power of 4 from its largest entry,
    # so tables that differ by a power of 4 give the same bits; 4**505
    # would overflow the weighted totals without that scaling.
    rng = np.random.default_rng(108)
    for _ in range(100):
        y, blocks = _cca_case(rng)
        named = [("x", blocks[0]), ("w", blocks[1]), ("xw", *blocks)]
        counts = np.stack([np.bincount(rng.integers(0, len(y), len(y)),
                                       minlength=len(y)) for _ in range(5)])
        try:
            unit = _block_fractions(y, named, "cca")[0]
        except DegenerateDataError:
            unit = None
        boot = _Plan(y, named, "cca").fit(counts)
        for k in (-3, 1, 7, 505):
            scaled = y * 4.0 ** k
            if unit is not None:
                assert _block_fractions(scaled, named, "cca")[0].tobytes() == (
                    unit.tobytes())
            again = _Plan(scaled, named, "cca").fit(counts)
            assert again[0].tobytes() == boot[0].tobytes()
            assert np.array_equal(again[1], boot[1])


def _count_case(rng, method):
    """A random table, its three named partition blocks and 20 count rows."""
    y, (x, w) = (_cca_case if method == "cca" else _rda_case)(rng)
    n = len(y)
    counts = np.stack([np.bincount(rng.integers(0, n, n), minlength=n)
                       for _ in range(20)])
    return y, [x, w], counts


def _named(x, w):
    return [("x", x), ("w", w), ("xw", x, w)]


def _assert_same_fits(got, expected, tol=1e-12):
    """Same reason codes, and fractions within ``tol`` where usable."""
    assert np.array_equal(got[1], expected[1])
    usable = expected[1] == 0
    assert np.max(np.abs(got[0] - expected[0])[usable], initial=0.0) <= tol


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_permuting_sites_with_their_counts_changes_nothing(method):
    rng = np.random.default_rng(109)
    for _ in range(100):
        y, blocks, counts = _count_case(rng, method)
        perm = rng.permutation(len(y))
        _assert_same_fits(
            _Plan(y[perm], _named(*(b[perm] for b in blocks)),
                  method).fit(counts[:, perm]),
            _Plan(y, _named(*blocks), method).fit(counts))
    for _ in range(5):
        y, env = _stack(rng, method, 20)
        perm = rng.permutation(y.shape[1])
        _assert_same_fits(
            _block_fractions(y[:, perm], _stacked_blocks(env[:, perm]), method),
            _block_fractions(y, _stacked_blocks(env), method))


def test_cca_shares_do_not_change_under_arbitrary_scales():
    # Not powers of 4, so the kernel's own scaling leaves different bits.
    rng = np.random.default_rng(110)
    scales = (3.7, 1e-5, 1e250)
    for _ in range(100):
        y, blocks, counts = _count_case(rng, "cca")
        expected = _Plan(y, _named(*blocks), "cca").fit(counts)
        for scale in scales:
            _assert_same_fits(
                _Plan(y * scale, _named(*blocks), "cca").fit(counts),
                expected)
    for _ in range(5):
        y, env = _stack(rng, "cca", 20)
        expected = _block_fractions(y, _stacked_blocks(env), "cca")
        for scale in scales:
            _assert_same_fits(
                _block_fractions(y * scale, _stacked_blocks(env), "cca"),
                expected)


def test_rda_does_not_change_when_predictor_columns_are_shifted():
    rng = np.random.default_rng(111)
    for _ in range(100):
        y, blocks, counts = _count_case(rng, "rda")
        shifted = [b + rng.uniform(-50.0, 50.0, size=b.shape[1]) for b in blocks]
        _assert_same_fits(
            _Plan(y, _named(*shifted), "rda").fit(counts),
            _Plan(y, _named(*blocks), "rda").fit(counts))
    for _ in range(5):
        y, env = _stack(rng, "rda", 20)
        shifted = env + rng.uniform(-50.0, 50.0, size=(20, 1, 3))
        _assert_same_fits(
            _block_fractions(y, _stacked_blocks(shifted), "rda"),
            _block_fractions(y, _stacked_blocks(env), "rda"))


def _three_site_counts(rng, n, k=20):
    """``k`` count rows of ``n`` draws that fall on sites 0, 1 and 2 only."""
    counts = np.zeros((k, n))
    counts[:, :3] = rng.multinomial(n, [1.0 / 3.0] * 3, size=k)
    return counts


def test_an_all_proportional_cca_resample_reads_exactly_zero():
    # Sites 0-2 hold proportional rows: their profiles agree, so nothing
    # is left to explain in a resample that draws only them.
    rng = np.random.default_rng(112)
    for _ in range(50):
        n = int(rng.integers(6, 12))
        y = rng.uniform(0.1, 5.0, size=(n, int(rng.integers(2, 7))))
        y[1], y[2] = 3.1 * y[0], 0.7 * y[0]
        x, w = rng.normal(size=(n, 1)), rng.normal(size=(n, 2))
        shares, reasons = _Plan(y, _named(x, w), "cca").fit(
            _three_site_counts(rng, n))
        assert not reasons.any()
        assert np.all(shares == 0.0)
        # The unit fit of a table whose rows are all proportional.
        table = np.outer(rng.uniform(0.1, 5.0, size=n), y[0])
        shares, _ = _block_fractions(table, _named(x, w), "cca")
        assert np.all(shares == 0.0)


def test_an_rda_response_constant_over_the_drawn_sites_reads_exactly_zero():
    rng = np.random.default_rng(113)
    for _ in range(50):
        n = int(rng.integers(6, 12))
        y = rng.normal(size=(n, int(rng.integers(1, 4))))
        y[1] = y[2] = y[0]
        x, w = rng.normal(size=(n, 1)), rng.normal(size=(n, 2))
        total, fitted, rank, _, _ = _Plan(y, _named(x, w), "rda").explained(
            _three_site_counts(rng, n))
        assert np.all(_r2(total, fitted) == 0.0)
        assert np.all(rank[:, 2] <= 2)


def _assert_fits_the_resampled_tables(y, blocks, method, counts):
    """Each count row fits as the unit fit of the table it resamples."""
    got = _Plan(y, _named(*blocks), method).fit(counts)
    for i, c in enumerate(counts):
        drawn = np.repeat(np.arange(len(y)), c)
        _assert_same_fits(
            (got[0][i:i + 1], got[1][i:i + 1]),
            _block_fractions(y[drawn], _named(*(b[drawn] for b in blocks)),
                             method))


@pytest.mark.parametrize("a, finite, overflowing", [
    (6.3e153, [[3, 1, 0, 0, 1], [1, 0, 0, 1, 3], [4, 1, 0, 0, 0],
               [1, 0, 3, 1, 0]], [5, 5, 0, 0, 0]),
    (8e153, [[1, 0, 0, 1, 3]], [3, 1, 0, 0, 1]),
])
def test_a_resample_overflows_exactly_where_its_own_fit_does(
        a, finite, overflowing):
    # Centred on its own count-weighted mean, the response's sum of
    # squares is 3.2 a^2 for [3, 1, 0, 0, 1], [4, 1, 0, 0, 0] and
    # [1, 0, 3, 1, 0], 2 a^2 for [1, 0, 0, 1, 3] and 10 a^2 for
    # [5, 5, 0, 0, 0]: it overflows past about 7.5e153, 9.5e153 and
    # 4.2e153. The unit fit's 4 a^2 overflows at 8e153 only, and so do two
    # sums of 3.2 a^2 added together.
    y = np.array([[a], [-a], [a], [-a], [0.0]])
    rng = np.random.default_rng(114)
    blocks = [rng.normal(size=(5, 1)), rng.normal(size=(5, 1))]
    _assert_fits_the_resampled_tables(y, blocks, "rda", np.array(finite))
    centring_error = ("^matrix contains non-finite entries or overflows "
                      "once centred$")
    with pytest.raises(ValidationError, match=centring_error):
        _Plan(y, _named(*blocks), "rda").fit(np.array([overflowing]))
    if a > 7e153:
        with pytest.raises(ValidationError, match=centring_error):
            _block_fractions(y, _named(*blocks), "rda")


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_an_outlier_site_that_a_resample_misses_does_not_reach_its_fit(
        method):
    # Centred on the mean of all sites, which one site of 1e8 holds near
    # 1e6, the response keeps only about 10 digits of the other sites, and
    # R2 moved by up to 5e-11 in a resample that misses the outlier; such
    # a resample centres on its own.
    rng = np.random.default_rng(116)
    for _ in range(20):
        n = int(rng.integers(20, 60))
        y = rng.uniform(0.0, 3.0, size=(n, int(rng.integers(2, 5))))
        y[0] *= 1e8
        blocks = [rng.normal(size=(n, 2)), rng.normal(size=(n, 3))]
        counts = np.stack([np.bincount(rng.integers(i % 2, n, n), minlength=n)
                           for i in range(10)])
        _assert_fits_the_resampled_tables(y, blocks, method, counts)


def _exact_cca_share(y, x):
    """Chi-square inertia share of a one-column design, in exact rational
    arithmetic: with deviations ``e = y - R C / T`` from independence, the
    total is ``sum e^2 / (R C)`` and the projection of the standardised
    deviations onto the row-weighted centred design needs no square root.
    """
    y = [[Fraction(v) for v in row] for row in y]
    x = [Fraction(row[0]) for row in x]
    rows = [sum(row) for row in y]
    cols = [sum(col) for col in zip(*y)]
    grand = sum(rows)
    dev = [[v - r * c / grand for v, c in zip(row, cols)]
           for row, r in zip(y, rows)]
    total = sum(e * e / (r * c) for row, r in zip(dev, rows)
                for e, c in zip(row, cols))
    mean = sum(r * v for r, v in zip(rows, x)) / grand
    xc = [v - mean for v in x]
    norm = sum(r * v * v for r, v in zip(rows, xc)) / grand
    constrained = sum(
        sum(v * row[j] for v, row in zip(xc, dev)) ** 2 / (grand * c)
        for j, c in enumerate(cols)) / norm
    return float(constrained / total)


@pytest.mark.parametrize("big", [1e6, 1e12, 1e18, 1e30, 1e100])
def test_cca_shares_hold_when_one_site_outweighs_the_rest(big):
    # The SVD fixes the design's singular vectors only to absolute
    # precision, so at a site of huge weight their orthogonality to the
    # root weights is lost unless the fit corrects for the mean. Past about
    # 1e20 the total inertia is below 1e-20 of the uncentred sum of
    # squares, and only the light sites' own deviations show it is real.
    rng = np.random.default_rng(115)
    for _ in range(20):
        n = int(rng.integers(5, 9))
        y = rng.uniform(0.5, 4.0, size=(n, int(rng.integers(2, 5))))
        y[0] *= big
        x = rng.uniform(size=(n, 1))
        expected = _exact_cca_share(y, x)
        share, _ = _block_fractions(y, [("x", x)], "cca")
        assert share[0, 0] == pytest.approx(expected, rel=1e-12)
        counts = np.bincount(rng.integers(0, n, n), minlength=n)
        counts[0] = max(counts[0], 1)
        drawn = np.repeat(np.arange(n), counts)
        share, reasons = _Plan(y, [("x", x)], "cca").fit(counts[None])
        if not reasons.any() and np.ptp(x[drawn]) > 0:
            assert share[0, 0] == pytest.approx(
                _exact_cca_share(y[drawn], x[drawn]), rel=1e-12)


@pytest.mark.parametrize("lone", [1.0, 0.25])
def test_a_species_whose_sum_turns_subnormal_once_scaled_still_fits(lone):
    # Next to a 1e308 entry, the kernel's power-of-4 scaling takes a lone
    # entry of 1 to 2^-1024 and 0.25 to 2^-1026: the species weight 1 / s
    # is beyond the float range, its root is not.
    y = np.array([[1e308, 1.0, 0.0], [1.0, 2.0, 0.0], [3.0, 1.0, 0.0],
                  [2.0, 2.0, lone]])
    x = np.array([[0.1], [0.5], [0.9], [0.3]])
    shares, _ = _block_fractions(y, [("x", x)], "cca")
    assert shares[0, 0] == pytest.approx(_exact_cca_share(y, x), rel=1e-9)
