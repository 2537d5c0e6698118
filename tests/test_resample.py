"""Site bootstrap: resampling, summaries, and the failure budget."""

import math
from functools import partial

import numpy as np
import pytest

from vpboot.errors import FEW_SPECIES, DegenerateDataError, ValidationError
from vpboot.ordination import _rollups
from vpboot.resample import (BootstrapSummary, bootstrap_statistic,
                             relative_spread)
from vpboot.rng import stream
from vpboot.tables import CommunityTable, PredictorBlock


def _indexed_inputs(n):
    """Table and block whose single columns hold the source site index."""
    ids = tuple(f"site{i}" for i in range(n))
    values = np.arange(n, dtype=float)[:, None]
    table = CommunityTable(ids, ("sp1",), values)
    block = PredictorBlock("env", ids, values + 100.0)
    return table, block


def _recorded_counts(table, blocks, m_replicates, seed):
    """Count rows of every replicate, and the arrays the statistic receives."""
    counts, arrays = [], []

    def recording(c, y, *plain):
        counts.extend(c)
        arrays.append((y, plain))
        return np.zeros((len(c), 1)), np.zeros(len(c), dtype=bool)

    bootstrap_statistic(table, blocks, recording, m_replicates, seed)
    return counts, arrays


def _resampled(c, array):
    """The table a count row stands for: site ``i`` repeated ``c[i]`` times."""
    return np.repeat(array, c, axis=0)


def _column_means(counts, y, *_blocks):
    """Batched statistic: the mean of the first table column per replicate."""
    means = counts @ y[:, 0] / counts.sum(axis=1)
    return means[:, np.newaxis], np.zeros(len(counts), dtype=bool)


def _constant(*values):
    """Batched statistic returning ``values`` for every replicate."""
    def statistic(counts, *_arrays):
        return (np.tile(np.asarray(values, dtype=float), (len(counts), 1)),
                np.zeros(len(counts), dtype=bool))
    return statistic


def _each(values):
    """Batched statistic handing out ``values`` one replicate at a time."""
    def statistic(counts, *_arrays):
        return (np.array([[next(values)] for _ in counts]),
                np.zeros(len(counts), dtype=bool))
    return statistic


def test_resample_keeps_sites_glued():
    table, block = _indexed_inputs(8)
    wide = PredictorBlock("pair", table.site_ids,
                          np.hstack([block.values + 100.0, block.values + 200.0]))
    counts, arrays = _recorded_counts(table, [block, wide], 20, seed=31)
    (y, (env, pair)), = arrays
    assert isinstance(y, np.ndarray) and isinstance(env, np.ndarray)
    assert np.array_equal(y, table.values)
    assert len(counts) == 20
    for c in counts:
        assert c.shape == (8,) and c.sum() == 8 and np.all(c >= 0)
        drawn = _resampled(c, y)[:, 0]
        assert np.array_equal(_resampled(c, env)[:, 0], drawn + 100.0)
        assert np.array_equal(_resampled(c, pair),
                              np.column_stack([drawn + 200.0, drawn + 300.0]))


def test_resample_draws_follow_the_bootstrap_stream():
    table, block = _indexed_inputs(5)
    counts, _ = _recorded_counts(table, [block], 6, seed=77)
    for j, c in enumerate(counts):
        # Role 2 is the bootstrap role of the stream contract.
        expected = stream(77, 2, j, 0).integers(0, 5, size=5)
        assert np.array_equal(c, np.bincount(expected, minlength=5))


def test_resample_of_identical_rows_reproduces_the_table():
    ids = ("a", "b", "c")
    table = CommunityTable(ids, ("sp1", "sp2"), np.tile([2.0, 5.0], (3, 1)))
    block = PredictorBlock("env", ids, np.tile([0.5], (3, 1)))
    counts, arrays = _recorded_counts(table, [block], 5, seed=1)
    (y, (env,)), = arrays
    for c in counts:
        assert np.array_equal(_resampled(c, y), table.values)
        assert np.array_equal(_resampled(c, env), block.values)


def test_resample_follows_the_uniform_law():
    table, block = _indexed_inputs(10)
    draws = 10_000
    counts, _ = _recorded_counts(table, [block], draws, seed=13)
    frequencies = np.sum(counts, axis=0) / (draws * 10)
    assert np.all(np.abs(frequencies - 0.1) < 0.01)


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_chunks_do_not_change_replicate_values(method):
    # 200 sites x 10 columns put 16 replicates in a chunk, so 37 and 100
    # replicates both cross a chunk boundary and end on a partial chunk.
    rng = np.random.default_rng(41)
    y = rng.poisson(2.0, size=(200, 6)).astype(float)
    x, w = rng.normal(size=(200, 2)), rng.normal(size=(200, 2))
    runs = {}
    for m_replicates in (37, 100):
        counts, values, sizes = [], [], []

        def recording(c, *arrays):
            out, degenerate = _rollups(c, *arrays, method=method)
            counts.extend(c)
            values.extend(out)
            sizes.append(len(c))
            return out, degenerate

        bootstrap_statistic(y, [x, w], recording, m_replicates, seed=8)
        assert sizes[0] < 37 and 37 % sizes[0] and 100 % sizes[0]
        runs[m_replicates] = (np.array(counts), np.array(values))
    assert np.array_equal(runs[37][0], runs[100][0][:37])
    assert np.array_equal(runs[37][1], runs[100][1][:37])


def test_relative_spread_conventions():
    assert relative_spread(0.1, 0.2) == pytest.approx(0.5)
    assert relative_spread(0.1, -0.2) == pytest.approx(-0.5)
    assert relative_spread(0.3, 0.0) == math.inf
    assert math.isnan(relative_spread(0.0, 0.0))


def test_bootstrap_summary_three_point_arithmetic():
    table, block = _indexed_inputs(6)
    stub = _each(iter([0.1, 0.2, 0.3]))
    summary, = bootstrap_statistic(table, [block], stub, 3, seed=0)
    assert summary.mean == pytest.approx(0.2, abs=1e-15)
    assert summary.sd == pytest.approx(0.1, abs=1e-12)
    assert summary.relative_uncertainty == pytest.approx(0.5, abs=1e-12)
    assert summary.ci95_low == pytest.approx(0.105, abs=1e-12)
    assert summary.ci95_high == pytest.approx(0.295, abs=1e-12)
    assert summary.replicate_count == 3
    assert summary.redraw_count == 0


def test_bootstrap_constant_statistic_collapses():
    table, block = _indexed_inputs(5)
    summary, = bootstrap_statistic(table, [block], _constant(0.7), 20, seed=1)
    assert summary.sd == pytest.approx(0.0, abs=1e-15)
    assert summary.relative_uncertainty == pytest.approx(0.0, abs=1e-15)
    assert summary.ci95_low == summary.ci95_high == 0.7


def test_bootstrap_zero_mean_conventions():
    table, block = _indexed_inputs(4)
    flips = _each(iter([1.0, -1.0] * 5))
    summary, = bootstrap_statistic(table, [block], flips, 10, seed=2)
    assert summary.mean == 0.0
    assert math.isinf(summary.relative_uncertainty)

    zero, = bootstrap_statistic(table, [block], _constant(0.0), 5, seed=3)
    assert math.isnan(zero.relative_uncertainty)


def test_bootstrap_is_deterministic_and_order_free():
    table, block = _indexed_inputs(12)
    first, = bootstrap_statistic(table, [block], _column_means, 50, seed=9)
    second, = bootstrap_statistic(table, [block], _column_means, 50, seed=9)
    assert first == second

    recorded = []

    def recording(counts, y, env):
        values, degenerate = _column_means(counts, y, env)
        recorded.extend(values[:, 0])
        return values, degenerate

    summary, = bootstrap_statistic(table, [block], recording, 50, seed=9)
    values = np.array(recorded)
    assert summary.mean == pytest.approx(values.mean(), abs=1e-15)
    assert summary.sd == pytest.approx(values.std(ddof=1), abs=1e-15)
    lo, hi = np.percentile(values, [2.5, 97.5])
    assert summary.ci95_low == pytest.approx(lo, abs=1e-15)
    assert summary.ci95_high == pytest.approx(hi, abs=1e-15)


def test_bootstrap_sd_of_the_mean_matches_theory():
    rng = np.random.default_rng(17)
    column = rng.normal(size=100)
    ids = tuple(f"s{i}" for i in range(100))
    table = CommunityTable(ids, ("sp1",), np.abs(column)[:, None])
    block = PredictorBlock("env", ids, column[:, None])

    def mean_of_block(counts, _y, env):
        return _column_means(counts, env)

    summary, = bootstrap_statistic(table, [block], mean_of_block, 2000, seed=4)
    analytic = column.std(ddof=0) / math.sqrt(column.size)
    assert abs(summary.sd - analytic) / analytic < 0.10


def test_bootstrap_tuple_statistic_and_names():
    table, block = _indexed_inputs(6)

    def pair(counts, y, env):
        means, degenerate = _column_means(counts, y, env)
        return np.column_stack([means, 2.0 * means]), degenerate

    low, high = bootstrap_statistic(table, [block], pair, 30, seed=5,
                                    names=("half", "double"))
    assert low.statistic_name == "half"
    assert high.statistic_name == "double"
    assert high.mean == pytest.approx(2.0 * low.mean, abs=1e-12)

    with pytest.raises(ValidationError, match="2 names"):
        bootstrap_statistic(table, [block], _constant(0.5), 10, seed=6,
                            names=("a", "b"))

    widths = iter([1, 2] * 10)

    def shifting(counts, *_arrays):
        degenerate = np.zeros(len(counts), dtype=bool)
        degenerate[0] = True  # forces a second call for the redraw
        return np.ones((len(counts), next(widths))), degenerate

    with pytest.raises(ValidationError, match="width changed"):
        bootstrap_statistic(table, [block], shifting, 40, seed=7)


def test_bootstrap_redraws_within_budget():
    table, block = _indexed_inputs(10)
    calls = {"count": 0}

    def flaky(counts, y, env):
        values, degenerate = _column_means(counts, y, env)
        if calls["count"] == 0:
            degenerate[0] = True
        calls["count"] += len(counts)
        return values, degenerate

    summary, = bootstrap_statistic(table, [block], flaky, 40, seed=8)
    assert summary.redraw_count == 1
    assert summary.replicate_count == 40
    assert calls["count"] == 41  # one discarded evaluation plus 40 kept


def test_bootstrap_aborts_when_the_budget_is_exhausted():
    table, block = _indexed_inputs(10)

    def broken(counts, *_arrays):
        return np.zeros((len(counts), 1)), np.ones(len(counts), dtype=bool)

    with pytest.raises(DegenerateDataError, match="of 10 bootstrap replicates"):
        bootstrap_statistic(table, [block], broken, 10, seed=9)


def test_budget_abort_names_the_last_failure():
    table, block = _indexed_inputs(10)

    def coded(counts, *_arrays):
        return np.zeros((len(counts), 1)), np.full(len(counts), FEW_SPECIES)

    def masked(counts, *_arrays):
        return np.zeros((len(counts), 1)), np.ones(len(counts), dtype=bool)

    def unknown(counts, *_arrays):
        return np.zeros((len(counts), 1)), np.full(len(counts), 99)

    for statistic, reason in ((coded, "fewer than 2 live species"),
                              (masked, "degenerate"),
                              (unknown, "reason code 99")):
        with pytest.raises(DegenerateDataError,
                           match=f"^1 of 10 .*; last failure: {reason}$"):
            bootstrap_statistic(table, [block], statistic, 10, seed=9)
    # The kernel's own code: one live species leaves no resample fittable.
    rng = np.random.default_rng(3)
    y = np.column_stack([rng.uniform(1.0, 2.0, size=12), np.zeros(12)])
    x, w = rng.normal(size=(12, 1)), rng.normal(size=(12, 1))
    with pytest.raises(DegenerateDataError,
                       match="last failure: fewer than 2 live species$"):
        bootstrap_statistic(y, [x, w], partial(_rollups, method="cca"), 20,
                            seed=1)


def test_bootstrap_requires_two_replicates():
    table, block = _indexed_inputs(4)
    with pytest.raises(ValidationError):
        bootstrap_statistic(table, [block], _constant(1.0), 1, seed=0)


def test_summary_invariants_hold_on_random_runs():
    table, block = _indexed_inputs(9)
    rng = np.random.default_rng(20)
    for trial in range(20):
        noise = rng.normal()

        def statistic(counts, y, env, shift=noise):
            values, degenerate = _column_means(counts, y, env)
            return values + shift, degenerate

        summary, = bootstrap_statistic(table, [block], statistic, 25,
                                       seed=trial)
        assert isinstance(summary, BootstrapSummary)
        assert summary.sd >= 0.0
        assert summary.ci95_low <= summary.ci95_high
        if not math.isfinite(summary.relative_uncertainty):
            assert summary.mean == 0.0
