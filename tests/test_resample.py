"""Site bootstrap: resampling, summaries, and the failure budget."""

import math

import numpy as np
import pytest

from vpboot.errors import DegenerateDataError, ValidationError
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


def _recorded_draws(table, blocks, m_replicates, seed):
    """Resampled arrays of every replicate, as the statistic receives them."""
    draws = []

    def recording(y, *resampled):
        draws.append((y, resampled))
        return 0.0

    bootstrap_statistic(table, blocks, recording, m_replicates, seed)
    return draws


def test_resample_keeps_sites_glued():
    table, block = _indexed_inputs(8)
    wide = PredictorBlock("pair", table.site_ids,
                          np.hstack([block.values + 100.0, block.values + 200.0]))
    for y, (env, pair) in _recorded_draws(table, [block, wide], 20, seed=31):
        assert isinstance(y, np.ndarray) and isinstance(env, np.ndarray)
        drawn = y[:, 0]
        assert np.array_equal(env[:, 0], drawn + 100.0)
        assert np.array_equal(pair, np.column_stack([drawn + 200.0,
                                                     drawn + 300.0]))


def test_resample_draws_follow_the_bootstrap_stream():
    table, block = _indexed_inputs(5)
    draws = _recorded_draws(table, [block], 6, seed=77)
    for j, (y, _) in enumerate(draws):
        # Role 2 is the bootstrap role of the stream contract.
        expected = stream(77, 2, j, 0).integers(0, 5, size=5)
        assert np.array_equal(y[:, 0].astype(int), expected)


def test_resample_of_identical_rows_reproduces_the_table():
    ids = ("a", "b", "c")
    table = CommunityTable(ids, ("sp1", "sp2"), np.tile([2.0, 5.0], (3, 1)))
    block = PredictorBlock("env", ids, np.tile([0.5], (3, 1)))
    for y, (env,) in _recorded_draws(table, [block], 5, seed=1):
        assert np.array_equal(y, table.values)
        assert np.array_equal(env, block.values)


def test_resample_follows_the_uniform_law():
    table, block = _indexed_inputs(10)
    counts = np.zeros(10)
    draws = 10_000
    for y, _ in _recorded_draws(table, [block], draws, seed=13):
        counts += np.bincount(y[:, 0].astype(int), minlength=10)
    frequencies = counts / (draws * 10)
    assert np.all(np.abs(frequencies - 0.1) < 0.01)


def test_relative_spread_conventions():
    assert relative_spread(0.1, 0.2) == pytest.approx(0.5)
    assert relative_spread(0.1, -0.2) == pytest.approx(-0.5)
    assert relative_spread(0.3, 0.0) == math.inf
    assert math.isnan(relative_spread(0.0, 0.0))


def test_bootstrap_summary_three_point_arithmetic():
    table, block = _indexed_inputs(6)
    values = iter([0.1, 0.2, 0.3])

    def stub(*_arrays):
        return next(values)

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
    summary, = bootstrap_statistic(table, [block], lambda *_: 0.7, 20, seed=1)
    assert summary.sd == pytest.approx(0.0, abs=1e-15)
    assert summary.relative_uncertainty == pytest.approx(0.0, abs=1e-15)
    assert summary.ci95_low == summary.ci95_high == 0.7


def test_bootstrap_zero_mean_conventions():
    table, block = _indexed_inputs(4)
    flips = iter([1.0, -1.0] * 5)
    summary, = bootstrap_statistic(
        table, [block], lambda *_: next(flips), 10, seed=2)
    assert summary.mean == 0.0
    assert math.isinf(summary.relative_uncertainty)

    zero, = bootstrap_statistic(table, [block], lambda *_: 0.0, 5, seed=3)
    assert math.isnan(zero.relative_uncertainty)


def test_bootstrap_is_deterministic_and_order_free():
    table, block = _indexed_inputs(12)

    def statistic(y, _env):
        return float(y.mean())

    first, = bootstrap_statistic(table, [block], statistic, 50, seed=9)
    second, = bootstrap_statistic(table, [block], statistic, 50, seed=9)
    assert first == second

    recorded = []

    def recording(y, _env):
        value = float(y.mean())
        recorded.append(value)
        return value

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

    def mean_of_block(_y, env):
        return float(env[:, 0].mean())

    summary, = bootstrap_statistic(table, [block], mean_of_block, 2000, seed=4)
    analytic = column.std(ddof=0) / math.sqrt(column.size)
    assert abs(summary.sd - analytic) / analytic < 0.10


def test_bootstrap_tuple_statistic_and_names():
    table, block = _indexed_inputs(6)

    def pair(y, _env):
        m = float(y.mean())
        return (m, 2.0 * m)

    low, high = bootstrap_statistic(table, [block], pair, 30, seed=5,
                                    names=("half", "double"))
    assert low.statistic_name == "half"
    assert high.statistic_name == "double"
    assert high.mean == pytest.approx(2.0 * low.mean, abs=1e-12)

    with pytest.raises(ValidationError, match="2 names"):
        bootstrap_statistic(table, [block], lambda *_: 0.5, 10, seed=6,
                            names=("a", "b"))

    widths = iter([(1.0,), (1.0, 2.0)] * 10)
    with pytest.raises(ValidationError, match="width changed"):
        bootstrap_statistic(table, [block], lambda *_: next(widths), 10,
                            seed=7)


def test_bootstrap_redraws_within_budget():
    table, block = _indexed_inputs(10)
    calls = {"count": 0}

    def flaky(y, _env):
        calls["count"] += 1
        if calls["count"] == 1:
            raise DegenerateDataError("forced failure")
        return float(y.mean())

    summary, = bootstrap_statistic(table, [block], flaky, 40, seed=8)
    assert summary.redraw_count == 1
    assert summary.replicate_count == 40
    assert calls["count"] == 41  # one discarded evaluation plus 40 kept


def test_bootstrap_aborts_when_the_budget_is_exhausted():
    table, block = _indexed_inputs(10)

    def broken(*_arrays):
        raise DegenerateDataError("always degenerate")

    with pytest.raises(DegenerateDataError, match="of 10 bootstrap replicates"):
        bootstrap_statistic(table, [block], broken, 10, seed=9)


def test_bootstrap_requires_two_replicates():
    table, block = _indexed_inputs(4)
    with pytest.raises(ValidationError):
        bootstrap_statistic(table, [block], lambda *_: 1.0, 1, seed=0)


def test_summary_invariants_hold_on_random_runs():
    table, block = _indexed_inputs(9)
    rng = np.random.default_rng(20)
    for trial in range(20):
        noise = rng.normal()

        def statistic(y, _env, shift=noise):
            return float(y.mean()) + shift

        summary, = bootstrap_statistic(table, [block], statistic, 25,
                                       seed=trial)
        assert isinstance(summary, BootstrapSummary)
        assert summary.sd >= 0.0
        assert summary.ci95_low <= summary.ci95_high
        if not math.isfinite(summary.relative_uncertainty):
            assert summary.mean == 0.0
