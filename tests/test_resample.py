"""Site bootstrap: resampling, summaries, and the failure budget."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from vpboot import analysis, ordination, resample, synth
from vpboot import rng as rng_module
from vpboot.errors import FEW_SPECIES, DegenerateDataError, ValidationError
from vpboot.ordination import _Plan, _planned, _replicate_values, _rollups
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
def test_chunks_do_not_change_replicate_values(method, monkeypatch):
    # A budget of 16 replicates of 200 sites x 10 columns, so 37 and 100
    # replicates both cross a chunk boundary and end on a partial chunk.
    monkeypatch.setattr(resample, "_CHUNK_VALUES",
                        16 * _replicate_values(200, 6, 4))
    rng = np.random.default_rng(41)
    y = rng.poisson(2.0, size=(200, 6)).astype(float)
    x, w = rng.normal(size=(200, 2)), rng.normal(size=(200, 2))
    runs = {}
    for m_replicates in (37, 100):
        counts, values, sizes = [], [], []

        def recording(c, *arrays):
            out, degenerate = _planned(partial(_rollups, method=method))(
                c, *arrays)
            counts.extend(c)
            values.extend(out)
            sizes.append(len(c))
            return out, degenerate

        bootstrap_statistic(y, [x, w], recording, m_replicates, seed=8)
        assert sizes[0] < 37 and 37 % sizes[0] and 100 % sizes[0]
        runs[m_replicates] = (np.array(counts), np.array(values))
    assert np.array_equal(runs[37][0], runs[100][0][:37])
    assert np.array_equal(runs[37][1], runs[100][1][:37])


@pytest.mark.parametrize("memory, refused", [(0, False), (48_000, False),
                                              (47_999, True)])
def test_a_bootstrap_whose_values_outgrow_memory_stops_after_one_chunk(
        memory, refused, monkeypatch):
    # 1,000 replicates of 2 values keep 3 x 1000 x 2 x 8 = 48,000 bytes. A
    # host stubbed below that refuses them once the first chunk gives the
    # width; 0 (memory unknown) refuses nothing.
    table, block = _indexed_inputs(8)
    monkeypatch.setattr(resample, "_CHUNK_VALUES",
                        100 * _replicate_values(8, 1, 1))
    monkeypatch.setattr(synth, "_physical_memory", lambda: memory)
    chunks = []

    def two_values(c, *_arrays):
        chunks.append(len(c))
        return np.zeros((len(c), 2)), np.zeros(len(c), dtype=bool)

    if refused:
        with pytest.raises(MemoryError, match="^1000 bootstrap replicates "
                           "of 2 values need about 4.8e"):
            bootstrap_statistic(table, [block], two_values, 1000, seed=1)
        assert chunks == [100]
    else:
        summaries = bootstrap_statistic(table, [block], two_values, 1000,
                                        seed=1)
        assert len(summaries) == 2 and sum(chunks) == 1000


def test_a_cca_chunk_never_holds_a_table_per_replicate():
    # The kernel prepares the table once per call, so one chunk of a
    # 100 x 350 bootstrap peaks below a single (k, 100, 350) table stack.
    rng = np.random.default_rng(42)
    y = rng.poisson(1.0, size=(100, 350)).astype(float)
    x, w = rng.normal(size=(100, 1)), rng.normal(size=(100, 5))
    chunks = []

    def recording(c, *_arrays):
        chunks.append(c)
        return np.zeros((len(c), 1)), np.zeros(len(c), dtype=bool)

    bootstrap_statistic(y, [x, w], recording, 50, seed=3)
    counts = chunks[0]
    assert len(counts) > 1
    spec = partial(_rollups, method="cca")
    _planned(spec)(counts, y, x, w)  # first-call allocations
    tracemalloc.start()
    try:
        _planned(spec)(counts, y, x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(counts) * y.size * y.itemsize


def _benchmark_shaped(method, rng, n=100):
    """A table and two blocks shaped like an analyze benchmark input: RDA
    100 x 2 with blocks of 1 and 1 columns (joint 2), CCA 100 x 35, sparse,
    with blocks of 1 and 5 columns (joint 6)."""
    if method == "rda":
        return (rng.normal(size=(n, 2)), rng.normal(size=(n, 1)),
                rng.normal(size=(n, 1)))
    y = np.log1p(rng.poisson(0.5, size=(n, 35)).astype(float))
    y[:, 0] += 1.0
    return y, rng.normal(size=(n, 1)), rng.normal(size=(n, 5))


def _plan_bytes(plan):
    """Bytes of the arrays a ``_Plan`` keeps."""
    arrays = [plan.r, plan.d, plan.factor, plan.moments, *plan.designs,
              *(plan.union[:1] if plan.union else ()),
              *(b[0] for b in plan.bases if b is not None)]
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("method", ["rda", "cca"])
def test_a_chunk_holds_what_the_chunk_rule_counts(method):
    # One chunk of the benchmark shapes, sized by the rule, peaks within
    # its count of values per count row; the first call adds the plan.
    rng = np.random.default_rng(46)
    y, x, w = _benchmark_shaped(method, rng)
    values = _replicate_values(len(y), y.shape[1], x.shape[1] + w.shape[1])
    k = resample._CHUNK_VALUES // values
    counts = np.stack([np.bincount(rng.integers(0, len(y), len(y)),
                                   minlength=len(y)) for _ in range(k)])
    spec = partial(_rollups, method=method)
    _planned(spec)(counts, y, x, w)  # warm up
    statistic = _planned(spec)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            statistic(counts, y, x, w)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    bound = values * k * 8
    assert peaks[1] <= bound
    assert peaks[0] <= bound + _plan_bytes(_Plan(*spec(y, x, w)[:3]))


@pytest.mark.parametrize("method", ["cca", "rda"])
def test_a_bootstrap_plans_each_block_once(method, monkeypatch):
    # Three chunks and a forced redraw: run_analysis passes the blocks'
    # unit-centred union, then each block's columns in the union basis, to
    # _svd_basis once for the whole bootstrap, not once per chunk call (its
    # point partition passes stacks).
    n = 40
    rng = np.random.default_rng(47)
    ids = tuple(f"site{i}" for i in range(n))
    table = CommunityTable(ids, ("a", "b", "c"),
                           rng.poisson(3.0, size=(n, 3)).astype(float) + 1.0)
    env = PredictorBlock("env", ids, rng.normal(size=(n, 1)))
    spatial = PredictorBlock("spatial", ids, rng.normal(size=(n, 2)))
    monkeypatch.setattr(resample, "_CHUNK_VALUES",
                        8 * _replicate_values(n, 3, 3))
    designs, calls = [], []
    svd_basis = ordination._svd_basis

    def recording_svd_basis(a):
        if a.ndim == 2:
            designs.append(a.shape)
        return svd_basis(a)

    def flaky_bootstrap(table, blocks, statistic, *args, **kwargs):
        def flaky(c, *arrays):
            values, reasons = statistic(c, *arrays)
            calls.append(len(c))
            if len(calls) == 1:
                reasons[0] = FEW_SPECIES
            return values, reasons
        return bootstrap_statistic(table, blocks, flaky, *args, **kwargs)

    monkeypatch.setattr(ordination, "_svd_basis", recording_svd_basis)
    monkeypatch.setattr(analysis, "bootstrap_statistic", flaky_bootstrap)
    report = analysis.run_analysis(table, env, spatial, seed=1,
                                   method=method, m_replicates=20)
    assert report.uncertainty["residual"].redraw_count == 1
    assert calls == [8, 1, 8, 4]
    assert designs == [(n, 6), (3, 1), (3, 2), (3, 3)]


def test_draws_follow_the_stream_across_seeding_blocks(monkeypatch):
    # Shrink the blocks to one chunk of 2,730 rows, so 6,000 replicates
    # seed three blocks, the last one partial.
    monkeypatch.setattr(rng_module, "_BLOCK_VALUES", 1)
    table, block = _indexed_inputs(5)
    counts, _ = _recorded_counts(table, [block], 6000, seed=23)
    assert len(counts) == 6000
    for j in [*range(0, 6000, 97), 2729, 2730, 5459, 5460, 5999]:
        expected = stream(23, 2, j, 0).integers(0, 5, size=5)
        assert np.array_equal(counts[j], np.bincount(expected, minlength=5))


def test_bootstrap_memory_holds_no_state_per_replicate():
    # A replicate's PCG64 state takes 32 bytes and seeding it more, so
    # only one block's states may be alive at a time. What grows with M is
    # the values (8 bytes a replicate) and the summary step's copies.
    table, block = _indexed_inputs(20)
    m_replicates = 10 ** 5
    bootstrap_statistic(table, [block], _column_means, 1000, seed=3)
    tracemalloc.start()
    try:
        bootstrap_statistic(table, [block], _column_means, m_replicates,
                            seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * m_replicates


def test_an_analyze_block_holds_its_words_and_the_lane_scratch():
    # analyze's bootstrap, 1000 replicates of 100 sites in RDA chunks of 190
    # rows, is one block. It peaks within the block's budget: its states
    # (32 bytes a row), its raw words (8 bytes a word) and the lane scratch
    # that draws them (six uint64 rows of rows times lanes, and the jump
    # increments), plus NumPy's ufunc buffer (the carry's cast from bool)
    # and 16 KiB of Python objects.
    m, n, rows = 1000, 100, 190
    words = (n + 1) // 2
    assert rng_module._BLOCK_VALUES // (n * rows) * rows >= m
    lanes = rng_module._lanes(m, words)
    assert lanes > 1
    budget = (32 * m + 8 * m * words + 8 * (6 * lanes + 2) * m
              + 9 * np.getbufsize() + 2 ** 14)
    for _ in rng_module._bootstrap_rows(5, m, n, rows):
        pass
    tracemalloc.start()
    try:
        for _ in rng_module._bootstrap_rows(5, m, n, rows):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


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


def test_wrong_names_fail_after_the_first_chunk():
    table, block = _indexed_inputs(6)
    calls = []

    def counted(counts, *arrays):
        calls.append(len(counts))
        return _constant(0.5)(counts, *arrays)

    with pytest.raises(ValidationError,
                       match="2 names for a 1-component statistic"):
        bootstrap_statistic(table, [block], counted, 10_000, seed=6,
                            names=("a", "b"))
    assert len(calls) == 1


@pytest.mark.parametrize("shape, message", [
    (lambda k: (k,), r"statistic must return \(\d+, width\) values"),
    (lambda k: (k, 0), "statistic returned no values"),
], ids=["one-axis", "no-columns"])
def test_a_statistic_of_the_wrong_shape_is_rejected(shape, message):
    table, block = _indexed_inputs(6)

    def shaped(counts, *_arrays):
        return np.zeros(shape(len(counts))), np.zeros(len(counts), dtype=int)

    with pytest.raises(ValidationError, match=message):
        bootstrap_statistic(table, [block], shaped, 10, seed=6)


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
        bootstrap_statistic(y, [x, w], _planned(partial(_rollups, method="cca")),
                            20, seed=1)


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
