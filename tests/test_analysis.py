"""Partition reports: point estimates, bootstrap summaries, formatting."""

import warnings

import numpy as np
import pytest

from vpboot import analysis
from vpboot.analysis import (FRACTION_NAMES, format_report, partition_tables,
                             report_to_dict, run_analysis, trend_surface)
from vpboot.errors import DegenerateDataError, ValidationError
from vpboot.experiments import cca_proportion
from vpboot.ordination import PartitionResult
from vpboot.synth import ScenarioConfig, generate_dataset
from vpboot.tables import CommunityTable, PredictorBlock

from test_ordination import adjusted_r2_oracle


def _split_blocks(table, env):
    x = PredictorBlock("env", table.site_ids, env.values[:, :1])
    w = PredictorBlock("spatial", table.site_ids, env.values[:, 1:])
    return x, w


def test_rda_partition_matches_varpart_directly():
    table, env = generate_dataset(ScenarioConfig(seed=30, n_sites=25))
    x, w = _split_blocks(table, env)
    raw = partition_tables(table, x, w, method="rda")
    logged = partition_tables(table, x, w, method="rda", log1p=True)
    both = np.hstack([x.values, w.values])
    for part, y in ((raw, table.values), (logged, np.log1p(table.values))):
        for r2, block in ((part.r2_x, x.values), (part.r2_w, w.values),
                          (part.r2_xw, both)):
            assert r2 == pytest.approx(adjusted_r2_oracle(y, block), abs=1e-12)
    assert logged != raw


def test_cca_partition_defaults_to_log1p():
    table, env = generate_dataset(ScenarioConfig(seed=31, n_sites=20))
    x, w = _split_blocks(table, env)
    default = partition_tables(table, x, w, method="cca")
    explicit = partition_tables(table, x, w, method="cca", log1p=True)
    raw = partition_tables(table, x, w, method="cca", log1p=False)
    assert default == explicit
    assert default != raw


def test_unknown_method_is_rejected():
    table, env = generate_dataset(ScenarioConfig(seed=32, n_sites=10))
    x, w = _split_blocks(table, env)
    with pytest.raises(ValidationError, match="unknown method"):
        partition_tables(table, x, w, method="pca")


def test_cca_partition_prunes_empty_sites():
    rng = np.random.default_rng(33)
    values = rng.integers(1, 50, size=(8, 4)).astype(float)
    values[2] = 0.0
    values[:, 1] = 0.0
    ids = tuple(f"s{i}" for i in range(8))
    table = CommunityTable(ids, ("a", "b", "c", "d"), values)
    env = rng.normal(size=(8, 1))
    spatial = rng.normal(size=(8, 1))
    part = partition_tables(table, env, spatial, method="cca")

    keep = [i for i in range(8) if i != 2]
    direct = partition_tables(
        CommunityTable(tuple(ids[i] for i in keep), ("a", "c", "d"),
                       values[np.ix_(keep, [0, 2, 3])]),
        env[keep], spatial[keep], method="cca")
    assert part == direct


def test_partition_result_rejects_non_finite_fields():
    # abs(nan - r2_xw) > 1e-12 is False, so the identities alone let NaN in.
    nan = float("nan")
    with pytest.raises(ValidationError, match="must be finite"):
        PartitionResult(frac_pure_x=nan, frac_shared=0.1, frac_pure_w=0.2,
                        frac_residual=0.4, r2_x=0.3, r2_w=0.3, r2_xw=0.6)
    inf = float("inf")
    with pytest.raises(ValidationError, match="must be finite"):
        PartitionResult(frac_pure_x=inf, frac_shared=-inf, frac_pure_w=inf,
                        frac_residual=-inf, r2_x=0.2, r2_w=0.3, r2_xw=inf)


def test_cca_partition_needs_three_live_sites():
    values = np.zeros((5, 3))
    values[0] = [1.0, 2.0, 3.0]
    values[1] = [2.0, 1.0, 1.0]
    table = CommunityTable(tuple(f"s{i}" for i in range(5)),
                           ("a", "b", "c"), values)
    env = np.arange(5, dtype=float).reshape(-1, 1)
    with pytest.raises(DegenerateDataError, match="non-empty sites"):
        partition_tables(table, env, env, method="cca")


def test_cca_partition_rejects_negative_entries():
    # A negative row sum must not pass for an empty site and be pruned.
    rng = np.random.default_rng(35)
    values = rng.uniform(1.0, 5.0, size=(8, 3))
    values[4] = [-0.5, 0.1, 0.1]
    env = rng.normal(size=(8, 1))
    for log1p in (False, True):
        with pytest.raises(ValidationError, match="negative or non-finite"):
            partition_tables(values, env, env, method="cca", log1p=log1p)


def test_negative_entries_fail_before_log1p():
    rng = np.random.default_rng(36)
    values = rng.uniform(1.0, 5.0, size=(8, 3))
    values[4, 1] = -2.0  # log1p of it would be NaN with a RuntimeWarning
    env = rng.normal(size=(8, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("cca", "rda"):
            with pytest.raises(ValidationError, match="negative"):
                partition_tables(values, env, env, method=method, log1p=True)
        with pytest.raises(ValidationError, match="negative"):
            cca_proportion(values, env)


def test_run_analysis_report_shape_and_determinism():
    table, env = generate_dataset(ScenarioConfig(seed=34, n_sites=20))
    x, w = _split_blocks(table, env)
    first = run_analysis(table, x, w, seed=5, m_replicates=30,
                         dataset_name="demo")
    second = run_analysis(table, x, w, seed=5, m_replicates=30,
                          dataset_name="demo")

    a, b = report_to_dict(first), report_to_dict(second)
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    assert a == b

    assert first.dataset_name == "demo"
    assert tuple(first.fractions) == FRACTION_NAMES
    assert tuple(first.uncertainty) == FRACTION_NAMES
    assert sum(first.fractions.values()) == pytest.approx(1.0, abs=1e-9)
    rollup = first.partition.rollup()
    for name, value in zip(FRACTION_NAMES, rollup):
        assert first.fractions[name] == value
    for summary in first.uncertainty.values():
        assert summary.replicate_count == 30
        assert summary.ci95_low <= summary.ci95_high
    assert first.runtime_seconds > 0


def test_run_analysis_fits_its_point_partition_through_partition_tables(
        monkeypatch):
    table, env = generate_dataset(ScenarioConfig(seed=34, n_sites=20))
    x, w = _split_blocks(table, env)
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return partition_tables(*args, **kwargs)

    monkeypatch.setattr(analysis, "partition_tables", spy)
    report = run_analysis(table, x, w, seed=5, m_replicates=30)
    assert len(calls) == 1
    (y, *blocks, method), kwargs = calls[0]
    # The table arrives log1p-transformed, so the call does not repeat it.
    assert np.array_equal(y, np.log1p(table.values)) and method == "cca"
    assert blocks[0] is x and blocks[1] is w and kwargs == {"log1p": False}
    assert report.partition == partition_tables(table, x, w)


def test_trend_surface_expands_coordinates():
    block = PredictorBlock("spatial", ("a", "b", "c"),
                           [[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
    expanded = trend_surface(block)
    assert expanded.name == "spatial"
    assert expanded.site_ids == block.site_ids
    assert expanded.n_columns == 5
    np.testing.assert_allclose(
        expanded.values,
        [[1.0, 2.0, 1.0, 2.0, 4.0],
         [3.0, 4.0, 9.0, 12.0, 16.0],
         [0.5, -1.0, 0.25, -0.5, 1.0]])

    narrow = PredictorBlock("spatial", ("a", "b", "c"), [[1.0], [2.0], [3.0]])
    with pytest.raises(ValidationError, match="exactly 2 coordinate columns"):
        trend_surface(narrow)


def test_run_analysis_requires_aligned_blocks():
    table, env = generate_dataset(ScenarioConfig(seed=35, n_sites=10))
    x, _ = _split_blocks(table, env)
    other = PredictorBlock("spatial", tuple(f"z{i}" for i in range(10)),
                           env.values[:, 1:])
    with pytest.raises(ValidationError):
        run_analysis(table, x, other, seed=1, m_replicates=10)


@pytest.mark.parametrize("m_replicates, seed, message", [
    (1, 1, "at least 2 bootstrap replicates"),
    (2**32, 1, r"fewer than 2\*\*32 bootstrap replicates"),
    (10, -1, "seed must be non-negative"),
], ids=["one-replicate", "too-many-replicates", "negative-seed"])
def test_run_analysis_checks_the_bootstrap_before_the_point_fit(
        m_replicates, seed, message, monkeypatch):
    def no_fit(*_args, **_kwargs):
        raise AssertionError("the point partition was fitted first")

    monkeypatch.setattr(analysis, "partition_tables", no_fit)
    table, env = generate_dataset(ScenarioConfig(seed=37, n_sites=10))
    x, w = _split_blocks(table, env)
    with pytest.raises(ValidationError, match=message):
        run_analysis(table, x, w, seed=seed, m_replicates=m_replicates)


def test_report_serialization_and_text_rendering():
    table, env = generate_dataset(ScenarioConfig(seed=36, n_sites=15))
    x, w = _split_blocks(table, env)
    report = run_analysis(table, x, w, seed=2, method="rda", m_replicates=25)

    payload = report_to_dict(report)
    assert list(payload)[-1] == "runtime_seconds"
    assert set(payload["partition"]) == {
        "frac_pure_x", "frac_shared", "frac_pure_w", "frac_residual",
        "r2_x", "r2_w", "r2_xw"}
    for name in FRACTION_NAMES:
        entry = payload["uncertainty"][name]
        assert set(entry) == {"mean", "sd", "relative_uncertainty",
                              "ci95_low", "ci95_high", "replicate_count",
                              "redraw_count"}

    text = format_report(report)
    assert "environment (pure)" in text
    assert "spatial (incl. shared)" in text
    assert "residual" in text
    assert "bootstrap M=25" in text
    assert text.strip().endswith("s")
