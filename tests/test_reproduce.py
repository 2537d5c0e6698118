"""Structure of the canned-study builders and the SVG backend.

Full desk-scale runs of every study live in the acceptance suite; these
tests cover the cheap parts: configuration grids, result containers, and
chart rendering.
"""

import pytest

from vpboot import reproduce
from vpboot.errors import ValidationError
from vpboot.experiments import ScenarioOutcome
from vpboot.reproduce import (CCA_COLUMNS, FIGURE_IDS, SCALE_REPLICATES,
                              SWEEP_COLUMNS, FigureResult, build_figure,
                              validation_pool)
from vpboot.svgplot import line_chart, scatter_chart, write_svg
from vpboot.synth import ScenarioConfig


def test_figure_registry_and_scales():
    assert FIGURE_IDS == ("fig2", "fig3", "fig4", "fig5", "fig6")
    assert SCALE_REPLICATES == {"desk": 200, "paper": 1000}
    assert "observed_relative_error" in SWEEP_COLUMNS
    assert "bootstrap_relative_error" in CCA_COLUMNS

    with pytest.raises(ValidationError, match="unknown figure id"):
        build_figure("fig1", seed=1)
    with pytest.raises(ValidationError, match="unknown scale"):
        build_figure("fig2", seed=1, scale="huge")


def test_every_figure_has_one_builder_and_each_sweep_one_csv_column():
    assert tuple(reproduce._SWEEPS) == ("fig2", "fig3", "fig4")
    for _grid, column, *_chart in reproduce._SWEEPS.values():
        assert column in SWEEP_COLUMNS
    assert tuple(reproduce._BUILDERS) == FIGURE_IDS


def test_validation_pool_covers_all_sweep_cells():
    pool = validation_pool(ScenarioConfig(seed=4))
    # 6 sizes, 10 range caps, and 11 optima, each at 3 noise levels.
    assert len(pool) == (6 + 10 + 11) * 3
    sizes = {c.n_sites for c in pool}
    assert {25, 50, 100, 250, 500, 1000} <= sizes
    assert {c.sigma_noise for c in pool} == {0.01, 0.05, 0.1}
    assert max(c.y_max for c in pool) == 1.0
    assert min(c.y_max for c in pool) == pytest.approx(0.1)
    assert max(c.niches[1].y_opt for c in pool) == 1.0


def test_a_band_with_fewer_than_three_pairs_fails_without_a_correlation(
        monkeypatch):
    config = ScenarioConfig(seed=4, replicates=2)
    # Observed errors: two inside the validation band, two above it.
    outcomes = [ScenarioOutcome(config, 0.1, 0.01, observed, observed * 1.5)
                for observed in (0.05, 0.5, 1.5, 2.0)]
    monkeypatch.setattr(reproduce, "bootstrap_validation",
                        lambda *_args, **_kw: outcomes)
    band, above = reproduce.build_fig5(config).checks
    assert band["n_pairs"] == 2
    assert band["pearson_r"] is band["t"] is band["df"] is None
    assert band["passed"] is False
    assert above["n_pairs"] == 2 and above["passed"] is True


def test_figure_result_passed_property():
    ok = {"name": "a", "passed": True}
    bad = {"name": "b", "passed": False}
    good = FigureResult("fig2", ("c",), [], [ok, ok], "<svg/>")
    mixed = FigureResult("fig2", ("c",), [], [ok, bad], "<svg/>")
    assert good.passed is True
    assert mixed.passed is False


def test_line_chart_is_deterministic_and_well_formed():
    series = [
        ("noise=0.01", [25, 100, 400], [0.5, 0.52, 0.55], [0.05, 0.02, 0.01]),
        ("noise=0.1", [25, 100, 400], [0.2, 0.3, 0.4], None),
    ]
    svg = line_chart(series, title="a <b> & c", x_label="sites",
                     y_label="R2", x_log=True)
    assert svg == line_chart(series, title="a <b> & c", x_label="sites",
                             y_label="R2", x_log=True)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert "a &lt;b&gt; &amp; c" in svg
    assert svg.count("<polyline") == 2
    assert "noise=0.01" in svg and "noise=0.1" in svg


def test_scatter_chart_draws_every_point_and_diagonal():
    xs = [0.01, 0.1, 0.5, 1.2]
    ys = [0.02, 0.08, 0.6, 1.4]
    svg = scatter_chart(xs, ys, title="t", x_label="x", y_label="y")
    assert svg.count("<circle") == 4
    assert "stroke-dasharray" in svg


def test_charts_tolerate_degenerate_inputs():
    flat = line_chart([("s", [1.0, 1.0], [0.3, 0.3], None)],
                      title="flat", x_label="x", y_label="y",
                      x_log=False)
    assert flat.endswith("</svg>\n")
    nonpositive = scatter_chart([0.0, -1.0], [0.0, -2.0], title="np",
                                x_label="x", y_label="y")
    assert nonpositive.endswith("</svg>\n")


def test_write_svg_round_trips_bytes(tmp_path):
    content = scatter_chart([1.0, 2.0], [1.5, 2.5], title="t",
                            x_label="x", y_label="y")
    path = tmp_path / "chart.svg"
    write_svg(str(path), content)
    assert path.read_bytes() == content.encode()
