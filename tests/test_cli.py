"""End-to-end command-line behaviour, run in process via ``main``."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpboot import cli, ordination, resample, synth
from vpboot.analysis import report_to_dict, run_analysis
from vpboot.cli import main
from vpboot.io import write_table_csv
from vpboot.reproduce import FigureResult
from vpboot.synth import ScenarioConfig, generate_dataset
from vpboot.tables import CommunityTable, PredictorBlock

#: Hostile inputs tried per fuzz test; each runs ``main`` in process.
FUZZ_EXAMPLES = 200


def _write_inputs(tmp_path, n_sites=20, seed=9):
    table, env = generate_dataset(ScenarioConfig(seed=seed, n_sites=n_sites))
    paths = {}
    paths["community"] = tmp_path / "community.csv"
    paths["env"] = tmp_path / "envx.csv"
    paths["spatial"] = tmp_path / "spaty.csv"
    write_table_csv(paths["community"], table)
    write_table_csv(paths["env"],
                    PredictorBlock("env", table.site_ids, env.values[:, :1]))
    write_table_csv(paths["spatial"],
                    PredictorBlock("spatial", table.site_ids, env.values[:, 1:]))
    return paths, table, env


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "vpboot" in capsys.readouterr().out


def test_missing_seed_is_a_usage_error(tmp_path, capsys):
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    argv = ["analyze", str(paths["community"]), str(paths["env"]),
            str(paths["spatial"])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_analyze_writes_report_matching_library_run(tmp_path, capsys):
    paths, table, env = _write_inputs(tmp_path)
    out = tmp_path / "report.json"
    code = main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["spatial"]), "--method", "rda", "--bootstrap", "40",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "environment (pure)" in stdout
    assert "runtime:" in stdout

    payload = json.loads(out.read_text())
    report = run_analysis(
        table,
        PredictorBlock("env", table.site_ids, env.values[:, :1]),
        PredictorBlock("spatial", table.site_ids, env.values[:, 1:]),
        seed=3, method="rda", m_replicates=40)
    expected = report_to_dict(report)
    for key in ("partition", "fractions", "uncertainty"):
        assert payload[key] == expected[key]
    assert payload["method"] == "rda"
    assert payload["log1p"] is False
    assert payload["provenance"] == {
        "tool": "vpboot 0.1.0", "seed": "3", "bootstrap": "40",
        "method": "rda", "trend_surface": "off"}


def test_analyze_defaults_to_cca_with_log1p(tmp_path, capsys):
    paths, _, _ = _write_inputs(tmp_path, n_sites=15, seed=11)
    out = tmp_path / "report.json"
    code = main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["spatial"]), "--bootstrap", "20", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["method"] == "cca"
    assert payload["log1p"] is True
    total = sum(payload["fractions"].values())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_analyze_duplicate_blocks_leave_no_pure_part(tmp_path, capsys):
    paths, _, _ = _write_inputs(tmp_path, n_sites=15, seed=12)
    out = tmp_path / "report.json"
    code = main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["env"]), "--method", "rda", "--bootstrap", "20",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["fractions"]["env_pure"] == pytest.approx(0.0, abs=1e-12)


def test_analyze_empty_spatial_block_gets_zero_share(tmp_path, capsys):
    paths, _, _ = _write_inputs(tmp_path, n_sites=15, seed=13)
    empty = tmp_path / "empty.csv"
    empty.write_text("site\n" + "".join(f"site{i + 1}\n" for i in range(15)))
    out = tmp_path / "report.json"
    code = main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(empty), "--method", "rda", "--bootstrap", "20",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["fractions"]["spatial_including_shared"] == 0.0
    assert payload["partition"]["frac_pure_x"] == payload["partition"]["r2_xw"]


def _strict_json(text: str):
    """``text`` parsed as strict JSON: NaN and Infinity raise."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_a_report_of_a_zero_mean_fraction_is_strict_json(tmp_path, capsys):
    # An env file with no predictor columns gives env_pure exactly 0 in
    # every replicate: its relative uncertainty, 0 / 0, is written null.
    paths, _, _ = _write_inputs(tmp_path, n_sites=15, seed=13)
    empty = tmp_path / "nocol.csv"
    empty.write_text("site\n" + "".join(f"site{i + 1}\n" for i in range(15)))
    out = tmp_path / "o.json"
    assert main(["analyze", str(paths["community"]), str(empty),
                 str(paths["env"]), "--method", "rda", "--bootstrap", "20",
                 "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    env_pure = _strict_json(out.read_text())["uncertainty"]["env_pure"]
    assert env_pure["mean"] == env_pure["sd"] == 0.0
    assert env_pure["relative_uncertainty"] is None


def test_reproduce_checks_are_strict_json(tmp_path, capsys, monkeypatch):
    checks = [{"name": "spread", "passed": True, "ratio": math.inf,
               "values": (1.0, math.nan)}]
    result = FigureResult("fig2", ("figure",), [{"figure": "fig2"}], checks,
                          "<svg/>\n")
    monkeypatch.setattr(cli, "build_figure", lambda *_args, **_kw: result)
    assert main(["reproduce", "fig2", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = _strict_json((tmp_path / "fig2_checks.json").read_text())
    assert written["checks"] == [{"name": "spread", "passed": True,
                                  "ratio": None, "values": [1.0, None]}]


def test_analyze_expands_coordinate_spatial_blocks(tmp_path, capsys):
    table, env = generate_dataset(ScenarioConfig(seed=19, n_sites=25))
    community = tmp_path / "community.csv"
    envx = tmp_path / "envx.csv"
    coords = tmp_path / "coords.csv"
    rng = np.random.default_rng(19)
    coord_block = PredictorBlock("spatial", table.site_ids,
                                 rng.uniform(size=(25, 2)))
    write_table_csv(community, table)
    write_table_csv(envx, PredictorBlock("env", table.site_ids,
                                         env.values[:, :1]))
    write_table_csv(coords, coord_block)

    base = ["analyze", str(community), str(envx), str(coords),
            "--method", "rda", "--bootstrap", "20", "--seed", "4"]
    auto_out = tmp_path / "auto.json"
    raw_out = tmp_path / "raw.json"
    assert main(base + ["--out", str(auto_out)]) == 0
    assert main(base + ["--no-trend-surface", "--out", str(raw_out)]) == 0
    capsys.readouterr()

    auto = json.loads(auto_out.read_text())
    raw = json.loads(raw_out.read_text())
    assert auto["provenance"]["trend_surface"] == "on"
    assert raw["provenance"]["trend_surface"] == "off"

    from vpboot.analysis import run_analysis as lib_run, trend_surface
    env_block = PredictorBlock("env", table.site_ids, env.values[:, :1])
    expanded = lib_run(table, env_block, trend_surface(coord_block),
                       seed=4, method="rda", m_replicates=20)
    plain = lib_run(table, env_block, coord_block,
                    seed=4, method="rda", m_replicates=20)
    assert auto["partition"]["r2_w"] == expanded.partition.r2_w
    assert raw["partition"]["r2_w"] == plain.partition.r2_w
    assert auto["partition"]["r2_w"] != raw["partition"]["r2_w"]

    # Forcing the expansion on a non-coordinate block is refused.
    assert main(["analyze", str(community), str(envx), str(envx),
                 "--trend-surface", "--seed", "4"]) == 2
    capsys.readouterr()


def test_a_reused_parser_leaves_no_options_to_the_next_call(tmp_path, capsys):
    # main parses with one parser per process: options given to one call
    # must not become the defaults of the next.
    paths, table, env = _write_inputs(tmp_path, n_sites=15, seed=13)
    coords = tmp_path / "coords.csv"
    write_table_csv(coords, PredictorBlock("spatial", table.site_ids,
                                           env.values))
    base = ["analyze", str(paths["community"]), str(paths["env"]),
            str(coords), "--bootstrap", "20", "--seed", "6"]

    def report(*options):
        out = tmp_path / "report.json"
        assert main([*base, *options, "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        del payload["runtime_seconds"]
        return payload

    forced = report("--no-log1p", "--no-trend-surface")
    second = report()
    cli._parser.cache_clear()
    fresh = report()
    assert forced["log1p"] is False
    assert forced["provenance"]["trend_surface"] == "off"
    assert second == fresh
    assert second["log1p"] is True
    assert second["provenance"]["trend_surface"] == "on"
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_analyze_exit_codes_for_bad_inputs(tmp_path, capsys):
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    good = ["analyze", str(paths["community"]), str(paths["env"]),
            str(paths["spatial"]), "--seed", "1"]

    assert main(["analyze", str(tmp_path / "nope.csv"), str(paths["env"]),
                 str(paths["spatial"]), "--seed", "1"]) == 2
    assert main(good + ["--bootstrap", "1"]) == 2

    shuffled = tmp_path / "shuffled.csv"
    text = paths["env"].read_text().replace("site1,", "siteX,")
    shuffled.write_text(text)
    assert main(["analyze", str(paths["community"]), str(shuffled),
                 str(paths["spatial"]), "--seed", "1"]) == 2

    out = tmp_path / "missing-dir" / "report.json"
    assert main(good + ["--bootstrap", "20", "--out", str(out)]) == 2

    assert main(good[:-1] + ["-1", "--bootstrap", "20"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("options, message", [
    (["--seed", "1", "--bootstrap", "1"], "need at least 2 bootstrap"),
    (["--seed", "-1"], "seed must be non-negative"),
    (["--seed", "1", "--bootstrap", str(2**32)], "fewer than 2**32 bootstrap"),
])
def test_analyze_checks_its_arguments_before_reading_a_table(
        tmp_path, capsys, monkeypatch, options, message):
    def no_read(*_args, **_kwargs):
        raise AssertionError("a table was read before the arguments passed")

    monkeypatch.setattr(cli, "read_table_csv", no_read)
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    assert main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["spatial"]), *options]) == 2
    assert message in capsys.readouterr().err


def test_analyze_checks_the_output_directory_before_the_analysis(
        tmp_path, capsys, monkeypatch):
    def no_analysis(*_args, **_kwargs):
        raise AssertionError("the analysis ran before --out was checked")

    monkeypatch.setattr(cli, "run_analysis", no_analysis)
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    out = tmp_path / "missing-dir" / "report.json"
    assert main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["spatial"]), "--seed", "1",
                 "--out", str(out)]) == 2
    assert "no such directory" in capsys.readouterr().err


def test_analyze_rejects_a_bootstrap_beyond_the_stream_paths(tmp_path, capsys,
                                                            monkeypatch):
    # Bootstrap stream paths hold 32-bit words. M is checked before the
    # bootstrap sizes or allocates anything: 2**32 states take 128 GB.
    def no_work(*_args):
        raise AssertionError("the bootstrap started before checking M")

    monkeypatch.setattr(resample, "_replicate_values", no_work)
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    assert main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["spatial"]), "--seed", "1",
                 "--bootstrap", str(2**32)]) == 2
    assert "fewer than 2**32 bootstrap replicates" in capsys.readouterr().err


def test_running_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_analysis", exhausted)
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    assert main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["spatial"]), "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: not enough memory")


def test_analyze_refuses_a_bootstrap_whose_values_outgrow_memory(
        tmp_path, capsys, monkeypatch):
    # 10,000 replicates of the 3 rollup values keep about 720 KB; a host
    # stubbed to 500 KB refuses them after the first chunk's fit, and the
    # CLI exits 2. (4e9 replicates would keep 288 GB.)
    chunks, fit = [], ordination._Plan.fit

    def counting_fit(plan, counts):
        chunks.append(len(counts))
        return fit(plan, counts)

    monkeypatch.setattr(ordination._Plan, "fit", counting_fit)
    monkeypatch.setattr(synth, "_physical_memory", lambda: 500_000)
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    assert main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["spatial"]), "--seed", "1",
                 "--bootstrap", "10000"]) == 2
    assert capsys.readouterr().err.startswith("error: not enough memory")
    assert len(chunks) == 1 and chunks[0] < 10000


def test_analyze_rejects_abundances_that_overflow_once_centred(tmp_path,
                                                              capsys):
    paths, table, _ = _write_inputs(tmp_path, n_sites=12)
    values = table.values.copy()
    # Finite, but their squares and their sum are not.
    values[3, 0] = values[5, 1] = 1.7e308
    write_table_csv(tmp_path / "huge.csv",
                    CommunityTable(table.site_ids, table.species_ids, values))
    for method in (["rda"], ["cca", "--no-log1p"]):
        code = main(["analyze", str(tmp_path / "huge.csv"), str(paths["env"]),
                     str(paths["spatial"]), "--method", *method,
                     "--seed", "1", "--bootstrap", "20"])
        assert code == 2
        assert "overflows once" in capsys.readouterr().err


def test_analyze_cca_fits_a_table_with_an_entry_near_the_float_limit(
        tmp_path, capsys):
    # Resamples that draw the huge site twice double its weight; the
    # kernel's power-of-4 scaling keeps their weighted totals finite.
    paths, table, _ = _write_inputs(tmp_path, n_sites=12)
    values = table.values.copy()
    values[3, 0] = 1e308
    write_table_csv(tmp_path / "huge.csv",
                    CommunityTable(table.site_ids, table.species_ids, values))
    out = tmp_path / "report.json"
    assert main(["analyze", str(tmp_path / "huge.csv"), str(paths["env"]),
                 str(paths["spatial"]), "--method", "cca", "--no-log1p",
                 "--seed", "1", "--bootstrap", "50", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["uncertainty"]["env_pure"]["replicate_count"] == 50


def test_analyze_rejects_predictors_that_overflow_once_centred(tmp_path,
                                                              capsys):
    paths, table, _ = _write_inputs(tmp_path, n_sites=12)
    extreme = np.where(np.arange(12) % 2 == 0, 1e308, -1e308)[:, np.newaxis]
    write_table_csv(tmp_path / "extreme.csv",
                    PredictorBlock("env", table.site_ids, extreme))
    for method in ("rda", "cca"):
        code = main(["analyze", str(paths["community"]),
                     str(tmp_path / "extreme.csv"), str(paths["spatial"]),
                     "--method", method, "--seed", "1", "--bootstrap", "20"])
        assert code == 2
        assert "design contains" in capsys.readouterr().err


def test_analyze_rejects_coordinates_that_overflow_as_a_trend_surface(
        tmp_path, capsys):
    # Finite coordinates whose squares are not: no NumPy warning escapes.
    paths, table, _ = _write_inputs(tmp_path, n_sites=12)
    coordinates = np.random.default_rng(3).uniform(1e199, 1e200, size=(12, 2))
    write_table_csv(tmp_path / "far.csv",
                    PredictorBlock("spatial", table.site_ids, coordinates))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", str(paths["community"]), str(paths["env"]),
                     str(tmp_path / "far.csv"), "--seed", "1",
                     "--bootstrap", "20"])
    assert code == 2
    assert ("block 'spatial' overflows once expanded to a trend surface"
            in capsys.readouterr().err)


def test_analyze_input_that_is_not_utf8_exits_two(tmp_path, capsys):
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    text = paths["community"].read_bytes()
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(text.replace(b"site3,", b"site\xff3,"))
    assert main(["analyze", str(bad), str(paths["env"]), str(paths["spatial"]),
                 "--seed", "1", "--bootstrap", "20"]) == 2
    assert f"{bad}:4: not UTF-8" in capsys.readouterr().err


def test_simulate_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"# caf\xe9 scenario\nseed = 1\nn_sites = 8\n")
    assert main(["simulate", str(config), "--out", str(tmp_path / "s")]) == 2
    assert f"{config}:1: not UTF-8" in capsys.readouterr().err


def test_analyze_degenerate_inputs_exit_three(tmp_path, capsys):
    rng = np.random.default_rng(14)
    ids = ("a", "b", "c", "d")
    write_table_csv(tmp_path / "y.csv",
                    CommunityTable(ids, ("sp1", "sp2"),
                                   rng.integers(1, 9, (4, 2)).astype(float)))
    write_table_csv(tmp_path / "wide.csv",
                    PredictorBlock("env", ids, rng.normal(size=(4, 3))))
    write_table_csv(tmp_path / "w.csv",
                    PredictorBlock("spatial", ids, rng.normal(size=(4, 1))))
    code = main(["analyze", str(tmp_path / "y.csv"), str(tmp_path / "wide.csv"),
                 str(tmp_path / "w.csv"), "--method", "rda", "--seed", "1"])
    assert code == 3

    write_table_csv(tmp_path / "sparse.csv",
                    CommunityTable(ids, ("sp1",), [[4.0], [0.0], [0.0], [2.0]]))
    code = main(["analyze", str(tmp_path / "sparse.csv"),
                 str(tmp_path / "w.csv"), str(tmp_path / "w.csv"),
                 "--method", "cca", "--seed", "1"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("method", ["rda", "cca"])
@pytest.mark.parametrize("env", [[[1.0], [1.0]], [[0.5], [2.0]]],
                         ids=["constant-env", "varying-env"])
def test_analyze_needs_three_sites_whatever_the_predictors(tmp_path, capsys,
                                                           method, env):
    ids = ("a", "b")
    write_table_csv(tmp_path / "y.csv", CommunityTable(
        ids, ("sp1", "sp2"), [[3.0, 1.0], [1.0, 4.0]]))
    write_table_csv(tmp_path / "x.csv", PredictorBlock("env", ids, env))
    write_table_csv(tmp_path / "w.csv",
                    PredictorBlock("spatial", ids, [[0.2], [0.9]]))
    code = main(["analyze", str(tmp_path / "y.csv"), str(tmp_path / "x.csv"),
                 str(tmp_path / "w.csv"), "--method", method, "--seed", "1",
                 "--bootstrap", "20"])
    assert code == 2
    assert "need at least 3 rows" in capsys.readouterr().err


def test_analyze_cca_needs_two_live_species(tmp_path, capsys):
    rng = np.random.default_rng(15)
    ids = tuple(f"s{i}" for i in range(12))
    values = np.zeros((12, 3))
    values[:, 1] = rng.integers(1, 9, 12)
    write_table_csv(tmp_path / "y.csv",
                    CommunityTable(ids, ("sp1", "sp2", "sp3"), values))
    write_table_csv(tmp_path / "x.csv",
                    PredictorBlock("env", ids, rng.normal(size=(12, 1))))
    write_table_csv(tmp_path / "w.csv",
                    PredictorBlock("spatial", ids, rng.normal(size=(12, 1))))
    code = main(["analyze", str(tmp_path / "y.csv"), str(tmp_path / "x.csv"),
                 str(tmp_path / "w.csv"), "--method", "cca", "--seed", "1",
                 "--bootstrap", "20"])
    assert code == 3
    assert "1 non-empty species" in capsys.readouterr().err


def test_simulate_round_trip_and_determinism(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("seed = 21\nn_sites = 8\nsigma_noise = 0.05\n")
    first = tmp_path / "runA" / "sim"
    second = tmp_path / "runB" / "sim"
    assert main(["simulate", str(config), "--out", str(first)]) == 0
    assert main(["simulate", str(config), "--out", str(second)]) == 0
    capsys.readouterr()

    community = (first.parent / "sim.community.csv").read_bytes()
    env = (first.parent / "sim.env.csv").read_bytes()
    assert community == (second.parent / "sim.community.csv").read_bytes()
    assert env == (second.parent / "sim.env.csv").read_bytes()
    header = community.decode().splitlines()
    assert header[0] == "# tool=vpboot 0.1.0"
    assert header[1] == "# seed=21"
    assert any(line.startswith("# config_sha256=") for line in header[:8])

    other = tmp_path / "runC" / "sim"
    assert main(["simulate", str(config), "--out", str(other),
                 "--replicate", "1"]) == 0
    capsys.readouterr()
    assert (other.parent / "sim.community.csv").read_bytes() != community


def test_simulate_rejects_bad_configs(tmp_path, capsys):
    missing_seed = tmp_path / "no-seed.cfg"
    missing_seed.write_text("n_sites = 8\n")
    assert main(["simulate", str(missing_seed)]) == 2

    assert main(["simulate", str(tmp_path / "absent.cfg")]) == 2

    config = tmp_path / "ok.cfg"
    config.write_text("seed = 1\n")
    assert main(["simulate", str(config), "--out", str(tmp_path / "x"),
                 "--replicate", "-1"]) == 2
    capsys.readouterr()


def test_simulate_rejects_a_replicate_beyond_the_stream_paths(tmp_path, capsys):
    # Site stream paths hold 32-bit words; 2**32 used to end in a traceback.
    config = tmp_path / "ok.cfg"
    config.write_text("seed = 1\nn_sites = 5\n")
    out = str(tmp_path / "x")
    assert main(["simulate", str(config), "--out", out,
                 "--replicate", str(2**32)]) == 2
    assert "replicate" in capsys.readouterr().err
    assert main(["simulate", str(config), "--out", out,
                 "--replicate", str(2**32 - 1)]) == 0


@pytest.mark.parametrize("sigma_noise", ["7e153", "1e155"])
def test_simulate_rejects_noise_whose_row_sums_overflow(tmp_path, capsys,
                                                        sigma_noise):
    # 7e153 keeps every product finite but overflows a site's exact row
    # sum; 1e155 overflows the products themselves.
    config = tmp_path / "loud.cfg"
    config.write_text(f"seed = 11\nn_sites = 5\nsigma_noise = {sigma_noise}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(config), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "relative abundances must be finite and non-negative" in (
        capsys.readouterr().err)
    assert not list(tmp_path.glob("s.*"))


def test_reproduce_argument_validation(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig9", "--seed", "1"])
    assert exc.value.code == 2
    assert main(["reproduce", "fig2", "--seed", "1", "--threads", "0",
                 "--out", str(tmp_path)]) == 2
    # Invalid input leaves no output directory behind.
    out = tmp_path / "a" / "b"
    for bad in (["--seed", "-3"], ["--seed", "1", "--threads", "0"]):
        assert main(["reproduce", "fig2", *bad, "--out", str(out)]) == 2
        assert not (tmp_path / "a").exists()
    capsys.readouterr()


@pytest.mark.parametrize("doc", ["seed = 1\nn_sites = nan\n",
                                 "seed = 1\nn_sites = 1e308\n", "seed = inf\n"])
def test_simulate_exits_two_on_an_unusable_config_value(tmp_path, capsys,
                                                        doc):
    # Each of these escaped ``main`` as a ValueError or OverflowError.
    config = tmp_path / "scenario.cfg"
    config.write_text(doc)
    assert main(["simulate", str(config), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ------------------------------------------------------------------ fuzz

HOSTILE_CELLS = ("nan", "inf", "-inf", "1e308", "-1e308", "-0", "", "x")
TABLE_EDITS = ("cell", "ragged", "empty", "duplicate", "zero", "one-site",
               "one-column")


def _hostile_bytes(draw, raw: bytes) -> bytes:
    encoding = draw(st.sampled_from(("plain", "bom", "latin")))
    if encoding == "bom":
        return b"\xef\xbb\xbf" + raw
    if encoding == "latin":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    return raw


@st.composite
def _analyze_inputs(draw):
    """Three valid small tables, then hostile edits of one table's cells
    and of one file's bytes."""
    n = draw(st.integers(1, 7))
    value = st.integers(0, 30).map(str)

    def table(columns):
        return [["site", *columns]] + [
            [f"site{i}", *(draw(value) for _ in columns)] for i in range(n)]

    files = {"community": table([f"sp{j}" for j in range(draw(
                 st.integers(1, 3)))]),
             "env": table(["e"]), "spatial": table(["x", "y"])}
    rows = files[draw(st.sampled_from(sorted(files)))]
    for edit in draw(st.lists(st.sampled_from(TABLE_EDITS), max_size=3)):
        i = draw(st.integers(0, len(rows) - 1))
        if edit == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(
                st.sampled_from(HOSTILE_CELLS))
        elif edit == "ragged":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
        elif edit == "empty":
            rows.insert(i, [""] * draw(st.integers(1, 3)))
        elif edit == "duplicate":
            rows[i][:1] = rows[-1][:1]
        elif edit == "zero":
            j = draw(st.integers(1, 3))
            for row in rows[1:]:
                row[j:j + 1] = ["0"] * len(row[j:j + 1])
        elif edit == "one-site":
            del rows[2:]
        elif edit == "one-column":
            rows[:] = [row[:2] for row in rows]
    data = {name: "".join(",".join(row) + "\n" for row in rows).encode()
            for name, rows in files.items()}
    name = draw(st.sampled_from(sorted(data)))
    data[name] = _hostile_bytes(draw, data[name])
    return data


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=_analyze_inputs(), method=st.sampled_from(("rda", "cca")),
       bootstrap=st.one_of(st.integers(2, 9),
                           st.sampled_from((2 ** 32, 10 ** 12, 10 ** 30))))
def test_analyze_on_hostile_input_exits_cleanly(data, method, bootstrap,
                                                tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, raw in data.items():
        (work / f"{name}.csv").write_bytes(raw)
        paths.append(str(work / f"{name}.csv"))
    out = work / "report.json"
    code = _run_quietly(["analyze", *paths, "--method", method,
                         "--bootstrap", str(bootstrap), "--seed", "1",
                         "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        fractions = json.loads(out.read_text())["fractions"]
        assert all(math.isfinite(v) for v in fractions.values())
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)


SCENARIO_KEYS = ("seed", "n_sites", "carrying_capacity", "replicates",
                 "sigma_niche", "sigma_noise", "y_max", "x_opt", "y_opt")
SCENARIO_VALUES = ("nan", "inf", "-inf", "1e308", "-0", "0", "-1", "2.5",
                   "5", "0.5", "x")


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(SCENARIO_KEYS),
                                st.sampled_from(SCENARIO_VALUES)),
                      max_size=3),
       species=st.integers(0, 3),
       replicate=st.sampled_from((0, 1, -1, 2 ** 32)), data=st.data())
def test_simulate_on_hostile_input_exits_cleanly(edits, species, replicate,
                                                 data, tmp_path_factory):
    top = {"seed": "1", "n_sites": "5"}
    niches = [{"x_opt": "0.5", "y_opt": "0.5"} for _ in range(species)]
    for key, value in edits:
        if key in ("x_opt", "y_opt"):
            for niche in niches:
                niche[key] = value
        else:
            top[key] = value
    lines = [f"{k} = {v}" for k, v in top.items()]
    for niche in niches:
        lines += ["[species]"] + [f"{k} = {v}" for k, v in niche.items()]
    raw = ("\n".join(lines) + "\n").encode()
    work = tmp_path_factory.mktemp("fuzz")
    (work / "scenario.cfg").write_bytes(_hostile_bytes(data.draw, raw))
    code = _run_quietly(["simulate", str(work / "scenario.cfg"),
                         "--replicate", str(replicate),
                         "--out", str(work / "sim")])
    assert code in (0, 2, 3)


def test_reproduce_writes_every_artifact_before_failing_checks_exit_four(
        tmp_path, capsys, monkeypatch):
    failing = FigureResult("fig2", ("figure",), [{"figure": "fig2"}],
                           [{"name": "trend", "passed": False}], "<svg/>\n")
    monkeypatch.setattr(cli, "build_figure", lambda *_args, **_kw: failing)
    assert main(["reproduce", "fig2", "--seed", "1",
                 "--out", str(tmp_path)]) == 4
    assert "check trend: FAIL" in capsys.readouterr().out
    checks = json.loads((tmp_path / "fig2_checks.json").read_text())
    assert checks["passed"] is False
    assert (tmp_path / "fig2_results.csv").read_text().endswith(
        "figure\nfig2\n")
    assert (tmp_path / "fig2.svg").read_text() == "<svg/>\n"


def test_an_unwritable_report_path_exits_two(tmp_path, capsys):
    paths, _, _ = _write_inputs(tmp_path, n_sites=10)
    out = tmp_path / "a-directory"
    out.mkdir()
    assert main(["analyze", str(paths["community"]), str(paths["env"]),
                 str(paths["spatial"]), "--seed", "1", "--bootstrap", "20",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")


def test_simulate_refuses_a_dataset_larger_than_memory(tmp_path, capsys,
                                                       monkeypatch):
    # 1,000 sites of 2 species are estimated at 192 KB; a host stubbed to
    # 100 KB refuses them before generating anything, and the CLI exits 2.
    def no_work(*_args):
        raise AssertionError("the dataset was generated before the check")

    config = tmp_path / "scenario.cfg"
    config.write_text("seed = 3\nn_sites = 1000\n")
    monkeypatch.setattr(synth, "_generate_cell", no_work)
    monkeypatch.setattr(synth, "_physical_memory", lambda: 100_000)
    assert main(["simulate", str(config), "--out", str(tmp_path / "s")]) == 2
    assert "not enough memory" in capsys.readouterr().err
    assert not list(tmp_path.glob("s.*"))
    with pytest.raises(MemoryError, match="^1000 sites need about 1.92e"):
        synth.generate_dataset(synth.ScenarioConfig(seed=3, n_sites=1000))


def test_simulate_runs_when_memory_is_unknown_or_enough(tmp_path, capsys,
                                                        monkeypatch):
    config = tmp_path / "scenario.cfg"
    config.write_text("seed = 3\nn_sites = 1000\n")
    for memory in (0, 192_000):
        monkeypatch.setattr(synth, "_physical_memory", lambda: memory)
        assert main(["simulate", str(config),
                     "--out", str(tmp_path / f"s{memory}")]) == 0
    capsys.readouterr()
