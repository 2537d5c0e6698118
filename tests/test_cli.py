"""End-to-end command-line behaviour, run in process via ``main``."""

import json
import warnings

import numpy as np
import pytest

from vpboot.analysis import report_to_dict, run_analysis
from vpboot.cli import main
from vpboot.io import write_table_csv
from vpboot.synth import ScenarioConfig, generate_dataset
from vpboot.tables import CommunityTable, PredictorBlock


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
    capsys.readouterr()
