"""CSV and scenario-document round trips plus parse error reporting."""

import numpy as np
import pytest

from vpboot.errors import ValidationError
from vpboot.io import (config_digest, format_number, parse_scenario_config,
                       provenance_pairs, read_scenario_config, read_table_csv,
                       write_table_csv)
from vpboot.synth import ScenarioConfig, SpeciesNiche, generate_dataset
from vpboot.tables import CommunityTable, PredictorBlock


def test_format_number_cases():
    assert format_number(3.0) == "3"
    assert format_number(-2.0) == "-2"
    assert format_number(0.0) == "0"
    assert format_number(0.1) == "0.1"
    assert format_number(1 / 3) == repr(1 / 3)
    assert format_number(1e16) == "1e+16"


@pytest.mark.parametrize("value", [2 ** 64 - 1, 2 ** 53 + 1,
                                   np.uint64(2 ** 64 - 1), np.int64(-2 ** 63)])
def test_format_number_writes_integers_digit_for_digit(value):
    # A seed such as 9747643465689162965 used to print as 9.747643465689164e+18.
    assert int(format_number(value)) == int(value)
    assert format_number(value) == str(int(value))


def test_write_read_write_is_byte_identical(tmp_path):
    table, env = generate_dataset(ScenarioConfig(seed=3, n_sites=12))
    for obj, kind in ((table, "community"), (env, "predictor")):
        first = tmp_path / "first.csv"
        write_table_csv(first, obj)
        reread = read_table_csv(str(first), kind=kind, name="env")
        second = tmp_path / "second.csv"
        write_table_csv(second, reread)
        assert first.read_bytes() == second.read_bytes()


def test_write_headers_and_provenance(tmp_path):
    env = PredictorBlock("env", ("a", "b"), [[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "env.csv"
    write_table_csv(path, env, provenance=[("tool", "vpboot 0.1.0")])
    lines = path.read_text().splitlines()
    assert lines[0] == "# tool=vpboot 0.1.0"
    assert lines[1] == "site,x,y"
    assert lines[2] == "a,0.1,0.2"

    wide = PredictorBlock("geo", ("a", "b"), [[1.0, 2.0, 3.0]] * 2)
    write_table_csv(path, wide)
    assert path.read_text().splitlines()[0] == "site,c1,c2,c3"

    with pytest.raises(ValidationError):
        write_table_csv(path, np.ones((2, 2)))


def test_read_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "# provenance line\n"
        "\n"
        "corner,sp1,sp2\n"
        "  # indented comment\n"
        "a,1,2\n"
        "\n"
        "b,3.5,0\n")
    table = read_table_csv(str(path))
    assert table.site_ids == ("a", "b")
    assert table.species_ids == ("sp1", "sp2")
    assert table.values[1, 0] == 3.5


def test_read_predictor_allows_negatives_and_zero_columns(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("site,c1\na,-4.25\nb,0\n")
    block = read_table_csv(str(path), kind="predictor")
    assert block.name == "w"
    assert block.values[0, 0] == -4.25

    path.write_text("site\na\nb\n")
    empty = read_table_csv(str(path), kind="predictor", name="null")
    assert empty.n_columns == 0 and empty.site_ids == ("a", "b")


@pytest.mark.parametrize("body,fragment", [
    ("site,sp1\na,1\nb,2\nb,3\n", "duplicate site label 'b'"),
    ("site,sp1\na,1\nb,2,9\n", "expected 2 cells, found 3"),
    ("site,sp1\na,one\nb,2\n", "non-numeric cell 'one' in column 'sp1'"),
    ("site,sp1\na,nan\nb,2\n", "non-finite cell in column 'sp1'"),
    ("site,sp1\na,inf\nb,2\n", "non-finite cell in column 'sp1'"),
    ("site,sp1\na,-1\nb,2\n", "negative abundance '-1' in column 'sp1'"),
    ("site,sp1\na,1\n,2\n", "empty site label"),
    ("site,sp1\na,1\n", "need at least 2 site rows"),
    ("site\na\nb\n", "at least 1 species column"),
    ("", "no data rows"),
])
def test_read_community_error_messages(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValidationError) as err:
        read_table_csv(str(path))
    assert fragment in str(err.value)
    if ":" in fragment or "cell" in fragment or "label" in fragment:
        assert str(path) in str(err.value)


def test_read_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# comment\nsite,sp1\na,1\nb,oops\n")
    with pytest.raises(ValidationError, match=r"bad\.csv:4: non-numeric"):
        read_table_csv(str(path))


def test_read_rejects_unknown_kind(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("site,sp1\na,1\nb,2\n")
    with pytest.raises(ValidationError, match="unknown table kind"):
        read_table_csv(str(path), kind="matrix")


def test_read_survey_sized_table(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.integers(0, 9, size=(70, 35)).astype(float)
    table = CommunityTable(tuple(f"s{i}" for i in range(70)),
                           tuple(f"sp{j}" for j in range(35)), values)
    path = tmp_path / "survey.csv"
    write_table_csv(path, table)
    reread = read_table_csv(str(path))
    assert reread.values.shape == (70, 35)
    np.testing.assert_array_equal(reread.values, values)


FULL_DOC = """
# scenario with every knob set
n_sites = 40        # sites
sigma_niche = 0.4
sigma_noise = 0.02
y_max = 0.8
carrying_capacity = 5000
replicates = 7
seed = 99

[species]
x_opt = 0.2
y_opt = 0.1

[species]
x_opt = 0.9
y_opt = 0.7

[species]
x_opt = 0.5
y_opt = 0.5
"""


def test_parse_scenario_config_full_document():
    config = parse_scenario_config(FULL_DOC)
    assert config == ScenarioConfig(
        seed=99, n_sites=40, sigma_niche=0.4, sigma_noise=0.02, y_max=0.8,
        carrying_capacity=5000, replicates=7,
        niches=(SpeciesNiche(0.2, 0.1), SpeciesNiche(0.9, 0.7),
                SpeciesNiche(0.5, 0.5)))


def test_parse_scenario_config_defaults_except_seed():
    config = parse_scenario_config("seed = 5\n")
    assert config == ScenarioConfig(seed=5)


@pytest.mark.parametrize("doc,fragment", [
    ("n_sites = 10\n", "seed is required"),
    ("seed = 1\nbogus = 2\n", "unknown top level key 'bogus'"),
    ("seed = 1\n[species]\nx_opt = 0.1\ny_opt = 0.2\nn_sites = 9\n",
     "unknown species section key 'n_sites'"),
    ("seed = 1\n[other]\n", "unknown section '[other]'"),
    ("seed = 1\nseed = 2\n", "duplicate key 'seed'"),
    ("seed = 1\nn_sites\n", "expected 'key = value'"),
    ("seed = 1\nn_sites = ten\n", "non-numeric value 'ten' for 'n_sites'"),
    ("seed = 1\nn_sites = 9.5\n", "n_sites must be an integer"),
    ("seed = 1.5\n", "seed must be an integer"),
    ("seed = 1\n[species]\nx_opt = 0.1\n", "species section 1 is missing ['y_opt']"),
    ("seed = 1\n[species]\nx_opt = 0.1\ny_opt = 0.2\n", "at least 2 species"),
    ("seed = 1\nn_sites = nan\n", "line 2: non-finite value 'nan' for 'n_sites'"),
    ("seed = inf\n", "line 1: non-finite value 'inf' for 'seed'"),
    ("seed = 1\n[species]\nx_opt = -inf\n", "line 3: non-finite value '-inf'"),
])
def test_parse_scenario_config_errors(doc, fragment):
    with pytest.raises(ValidationError) as err:
        parse_scenario_config(doc)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ValidationError, match="line 3"):
        parse_scenario_config("seed = 1\nn_sites = 10\nwhat = 1\n")


def test_read_scenario_config_from_disk(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("seed = 42\nn_sites = 25\n")
    assert read_scenario_config(str(path)) == ScenarioConfig(seed=42, n_sites=25)


def test_readers_reject_bytes_that_are_not_utf8(tmp_path):
    table = tmp_path / "t.csv"
    table.write_bytes(b"site,sp1\na,1\nb\xff,2\n")
    with pytest.raises(ValidationError, match=r"t\.csv:3: not UTF-8 .*0xff"):
        read_table_csv(str(table))
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"seed = 1 # \xe9\n")
    with pytest.raises(ValidationError, match=r"scenario\.cfg:1: not UTF-8"):
        read_scenario_config(str(config))


def test_readers_skip_a_leading_byte_order_mark(tmp_path):
    # With the mark kept, a leading comment line was read as the header.
    table = tmp_path / "t.csv"
    table.write_bytes(b"\xef\xbb\xbf# tool=x\nsite,sp1\na,1\nb,2\n")
    assert read_table_csv(str(table)).values.tolist() == [[1.0], [2.0]]
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"\xef\xbb\xbfseed = 4\n\n\xff\n")
    with pytest.raises(ValidationError, match=r"scenario\.cfg:3: .*0xff"):
        read_scenario_config(str(config))
    config.write_bytes(b"\xef\xbb\xbfseed = 4\n")
    assert read_scenario_config(str(config)) == ScenarioConfig(seed=4)


def test_config_digest_is_stable_and_sensitive():
    a = ScenarioConfig(seed=1)
    assert config_digest(a) == config_digest(ScenarioConfig(seed=1))
    assert len(config_digest(a)) == 12
    assert all(c in "0123456789abcdef" for c in config_digest(a))
    assert config_digest(a) != config_digest(ScenarioConfig(seed=2))
    assert config_digest(a) != config_digest(ScenarioConfig(seed=1, y_max=0.9))


def test_provenance_pairs_shape():
    pairs = provenance_pairs(7, extra=[("figure", 2)])
    assert pairs[0] == ("tool", "vpboot 0.1.0")
    assert pairs[1] == ("seed", "7")
    assert pairs[2] == ("figure", "2")
