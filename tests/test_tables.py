"""Construction and alignment rules for labelled tables and blocks."""

import numpy as np
import pytest

from vpboot.errors import ValidationError
from vpboot.tables import (CommunityTable, PredictorBlock, as_matrix,
                           require_aligned)


def test_as_matrix_promotes_vectors_and_rejects_cubes():
    assert as_matrix([1.0, 2.0]).shape == (2, 1)
    assert as_matrix([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(ValidationError):
        as_matrix(np.zeros((2, 2, 2)))


def test_community_table_basic_validation():
    table = CommunityTable(("a", "b"), ("sp1",), [[1.0], [2.0]])
    assert table.n_sites == 2
    assert table.n_species == 1
    with pytest.raises(ValidationError, match="at least 2 sites"):
        CommunityTable(("a",), ("sp1",), [[1.0]])
    with pytest.raises(ValidationError, match="at least 1 species"):
        CommunityTable(("a", "b"), (), np.empty((2, 0)))
    with pytest.raises(ValidationError, match="site index 1, species index 0"):
        CommunityTable(("a", "b"), ("sp1",), [[1.0], [-2.0]])
    with pytest.raises(ValidationError, match="non-finite"):
        CommunityTable(("a", "b"), ("sp1",), [[1.0], [float("nan")]])


def test_community_table_label_rules():
    with pytest.raises(ValidationError, match="2 labels for 3"):
        CommunityTable(("a", "b"), ("sp1",), [[1.0], [2.0], [3.0]])
    with pytest.raises(ValidationError, match=r"duplicate site ids: \['a'\]"):
        CommunityTable(("a", "a"), ("sp1",), [[1.0], [2.0]])
    with pytest.raises(ValidationError, match="duplicate species ids"):
        CommunityTable(("a", "b"), ("s", "s"), [[1.0, 2.0], [3.0, 4.0]])


def test_community_table_values_are_frozen():
    table = CommunityTable(("a", "b"), ("sp1",), [[1.0], [2.0]])
    with pytest.raises(ValueError):
        table.values[0, 0] = 9.0


def test_predictor_block_allows_zero_columns_and_reports_rank():
    def rank(block):
        return np.linalg.matrix_rank(block.values - block.values.mean(axis=0))

    ids = ("a", "b", "c", "d")
    empty = PredictorBlock("w", ids, np.empty((4, 0)))
    assert empty.n_columns == 0
    assert rank(empty) == 0

    rng = np.random.default_rng(5)
    col = rng.normal(size=(4, 1))
    doubled = PredictorBlock("x", ids, np.hstack([col, col]))
    assert doubled.n_columns == 2
    assert rank(doubled) == 1

    full = PredictorBlock("x", ids, rng.normal(size=(4, 3)))
    assert rank(full) <= min(full.n_sites - 1, full.n_columns)

    constant = PredictorBlock("x", ids, np.full((4, 1), 2.5))
    assert rank(constant) == 0


def test_predictor_block_validation():
    with pytest.raises(ValidationError, match="at least 2 sites"):
        PredictorBlock("x", ("a",), [[1.0]])
    with pytest.raises(ValidationError, match="non-finite"):
        PredictorBlock("x", ("a", "b"), [[1.0], [float("inf")]])
    block = PredictorBlock("x", ("a", "b"), [[-1.0], [2.0]])
    assert block.values[0, 0] == -1.0  # predictors may be negative


def test_require_aligned_checks_rows_and_labels():
    table = CommunityTable(("a", "b"), ("sp1",), [[1.0], [2.0]])
    good = PredictorBlock("x", ("a", "b"), [[0.1], [0.2]])
    require_aligned(table, good)

    short = np.ones((3, 1))
    with pytest.raises(ValidationError, match="2 sites vs 3 sites"):
        require_aligned(table, short)

    renamed = PredictorBlock("x", ("a", "z"), [[0.1], [0.2]])
    with pytest.raises(ValidationError, match="'b' vs 'z'"):
        require_aligned(table, renamed)

    # unlabeled matrices only need the right number of rows
    require_aligned(table, np.zeros((2, 4)))
