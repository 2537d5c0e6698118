"""Batched stream construction against the one-at-a-time reference."""

import numpy as np
import pytest

from vpboot.rng import ROLE_BOOTSTRAP, ROLE_SITE, _streams, derive_seed, stream

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
SEEDS = EDGE_SEEDS + [derive_seed(11, k) for k in range(20)]
INDICES = np.array([0, 1, 2, 3, 1000, 2**31, 2**32 - 1], dtype=np.int64)

# Path templates; None marks the component that varies over INDICES.
PATHS = [
    (ROLE_SITE, 7, None),          # (0, r, i): one site of replicate r
    (ROLE_BOOTSTRAP, None, 0),     # (2, j, 0): first attempt of replicate j
    (ROLE_SITE, 2**32 + 5, None),  # a constant component of two words
    (ROLE_SITE, None, 2**40),      # ... after the varying one
    (None,),
]


def _fill(template, value):
    return tuple(value if c is None else c for c in template)


@pytest.mark.parametrize(
    "template", PATHS,
    ids=["site", "bootstrap", "wide-constant", "constant-after", "bare"])
def test_batched_streams_equal_the_reference(template):
    for seed in SEEDS:
        batched = _streams(seed, *_fill(template, INDICES))
        for index, rng in zip(INDICES.tolist(), batched, strict=True):
            ref = stream(seed, *_fill(template, index))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.integers(0, 100, size=8),
                                  ref.integers(0, 100, size=8))
            assert np.array_equal(rng.normal(size=8), ref.normal(size=8))


def test_a_grid_component_fills_consecutive_path_components():
    grid = np.array([[0, 0], [0, 1], [3, 2**32 - 1], [2**31, 7]])
    for seed in EDGE_SEEDS:
        for tail in ((), (2**40,)):
            batched = _streams(seed, ROLE_SITE, grid, *tail)
            for (r, i), rng in zip(grid.tolist(), batched, strict=True):
                ref = stream(seed, ROLE_SITE, r, i, *tail)
                assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError, match="2\\*\\*32"):
        next(_streams(0, np.zeros((2, 2, 2), dtype=int)))


def test_one_array_component_is_required():
    with pytest.raises(ValueError, match="exactly one"):
        next(_streams(0, 1, 2))
    with pytest.raises(ValueError, match="exactly one"):
        next(_streams(0, np.arange(2), np.arange(2)))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        next(_streams(0, np.array([2**32])))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        next(_streams(0, np.array([-1])))


def test_empty_batch_yields_nothing():
    assert list(_streams(3, ROLE_SITE, np.arange(0))) == []
