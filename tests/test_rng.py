"""Batched stream construction against the one-at-a-time reference."""

import numpy as np
import pytest

from vpboot import rng
from vpboot._ziggurat import KI, WI
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


# Forced states: PCG64 outputs the low word of a state whose high word is 0
# unrotated, so inverting LCG steps from the state ``word`` gives a state
# whose k-th raw word is ``word``.
_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
_INC = 0xDA3E39CB94B95BDB << 1 | 1


def _forcing(word, k=1):
    """A state whose ``k``-th raw word (counting from 1) is ``word``."""
    state, inverse = word, pow(_MULT, -1, 1 << 128)
    for _ in range(k):
        state = (state - _INC) * inverse & _MASK128
    return state


def _generator(state):
    generator = np.random.Generator(np.random.PCG64(0))
    generator.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": _INC},
        "has_uint32": 0, "uinteger": 0}
    return generator


def _columns(states):
    """The ``(4, K)`` array layout of ``rng`` for states with ``_INC``."""
    return np.array([[s >> 64 for s in states],
                     [s & (1 << 64) - 1 for s in states],
                     [_INC >> 64] * len(states),
                     [_INC & (1 << 64) - 1] * len(states)], dtype=np.uint64)


def _state(end, i):
    return int(end[0, i]) << 64 | int(end[1, i])


def _normal_alone(word):
    """``standard_normal()`` with ``word`` as its next raw word, and whether
    the call used that word alone."""
    generator = _generator(_forcing(word))
    value = generator.standard_normal()
    return value, generator.bit_generator.state["state"]["state"] == word


def test_the_ziggurat_tables_are_the_installed_numpys():
    # The fast path of layer ``i`` accepts a 52-bit magnitude below
    # ``KI[i]`` on one word and returns ``magnitude * WI[i]``: bisect for the
    # first magnitude that needs more words, and read ``WI[i]`` off
    # magnitude 1. Layer 1 accepts nothing at once (its ``KI`` is 0); its
    # magnitude-1 draw passes the wedge test on the next word.
    ki, wi = [], []
    for layer in range(256):
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if _normal_alone(mid << 9 | layer)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
        wi.append(_normal_alone(1 << 9 | layer)[0])
    assert ki == list(KI)
    assert wi == list(WI)


def _normal_word(layer, magnitude, sign=0):
    return magnitude << 9 | sign << 8 | layer


# Normal words off the fast path: the tail of layer 0 (at, above and far
# above its threshold, both signs), the wedge of layer 1 (which has no fast
# path) and of layers 5 and 255 at their thresholds.
OFF_PATH = [_normal_word(0, KI[0]), _normal_word(0, KI[0] + 1, 1),
            _normal_word(0, (1 << 52) - 1), _normal_word(1, 12345, 1),
            _normal_word(5, KI[5]), _normal_word(255, KI[255], 1)]
# ... and on it, just below each threshold.
ON_PATH = [_normal_word(0, KI[0] - 1), _normal_word(5, KI[5] - 1, 1),
           _normal_word(255, KI[255] - 1)]


@pytest.mark.parametrize("uniforms", [0, 2])
def test_forced_normals_take_every_branch_of_the_ziggurat(uniforms):
    normals = 4
    states = [_forcing(word, uniforms + j + 1)
              for word in OFF_PATH + ON_PATH for j in range(normals)]
    u, z, end = rng._draws(_columns(states), uniforms, normals)
    for i, state in enumerate(states):
        ref = _generator(state)
        assert u[i].tobytes() == ref.random(uniforms).tobytes()
        assert z[i].tobytes() == ref.standard_normal(normals).tobytes()
        assert _state(end, i) == ref.bit_generator.state["state"]["state"]
        if i < len(OFF_PATH) * normals:
            # An off-path word costs NumPy more words than there are draws.
            plain = _generator(state)
            plain.random(uniforms + normals)
            assert _state(end, i) != plain.bit_generator.state["state"]["state"]


@pytest.mark.parametrize("seed", [2**32 - 1, 2**64 - 1])
def test_array_draws_equal_the_streams_at_extreme_seeds(seed):
    grid = np.array([[r, i] for r in (0, 2**32 - 1) for i in range(300)])
    u, z, end = rng._draws(rng._seed_states(seed, ROLE_SITE, grid), 2, 10)
    for k, (r, i) in enumerate(grid.tolist()):
        ref = stream(seed, ROLE_SITE, r, i)
        assert u[k].tobytes() == ref.random(2).tobytes()
        assert z[k].tobytes() == ref.standard_normal(10).tobytes()
        assert _state(end, k) == ref.bit_generator.state["state"]["state"]
    rows = np.concatenate(list(rng._count_rows(
        rng._seed_states(seed, ROLE_BOOTSTRAP, np.arange(400), 0), 9, 64)))
    assert len(rows) == 400
    for j, row in enumerate(rows):
        ref = stream(seed, ROLE_BOOTSTRAP, j, 0).integers(0, 9, size=9)
        assert np.array_equal(row, np.bincount(ref, minlength=9))


def _spy_loads(monkeypatch):
    """Count the states ``rng._loaded`` loads into generators."""
    loaded = []
    original = rng._loaded

    def spy(states):
        loaded.append(states.shape[1])
        return original(states)

    monkeypatch.setattr(rng, "_loaded", spy)
    return loaded


def test_a_row_with_a_lemire_rejection_is_drawn_from_its_own_stream(monkeypatch):
    n = 7  # odd, and NumPy rejects a 32-bit draw whose leftover is below 4
    assert (2**32 - n) % n == 4
    # A zero low half is rejected on the first draw of the word, a zero high
    # half on the second; a zero word rejects both.
    forced = [(0x9ABCDEF1 << 32, 1), (0x9ABCDEF1, 1), (0, 2), (3 << 32, 4)]
    states = [_forcing(0x0123456789ABCDEF ^ (k << 40), 1) for k in range(40)]
    for slot, (word, k) in zip((0, 13, 26, 39), forced):
        states[slot] = _forcing(word, k)
    states[20] = _forcing(5, 4)  # the unused high half of the last word
    loaded = _spy_loads(monkeypatch)
    blocks = list(rng._count_rows(_columns(states), n, 16))
    assert [len(b) for b in blocks] == [16, 16, 8]
    rows = np.concatenate(blocks)
    assert sum(loaded) == len(forced)
    for state, row in zip(states, rows, strict=True):
        ref = _generator(state).integers(0, n, size=n)
        assert np.array_equal(row, np.bincount(ref, minlength=n))


@pytest.mark.parametrize("n, m, per_item", [(100, 1000, False), (7, 40, False),
                                            (1000, 300, True), (101, 30, True),
                                            (0, 20, True)])
def test_the_shape_rule_picks_a_path_with_the_same_bits(n, m, per_item,
                                                        monkeypatch):
    loaded = _spy_loads(monkeypatch)
    rows = np.concatenate(list(rng._count_rows(
        rng._seed_states(17, ROLE_BOOTSTRAP, np.arange(m), 0), n, 13)))
    assert len(rows) == m
    assert (loaded == [m]) == per_item
    for j in range(0, m, 7 if per_item else 37):
        ref = stream(17, ROLE_BOOTSTRAP, j, 0).integers(0, n, size=n)
        assert np.array_equal(rows[j], np.bincount(ref, minlength=n))
