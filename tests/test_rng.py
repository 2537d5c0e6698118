"""Batched stream construction against the one-at-a-time reference."""

import glob
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpboot import rng
from vpboot._ziggurat import KI, WI
from vpboot.rng import (ROLE_BOOTSTRAP, ROLE_SITE, _loaded, _seed_states,
                        derive_seed, stream)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3, 2**160 - 1]
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
        batched = _loaded(_seed_states(seed, *_fill(template, INDICES)))
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
            batched = _loaded(_seed_states(seed, ROLE_SITE, grid, *tail))
            for (r, i), rng in zip(grid.tolist(), batched, strict=True):
                ref = stream(seed, ROLE_SITE, r, i, *tail)
                assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _loaded(_seed_states(0, np.zeros((2, 2, 2), dtype=int)))


def test_one_array_component_is_required():
    with pytest.raises(ValueError, match="exactly one"):
        _loaded(_seed_states(0, 1, 2))
    with pytest.raises(ValueError, match="exactly one"):
        _loaded(_seed_states(0, np.arange(2), np.arange(2)))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _loaded(_seed_states(0, np.array([2**32])))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _loaded(_seed_states(0, np.array([-1])))


def test_empty_batch_yields_nothing():
    assert list(_loaded(_seed_states(3, ROLE_SITE, np.arange(0)))) == []


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
    u, z = rng._draws(_columns(states), uniforms, normals)
    for i, state in enumerate(states):
        ref = _generator(state)
        assert u[i].tobytes() == ref.random(uniforms).tobytes()
        assert z[i].tobytes() == ref.standard_normal(normals).tobytes()


@pytest.mark.parametrize("seed", [2**32 - 1, 2**64 - 1])
def test_array_draws_equal_the_streams_at_extreme_seeds(seed):
    grid = np.array([[r, i] for r in (0, 2**32 - 1) for i in range(300)])
    u, z = rng._draws(rng._seed_states(seed, ROLE_SITE, grid), 2, 10)
    for k, (r, i) in enumerate(grid.tolist()):
        ref = stream(seed, ROLE_SITE, r, i)
        assert u[k].tobytes() == ref.random(2).tobytes()
        assert z[k].tobytes() == ref.standard_normal(10).tobytes()
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


def _raw_reference(k, count, seed=23):
    """The first ``count`` raw words of ``k`` bootstrap streams, ``(count,
    k)``, and the ``_raw_words`` blocks of the same states, stacked."""
    states = _seed_states(seed, ROLE_BOOTSTRAP, np.arange(k), 0)
    blocks = [block.copy() for block in rng._raw_words(states, count)]
    ref = np.array([stream(seed, ROLE_BOOTSTRAP, j, 0)
                    .bit_generator.random_raw(count) for j in range(k)]).T
    return ref, blocks


@pytest.mark.parametrize("lanes, count", [(4, 3), (4, 4), (4, 12), (4, 13),
                                          (16, 50), (7, 1), (1, 5)],
                         ids=["below", "equal", "multiple", "not-multiple",
                              "widest", "one-word", "one-lane"])
def test_lanes_yield_each_streams_raw_words(lanes, count, monkeypatch):
    monkeypatch.setattr(rng, "_lanes", lambda k, c: lanes)
    ref, blocks = _raw_reference(9, count)
    assert [len(b) for b in blocks] == [
        min(lanes, count - first) for first in range(0, count, lanes)]
    assert np.array_equal(np.concatenate(blocks), ref)


@pytest.mark.parametrize("k, count, lanes", [
    (1, 50, 10),      # one row: the words per lane decide
    (1, 200, 16),     # ... up to the most lanes
    (512, 80, 16),    # 2**13 // k lanes, exactly 16
    (513, 80, 15),    # ... one item more: one lane fewer
    (1000, 50, 8),    # analyze's block
    (4096, 50, 2),
    (4097, 50, 1),    # too wide for two lanes
    (600, 9, 1),      # too few words for two lanes
    (600, 10, 2),
])
def test_the_lane_rule_keeps_every_raw_word(k, count, lanes):
    assert rng._lanes(k, count) == lanes
    ref, blocks = _raw_reference(k, count)
    assert {len(b) for b in blocks[:-1]} <= {lanes}
    assert np.array_equal(np.concatenate(blocks), ref)


def test_sites_of_up_to_three_species_keep_one_lane():
    # A site draws two uniforms and two normals per species; a block of
    # sites of up to three species steps its states one word at a time,
    # and from four species a cell that fits the lane scratch takes lanes.
    for k in (25, 2000, 50000):
        for species in (1, 2, 3):
            assert rng._lanes(k, 2 + 2 * species) == 1
    for k in (200, 4000):
        assert rng._lanes(k, 2 + 2 * 4) == 2
        assert rng._lanes(k, 2 + 2 * 5) == 2
    assert rng._lanes(5000, 2 + 2 * 5) == 1


_U128 = st.integers(0, _MASK128)


def _split(values):
    """High and low ``uint64`` words of 128-bit integers."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (1 << 64) - 1 for v in values], dtype=np.uint64))


@settings(max_examples=200, deadline=None)
@given(states=st.lists(_U128, min_size=1, max_size=6),
       increments=st.lists(_U128, min_size=6, max_size=6),
       constant=st.one_of(_U128, st.sampled_from(
           [rng._jump(lanes)[which] for lanes in (1, 2, 7, 16)
            for which in (0, 1)] + [0, 1, _MASK128])),
       lanes=st.integers(1, 3))
def test_the_multiply_add_is_exact_128_bit_arithmetic(states, increments,
                                                      constant, lanes):
    # Each of ``lanes`` rows holds the states, shifted; the increment is
    # one per item, broadcast over the rows, as the lanes use it.
    k = len(states)
    rows = [states[r:] + states[:r] for r in range(lanes)]
    hi, lo = (np.stack(part) for part in zip(*map(_split, rows)))
    inc_hi, inc_lo = _split(increments[:k])
    rng._step(hi, lo, rng._limbs(constant), inc_hi, inc_lo,
              np.empty((4, lanes, k), dtype=np.uint64))
    for r, row in enumerate(rows):
        expected = [(s * constant + c) & _MASK128
                    for s, c in zip(row, increments)]
        assert [h << 64 | l for h, l in zip(hi[r].tolist(),
                                             lo[r].tolist())] == expected


@pytest.mark.parametrize("lanes", [1, 2, 3, 8, 16])
def test_a_jump_is_that_many_lcg_steps(lanes):
    power, total = rng._jump(lanes)
    assert power == pow(_MULT, lanes, 1 << 128)
    assert total == sum(pow(_MULT, i, 1 << 128) for i in range(lanes)) % (
        1 << 128)
    for state, inc in [(0, _INC), (_MASK128, 1), (2**127 + 5, _MASK128)]:
        walked = state
        for _ in range(lanes):
            walked = (walked * _MULT + inc) & _MASK128
        assert walked == (state * power + inc * total) & _MASK128


# The ziggurat's off-path branches, which ``rng._draws`` redraws from the
# item's start state.
# A state whose high word is 0 outputs its low word, so with a free odd
# increment an item's first two raw words can both be forced: the first
# state is the first word, and the increment steps it to the second.
_MASK64 = (1 << 64) - 1
_INVERSE = pow(_MULT, -1, 1 << 128)


def _two_words(first, second):
    """``(state, inc)`` whose first two raw words are ``first`` and
    ``second``, which must differ in parity (the increment is odd)."""
    inc = (second - first * _MULT) & _MASK128
    assert inc & 1
    return (first - inc) * _INVERSE & _MASK128, inc


def _raw(state, inc, count):
    """The next ``count`` raw words of a PCG64 state, in plain Python."""
    words = []
    for _ in range(count):
        state = (state * _MULT + inc) & _MASK128
        hi, lo = state >> 64, state & _MASK64
        x, rot = hi ^ lo, hi >> 58
        words.append((x >> rot | x << (64 - rot)) & _MASK64)
    return words


def _off_fast_path(word):
    return (word >> 9 & (1 << 52) - 1) >= KI[word & 0xFF]


def _reference(state, inc):
    generator = np.random.Generator(np.random.PCG64(0))
    generator.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0}
    return generator


def _assert_draws_match(items, uniforms, normals):
    """``rng._draws`` of ``(state, inc)`` items against NumPy's generator;
    returns the raw words NumPy used per item."""
    states = np.array([[s >> 64 for s, _ in items],
                       [s & _MASK64 for s, _ in items],
                       [i >> 64 for _, i in items],
                       [i & _MASK64 for _, i in items]], dtype=np.uint64)
    u, z = rng._draws(states, uniforms, normals)
    used = []
    for k, (state, inc) in enumerate(items):
        ref = _reference(state, inc)
        assert u[k].tobytes() == ref.random(uniforms).tobytes()
        assert z[k].tobytes() == ref.standard_normal(normals).tobytes()
        final = ref.bit_generator.state["state"]["state"]
        count, walk = 0, state
        while walk != final:
            walk = (walk * _MULT + inc) & _MASK128
            count += 1
        used.append(count)
    return used


def _uniform_word(fraction, parity):
    """A raw word whose uniform is ``fraction`` (a multiple of 2**-53)."""
    return int(fraction * 2.0 ** 53) << 11 | parity


def test_a_rejecting_tail_draws_uniform_pairs_until_it_accepts():
    # A first tail uniform just below 1 makes xx near 3.8, so the second
    # pair almost surely rejects and the tail draws another pair.
    items = []
    for sign in (0, 1):  # the tail's sign is bit 8 of the magnitude
        first = _normal_word(0, (KI[0] + 12345) & ~(1 << 8) | sign << 8)
        items.append(_two_words(first, _uniform_word(1 - 2.0 ** -20, 1)))
    used = _assert_draws_match(items, 0, 3)
    assert all(n > 3 + 2 for n in used)  # a rejected pair, then more words


def test_a_rejected_wedge_starts_over_and_can_leave_the_path_again():
    # A wedge uniform just below 1 rejects in every layer; search the free
    # low bits of that uniform's word for a third word off the fast path.
    items = []
    for layer in (1, 7, 128, 255):
        first = _normal_word(layer, (KI[layer] + (1 << 52)) // 2, layer % 2)
        for low in range(1 << 10):  # bits 1-10, below the uniform's 53
            second = _uniform_word(1 - 2.0 ** -53, 1 - layer % 2) | low << 1
            state, inc = _two_words(first, second)
            if _off_fast_path(_raw(state, inc, 3)[2]):
                items.append((state, inc))
                break
    assert len(items) == 4
    used = _assert_draws_match(items, 0, 2)
    assert all(n > 3 for n in used)


@pytest.mark.parametrize("uniforms", [0, 2])
def test_a_last_normal_off_the_path_ends_on_the_items_own_words(uniforms):
    normals = 5
    items = [(_forcing(word, uniforms + normals), _INC) for word in OFF_PATH]
    used = _assert_draws_match(items, uniforms, normals)
    assert all(n > uniforms + normals for n in used)


@pytest.mark.parametrize("uniforms, normals",
                         [(0, 1), (2, 1), (0, 4), (2, 4), (2, 0)])
def test_only_items_with_an_off_path_normal_load_a_generator(
        uniforms, normals, monkeypatch):
    # The forced words sit at every normal of an item; its other normal
    # words, read off in plain Python, may leave the fast path too.
    states = [_forcing(word, uniforms + j + 1)
              for word in OFF_PATH + ON_PATH for j in range(max(normals, 1))]
    off = [any(map(_off_fast_path,
                   _raw(state, _INC, uniforms + normals)[uniforms:]))
           for state in states]
    forced_off = len(OFF_PATH) * max(normals, 1)
    assert off[:forced_off] == [normals > 0] * forced_off
    if normals == 1:
        assert not any(off[forced_off:])
    columns = _columns(states)
    calls = []
    original = rng._loaded

    def spy(loaded):
        calls.append(loaded.copy())
        return original(loaded)

    monkeypatch.setattr(rng, "_loaded", spy)
    rng._draws(columns.copy(), uniforms, normals)
    loaded = [c for call in calls for c in call.T.tolist()]
    # Each once, from its start state.
    assert loaded == [c for c, o in zip(columns.T.tolist(), off) if o]


def _elf_symbols(path, names):
    """Bytes of the named symbols of a little-endian ELF64 file, read off
    its symbol tables (``.symtab`` and ``.dynsym``)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"\x7fELF" or data[4:6] != b"\x02\x01":
        return {}
    (shoff,) = struct.unpack_from("<Q", data, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", data, 0x3A)
    sections = [struct.unpack_from("<IIQQQQIIQQ", data, shoff + k * shentsize)
                for k in range(shnum)]
    found = {}
    for _, kind, _, _, offset, size, link, _, _, _ in sections:
        if kind not in (2, 11):  # SHT_SYMTAB, SHT_DYNSYM
            continue
        strings = sections[link][4]
        for at in range(offset, offset + size, 24):
            name, _, _, index, value, length = struct.unpack_from(
                "<IBBHQQ", data, at)
            end = data.index(b"\0", strings + name)
            symbol = data[strings + name:end].decode()
            if symbol in names and 0 < index < shnum:
                _, _, _, address, start, *_ = sections[index]
                found[symbol] = data[start + value - address:
                                     start + value - address + length]
    return found


def test_the_committed_tables_are_the_installed_numpys_symbols():
    # NumPy compiles its ziggurat tables into the generator extension as
    # wi_double and ki_double.
    paths = glob.glob(os.path.join(os.path.dirname(np.random.__file__),
                                   "_generator*"))
    symbols = {}
    for path in paths:
        symbols.update(_elf_symbols(path, {"wi_double", "ki_double"}))
    if len(symbols) < 2 or any(len(v) != 2048 for v in symbols.values()):
        pytest.skip("the generator extension has no ELF symbols for its tables")
    assert struct.unpack("<256d", symbols["wi_double"]) == WI
    assert struct.unpack("<256Q", symbols["ki_double"]) == KI
