"""Deterministic random-stream management.

Every stochastic unit of work (a site, a bootstrap draw, a sweep cell)
gets its own generator, derived from a master seed plus an integer path.
Results therefore never depend on evaluation order or thread count: two
work items with different paths draw from independent streams, and the
same ``(seed, path)`` pair always reproduces the same stream.

``stream`` is the reference. Batches of items draw their first numbers
from arrays of PCG64 states instead (``_draws``, ``_count_rows``) and turn
them into NumPy's uniforms, normals and bounded integers bit for bit. The
states step together, one 128-bit multiply-add per array operation
(``_raw_words``). When each item needs many words they step in
interleaved lanes, each lane jumping ahead as many steps as there are
lanes (Brown, "Random number generation with arbitrary strides", 1994). A
short block of long count rows reads each row's words off a generator
loaded with its state instead. Only what NumPy does not provide is
written here: a batch's states start from the pool of NumPy's own
SeedSequence over the seed and the path before the varying component
(``_seed_states``). An item the arrays cannot finish, one whose normal
leaves the ziggurat's fast path or whose bootstrap row meets a Lemire
rejection, is drawn again from a generator loaded with its start state
(``_loaded``), as is a dead site's noise.
"""

from __future__ import annotations

import numpy as np

from ._ziggurat import KI, WI

# First path component. Keeps unrelated kinds of draws on disjoint streams
# even when the remaining indices coincide.
ROLE_SITE = 0
ROLE_NICHE = 1
ROLE_BOOTSTRAP = 2

# Constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx)
# and of PCG64's 128-bit LCG step (numpy/random/src/pcg64).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(_MASK32)
_MASK128 = (1 << 128) - 1
_LOW52 = np.uint64((1 << 52) - 1)
_WI = np.array(WI)
_KI = np.array(KI, dtype=np.uint64)

#: Bootstrap rows step together in lanes only when a block holds at least
#: this many rows per raw word of a row. Below that, reading each row's raw
#: words off a loaded generator costs as little or less. On a 2-core x86
#: host with NumPy 2.4 (whole ``_count_rows`` calls, best of 9, two runs,
#: lanes against rows read one at a time), at 4 rows a word the lanes took
#: 0.57-1.09 against 0.86-1.67 ms for 200 rows, 3.5-5.4 against 4.5-7.6 ms
#: for 600 rows and 9.7-14.1 against 11.0-15.4 ms for 1000 rows. At 3 rows
#: a word they still won on 200 and 600 rows but took 13.6-18.1 against
#: 12.4-18.2 ms on 1000 rows (667 sites), and at 2 rows a word they tied
#: on 200 rows and lost or tied on 1000. Analyze's block, 1000 rows at 20
#: rows a word, took 2.1-3.4 against 5.1-9.1 ms.
_ROW_WORD_RATIO = 4
#: Draws in one block of bootstrap rows (an ``analyze`` bootstrap of 1000
#: replicates of 100 sites is one block). A block of ``k`` rows of ``n``
#: sites holds its states (32 bytes a row) and raw words (8 bytes a word
#: of two draws: ``8 k ceil(n / 2)`` bytes, about 512 KiB) while its rows
#: are evaluated, and the lane scratch while the words are drawn.
_BLOCK_VALUES = 2 ** 17
#: Lanes of ``_raw_words``: at most ``_MAX_LANES``, at least ``_LANE_WORDS``
#: words a lane, and at most ``_LANE_ITEMS`` items times lanes, so that the
#: lane scratch (six ``uint64`` rows of items times lanes, and the jump
#: increments, 16 bytes an item) stays near 400 KB. The fastest lane count
#: grew with the words per item, not with the items: for 200, 600 and 1000
#: items it was 5 lanes at 10 and 25 words, 10 at 50 and 16 at 125 (best of
#: 25, same host), where one lane took 1.5-3.5 times as long. A site draws
#: ``2 + 2 S`` words for ``S`` species, so sites of up to three species keep
#: one lane, and from four species a cell of up to 4,096 sites takes two or
#: more. Lanes made ``_draws`` 4-28% faster at 5 species and 6-22% at 10
#: over 200-4,000 sites (best of 25), and two lanes made no clear
#: difference at 2 species.
_MAX_LANES = 16
_LANE_ITEMS = 2 ** 13
_LANE_WORDS = 5


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for the work item addressed by ``path``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *path: int) -> int:
    """Fold ``(seed, path)`` into a fresh 64-bit master seed.

    Used to give nested procedures (sweep cells, validation tables) their
    own master seeds without correlating them.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of an integer, as SeedSequence splits it."""
    if value < 0:
        raise ValueError("seed and path components must be non-negative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_consts(start: int, mult: int, count: int) -> np.ndarray:
    """``count + 1`` successive values of a SeedSequence hash constant, as a
    ``(count + 1, 1)`` ``uint32`` column."""
    return np.cumprod(np.array([start] + [mult] * count, dtype=np.uint32),
                      dtype=np.uint32)[:, np.newaxis]


def _seed_states(seed: int, *path) -> np.ndarray:
    """PCG64 states of ``stream(seed, *path_i)`` for every item of one array
    component, as a ``(4, K)`` ``uint64`` array of rows state-high,
    state-low, increment-high and increment-low.

    Exactly one component of ``path`` is an array of indices below 2**32:
    1-D, where item ``i`` replaces the component with its ``i``-th entry,
    or 2-D, where item ``i`` replaces it with the ``w`` consecutive
    components of row ``i`` (a ``(replicate, site)`` grid, say). The pool
    of NumPy's SeedSequence hash over the seed and the components before
    the array one is the same for every item, so it comes from NumPy's own
    ``SeedSequence(seed, spawn_key=path[:at]).pool``. Each later word is
    then hashed into all four pool words at once as ``uint32`` arrays with
    one column per item, and PCG64's seeding, itself one LCG step, runs on
    all items at once too.
    """
    varying = [k for k, p in enumerate(path) if isinstance(p, np.ndarray)]
    if len(varying) != 1:
        raise ValueError("exactly one path component must be an array")
    (at,) = varying
    items = path[at]
    if items.ndim not in (1, 2) or (items.size and not (
            0 <= items.min() and items.max() <= _MASK32)):
        raise ValueError("the varying component must be 1-D or 2-D with "
                         "entries in [0, 2**32)")
    prefix = tuple(int(p) for p in path[:at])
    pool = np.random.SeedSequence(int(seed), spawn_key=prefix).pool
    # Words hashed so far: the seed's, padded to the pool size, then the
    # prefix's. Four hash constants go to each.
    mixed = max(_POOL_SIZE, len(_words(int(seed)))) + sum(
        len(_words(p)) for p in prefix)
    columns = [items] if items.ndim == 1 else list(items.T)
    tail = [c.astype(np.uint32) for c in columns] + [
        w for p in path[at + 1:] for w in _words(int(p))]
    table = _hash_consts(_INIT_A, _MULT_A, 4 * (mixed + len(tail)))[4 * mixed:]
    # Each word meets the four pool words at once: rows are pool words,
    # columns items, and uint32 arithmetic wraps as the hash does.
    pool = np.repeat(pool[:, np.newaxis], len(items), axis=1)
    hashed = np.empty_like(pool)
    shifted = np.empty_like(pool)
    for k, w in enumerate(tail):
        np.bitwise_xor(w, table[4 * k:4 * k + 4], out=hashed)
        hashed *= table[4 * k + 1:4 * k + 5]
        hashed ^= np.right_shift(hashed, 16, out=shifted)
        pool *= np.uint32(_MIX_MULT_L)
        hashed *= np.uint32(_MIX_MULT_R)
        pool -= hashed
        pool ^= np.right_shift(pool, 16, out=shifted)
    del hashed, shifted
    # generate_state(4, uint64): eight words cycle through the pool, and
    # words 2r and 2r + 1 are the low and high halves of state row r.
    out_consts = _hash_consts(_INIT_B, _MULT_B, 8)
    words = np.concatenate((pool, pool))
    del pool
    words ^= out_consts[:8]
    words *= out_consts[1:]
    words ^= words >> 16
    states = words[1::2].astype(np.uint64)
    states <<= 32
    states |= words[0::2]
    del words
    # pcg64_set_seed: inc = 2 * initseq + 1, then one step from
    # inc + initstate.
    hi, lo, inc_hi, inc_lo = states
    inc_hi <<= 1
    inc_hi |= inc_lo >> 63
    inc_lo <<= 1
    inc_lo |= 1
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    _step(hi, lo, _M, inc_hi, inc_lo, np.empty_like(states))
    return states


def _loaded(states: np.ndarray):
    """Yield one reused generator loaded with each column of ``states``."""
    state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
             "has_uint32": 0, "uinteger": 0}
    generator = np.random.Generator(np.random.PCG64(0))
    for hi, lo, inc_hi, inc_lo in zip(*states.tolist()):
        state["state"] = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
        generator.bit_generator.state = state
        yield generator


def _limbs(a: int) -> tuple:
    """A multiply-add constant as ``uint64`` limbs: its high and low words
    and the low word's two 32-bit halves."""
    return (np.uint64(a >> 64 & _MASK64), np.uint64(a & _MASK64),
            np.uint64(a & _MASK32), np.uint64(a >> 32 & _MASK32))


_M = _limbs(_PCG_MULT)
_ZERO = np.uint64(0)


def _step(hi, lo, a, c_hi, c_lo, work) -> None:
    """The 128-bit multiply-add ``state * A + C mod 2**128`` on every item,
    in place on ``hi`` and ``lo``.

    ``a`` holds the ``_limbs`` of the constant ``A``; ``C`` is a
    per-item increment (or a scalar). PCG64's LCG step is ``A = M`` and
    ``C = inc``. ``uint64`` products and sums wrap mod 2**64, which is all
    the high word needs, except for the carry out of ``lo * A_lo``: NumPy
    has no 128-bit product, so that comes from 32-bit limbs, in the four
    rows of ``work`` (a ``uint64`` scratch array of four rows shaped like
    ``lo``).
    """
    a_hi, a_lo, a_lo0, a_lo1 = a
    w, x, y, z = work
    np.bitwise_and(lo, _LOW32, out=w)
    np.right_shift(lo, 32, out=x)
    np.multiply(w, a_lo0, out=y)
    y >>= 32
    y += np.multiply(x, a_lo0, out=z)   # s1 * a0 + (s0 * a0 >> 32)
    w *= a_lo1
    w += np.bitwise_and(y, _LOW32, out=z)
    x *= a_lo1
    y >>= 32
    x += y
    w >>= 32
    x += w                              # the carry out of lo * A_lo
    hi *= a_lo
    hi += x
    hi += c_hi
    hi += np.multiply(lo, a_hi, out=x)
    lo *= a_lo
    lo += c_lo
    hi += np.less(lo, c_lo, out=w)


def _output(hi, lo, work):
    """PCG64's XSL-RR output: ``hi ^ lo`` rotated right by the top 6 bits.

    The result and its scratch are the first three rows of ``work``.
    """
    x, rot, right = work[:3]
    np.bitwise_xor(hi, lo, out=x)
    np.right_shift(hi, 58, out=rot)
    np.right_shift(x, rot, out=right)
    np.subtract(np.uint64(64), rot, out=rot)
    rot &= 63
    x <<= rot
    x |= right
    return x


def _lanes(k: int, count: int) -> int:
    """How many interleaved lanes draw ``count`` raw words of ``k`` items."""
    return max(1, min(_MAX_LANES, _LANE_ITEMS // max(k, 1),
                      count // _LANE_WORDS))


def _jump(lanes: int) -> tuple[int, int]:
    """``(M**L, 1 + M + ... + M**(L - 1)) mod 2**128`` for ``L = lanes``:
    ``L`` LCG steps take a state ``s`` with increment ``inc`` to ``s *
    M**L + inc * (1 + M + ... + M**(L - 1))``."""
    power, total = 1, 0
    for _ in range(lanes):
        total = (total * _PCG_MULT + 1) & _MASK128
        power = power * _PCG_MULT & _MASK128
    return power, total


def _raw_words(states: np.ndarray, count: int):
    """Yield the first ``count`` raw words of every item as ``(L, K)``
    ``uint64`` blocks, row ``l`` of block ``t`` holding word ``tL + l``
    (the last block may be shorter), each valid until the next is
    requested.

    Lane ``l`` of the ``L = _lanes(K, count)`` lanes starts on each item's
    state after ``l + 1`` LCG steps. From there one multiply-add advances
    every lane ``L`` steps at once (Brown 1994), by ``M**L`` and the item's
    own jump increment, so a block of ``L`` words costs one multiply-add.
    With one lane this is plain stepping.
    """
    k = states.shape[1]
    lanes = _lanes(k, count)
    work = np.empty((4, lanes, k), dtype=np.uint64)
    hi, lo = state = np.empty((2, lanes, k), dtype=np.uint64)
    state[:, 0] = states[:2]
    inc = states[2:]
    for lane in range(lanes):
        if lane:
            state[:, lane] = state[:, lane - 1]
        _step(hi[lane], lo[lane], _M, *inc, work[:, 0])
    power, total = _jump(lanes)
    if lanes > 1:
        inc = inc.copy()
        _step(*inc, _limbs(total), _ZERO, _ZERO, work[:, 0])
    jump = _limbs(power)
    for first in range(0, count, lanes):
        if first:
            _step(hi, lo, jump, *inc, work)
        yield _output(hi, lo, work)[:count - first]


def _draws(states: np.ndarray, uniforms: int, normals: int):
    """``random(uniforms)`` then ``standard_normal(normals)`` of every item.

    Returns ``(K, uniforms)`` and ``(K, normals)`` draws. All items step
    together from copies of their states. A uniform is ``(raw >> 11) *
    2**-53`` and a normal is the fast path of NumPy's ziggurat: layer ``raw
    & 0xff``, then a sign bit, then a 52-bit magnitude, accepted below
    ``KI`` of its layer. An item with a normal word off the fast path draws
    its normals again from a generator loaded with its start state, so
    every draw is the item's own stream, bit for bit.
    """
    k = states.shape[1]
    u = np.empty((uniforms, k))
    z = np.empty((normals, k))
    work = np.empty((3, k), dtype=np.uint64)
    layer, sign, scaled = work[0].view(np.intp), work[1], work[2].view(float)
    off = np.zeros(k, dtype=bool)
    words = (word for block in _raw_words(states, uniforms + normals)
             for word in block)
    # zip takes a row before a word, so the uniforms leave the normals'
    # words unread.
    for row, raw in zip(u, words):
        raw >>= 11
        np.multiply(raw, 2.0 ** -53, out=row)
    for row, raw in zip(z, words):
        np.bitwise_and(raw, 0xFF, out=layer.view(np.uint64))
        np.bitwise_and(raw, 0x100, out=sign)
        raw >>= 9
        raw &= _LOW52
        np.multiply(raw, np.take(_WI, layer, out=scaled), out=row)
        # A set sign bit negates the normal: flip the sign bit of its float.
        sign <<= 55
        row.view(np.uint64)[...] ^= sign
        off |= raw >= np.take(_KI, layer, out=sign)
    u, z = u.T, z.T
    items = np.flatnonzero(off)
    for i, rng in zip(items.tolist(), _loaded(states[:, items])):
        rng.random(uniforms)
        z[i] = rng.standard_normal(normals)
    return u, z


def _count_row(rng: np.random.Generator, n: int) -> np.ndarray:
    """How often each of ``n`` sites is drawn in ``n`` draws of ``rng``."""
    return np.bincount(rng.integers(0, n, size=n), minlength=n)


def _bootstrap_rows(seed: int, m: int, n: int, rows: int):
    """``_count_rows`` of the first attempts ``stream(seed, ROLE_BOOTSTRAP,
    j, 0)``, ``j < m``, ``rows`` at a time. States are seeded a block of
    about ``_BLOCK_VALUES`` draws, a multiple of ``rows``, at a time, so
    they take memory for one block, not m."""
    block = max(1, _BLOCK_VALUES // max(n * rows, 1)) * rows
    for start in range(0, m, block):
        yield from _count_rows(_seed_states(
            seed, ROLE_BOOTSTRAP, np.arange(start, min(start + block, m)), 0),
            n, rows)


def _count_rows(states: np.ndarray, n: int, rows: int):
    """Yield the ``_count_row`` of a generator loaded with each column of
    ``states``, ``rows`` at a time, as ``(rows, n)`` matrices (the last one
    may be shorter).

    ``integers`` takes NumPy's Lemire method on 32-bit draws, the low half
    of each raw word and then the high half. Every row's raw words come
    first: when there are enough columns per raw word of a row
    (``_ROW_WORD_RATIO``), all of them step together; otherwise each is
    read off a generator loaded with its state. A row that meets a
    rejection is drawn again from its own generator. All raw words are
    held at once, so a caller passes one block of states.
    """
    k = states.shape[1]
    words = (n + 1) // 2
    raw = np.empty((k, words), dtype="<u8")
    if not n or k < _ROW_WORD_RATIO * words:
        for row, rng in zip(raw, _loaded(states)):
            row[:] = rng.bit_generator.random_raw(words)
    else:
        first = 0
        for block in _raw_words(states, words):
            raw[:, first:first + len(block)] = block.T
            first += len(block)
        del block  # a view that would keep the lane scratch alive
    draws = raw.view("<u4")[:, :n]
    # Lemire rejects a draw whose product with n has a low half below this.
    threshold = (2 ** 32 - n) % max(n, 1)
    for first in range(0, k, rows):
        chunk = draws[first:first + rows]
        redo = np.flatnonzero((chunk * np.uint32(n) < threshold).any(axis=1))
        cells = chunk * np.uint64(n)
        cells >>= 32
        cells += np.arange(len(cells), dtype=np.uint64)[:, np.newaxis] * n
        counts = np.bincount(cells.view(np.int64).ravel(),
                             minlength=cells.size).reshape(cells.shape)
        del cells  # not held while the caller uses the rows
        if redo.size:
            for i, rng in zip(redo, _loaded(states[:, first + redo])):
                counts[i] = _count_row(rng, n)
        yield counts
