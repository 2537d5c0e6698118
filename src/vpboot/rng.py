"""Deterministic random-stream management.

Every stochastic unit of work (a site, a bootstrap draw, a sweep cell)
gets its own generator, derived from a master seed plus an integer path.
Results therefore never depend on evaluation order or thread count: two
work items with different paths draw from independent streams, and the
same ``(seed, path)`` pair always reproduces the same stream.

``stream`` is the reference. Batches of items draw their first numbers
from arrays of PCG64 states instead (``_draws``, ``_count_rows``), stepped
together (or, in a short block of long count rows, read off a generator
loaded with each state) and turned into NumPy's uniforms, normals and
bounded integers bit for bit. Only what NumPy does not provide is written
here: a batch's states start from the pool of NumPy's own SeedSequence
over the seed and the path before the varying component
(``_seed_states``). An item the
arrays cannot finish, one whose normal leaves the ziggurat's fast path or
whose bootstrap row meets a Lemire rejection, is drawn again from a
generator loaded with its start state (``_loaded``), as is a dead site's
noise.
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
_M_HI = np.uint64(_PCG_MULT >> 64)
_M_LO = np.uint64(_PCG_MULT & _MASK64)
_M_LO0 = np.uint64(_PCG_MULT & _MASK32)
_M_LO1 = np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32 = np.uint64(_MASK32)
_LOW52 = np.uint64((1 << 52) - 1)
_WI = np.array(WI)
_KI = np.array(KI, dtype=np.uint64)

#: Bootstrap rows step together only when a block holds at least this many
#: rows per raw word of a row. Below that, the per-call overhead of short
#: arrays costs more than reading each row's raw words off a loaded
#: generator: on a 2-core x86 host with NumPy 2.4, 1000 rows of 100 draws
#: (blocks of 648 rows) took 80-90% of the row-by-row time stepped
#: together, but 1000 rows of 200 draws (blocks of 320 rows) took twice as
#: long, and 150 draws (blocks of 432 rows) 1.2-1.5 times as long.
_ROW_WORD_RATIO = 4
#: Draws in one block of stepped bootstrap rows. The block's raw words, 4
#: bytes a draw, stay alive while its rows are evaluated.
_BLOCK_VALUES = 2 ** 16


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
    _step(hi, lo, inc_hi, inc_lo, np.empty_like(states))
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


def _step(hi, lo, inc_hi, inc_lo, work) -> None:
    """PCG64's LCG step ``state * M + inc mod 2**128`` on every item, in
    place on ``hi`` and ``lo``.

    ``uint64`` products and sums wrap mod 2**64, which is all the high word
    needs, except for the carry out of ``lo * M_lo``: NumPy has no 128-bit
    product, so that comes from 32-bit limbs, in the four rows of ``work``
    (a ``(4, K)`` ``uint64`` scratch array).
    """
    a, b, c, d = work
    np.bitwise_and(lo, _LOW32, out=a)
    np.right_shift(lo, 32, out=b)
    np.multiply(a, _M_LO0, out=c)
    c >>= 32
    c += np.multiply(b, _M_LO0, out=d)  # a1 * m0 + (a0 * m0 >> 32)
    a *= _M_LO1
    a += np.bitwise_and(c, _LOW32, out=d)
    b *= _M_LO1
    c >>= 32
    b += c
    a >>= 32
    b += a                              # the carry out of lo * M_lo
    hi *= _M_LO
    hi += b
    hi += inc_hi
    hi += np.multiply(lo, _M_HI, out=b)
    lo *= _M_LO
    lo += inc_lo
    hi += np.less(lo, inc_lo, out=a)


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


def _raw_words(states: np.ndarray, count: int, work: np.ndarray):
    """Step copies of ``states`` ``count`` times and yield each raw word of
    every item, as row 0 of the ``(4, K)`` ``uint64`` scratch ``work``,
    valid until the next word is requested."""
    hi, lo = states[:2].copy()
    inc_hi, inc_lo = states[2:]
    for _ in range(count):
        _step(hi, lo, inc_hi, inc_lo, work)
        yield _output(hi, lo, work)


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
    work = np.empty((4, k), dtype=np.uint64)
    layer, sign, scaled = work[1].view(np.intp), work[2], work[3].view(float)
    off = np.zeros(k, dtype=bool)
    words = _raw_words(states, uniforms + normals, work)
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
        for w, word in enumerate(_raw_words(states, words,
                                            np.empty_like(states))):
            raw[:, w] = word
    draws = raw.view("<u4")[:, :n]
    rejected = (draws * np.uint32(n) < (2 ** 32 - n) % max(n, 1)).any(axis=1)
    for first in range(0, k, rows):
        cells = draws[first:first + rows] * np.uint64(n)
        cells >>= 32
        cells += np.arange(len(cells), dtype=np.uint64)[:, np.newaxis] * n
        counts = np.bincount(cells.view(np.int64).ravel(),
                             minlength=cells.size).reshape(cells.shape)
        del cells  # not held while the caller uses the rows
        redo = np.flatnonzero(rejected[first:first + rows])
        if redo.size:
            for i, rng in zip(redo, _loaded(states[:, first + redo])):
                counts[i] = _count_row(rng, n)
        yield counts
