"""Deterministic random-stream management.

Every stochastic unit of work (a site, a bootstrap draw, a sweep cell)
gets its own generator, derived from a master seed plus an integer path.
Results therefore never depend on evaluation order or thread count: two
work items with different paths draw from independent streams, and the
same ``(seed, path)`` pair always reproduces the same stream.

``stream`` is the reference. Batches of items draw their first numbers
from arrays of PCG64 states instead (``_draws``, ``_count_rows``), stepped
together and turned into NumPy's uniforms, normals and bounded integers
bit for bit. An item the arrays cannot finish, one whose normal leaves the
ziggurat's fast path or whose bootstrap row meets a Lemire rejection, is
drawn again from a generator loaded with its start state (``_loaded``), as
is a dead site's noise (``_streams``).
"""

from __future__ import annotations

from itertools import islice

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
#: arrays costs more than loading a generator per row: on a 2-core x86 host
#: with NumPy 2.4, 1000 rows of 100 draws (blocks of 648 rows) took 40% of
#: the row-by-row time stepped together, but 1000 rows of 200 draws (blocks
#: of 320 rows) took 15% longer.
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


def _hash_consts(start: int, mult: int, count: int) -> list[int]:
    """``count + 1`` successive values of a SeedSequence hash constant."""
    consts = [start]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return consts


def _seed_states(seed: int, *path) -> np.ndarray:
    """PCG64 states of ``stream(seed, *path_i)`` for every item of one array
    component, as a ``(4, K)`` ``uint64`` array of rows state-high,
    state-low, increment-high and increment-low.

    Exactly one component of ``path`` is an array of indices below 2**32:
    1-D, where item ``i`` replaces the component with its ``i``-th entry,
    or 2-D, where item ``i`` replaces it with the ``w`` consecutive
    components of row ``i`` (a ``(replicate, site)`` grid, say). NumPy's
    SeedSequence hash runs once for all items: the seed words fill the pool
    as Python ints, then each later word is hashed into all four pool words
    at once as ``uint32`` arrays with one column per item. PCG64's seeding,
    itself one LCG step, then runs on all items at once too.
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
    words = _words(int(seed))
    words += [0] * (_POOL_SIZE - len(words))
    words += [w for p in path[:at] for w in _words(int(p))]
    columns = [items] if items.ndim == 1 else list(items.T)
    tail = [c.astype(np.uint32) for c in columns] + [
        w for p in path[at + 1:] for w in _words(int(p))]

    # mix_entropy: hashmix t xors in consts[t] and multiplies by consts[t+1].
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * (len(words) + len(tail)))
    t = 0

    def hashmix(value: int) -> int:
        nonlocal t
        value = ((value ^ consts[t]) * consts[t + 1]) & _MASK32
        t += 1
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    # From the varying word on, each word meets the four pool words at once:
    # rows are pool words, columns items, and uint32 arithmetic wraps where
    # the ints above are masked.
    pool = np.repeat(np.array(pool, dtype=np.uint32)[:, np.newaxis],
                     len(items), axis=1)
    table = np.array(consts[t:], dtype=np.uint32)[:, np.newaxis]
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
    out_consts = np.array(_hash_consts(_INIT_B, _MULT_B, 8),
                          dtype=np.uint32)[:, np.newaxis]
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
    _step(hi, lo, inc_hi, inc_lo)
    return states


def _streams(seed: int, *path):
    """Yield ``stream(seed, *path_i)`` for every item of one array component.

    The component and its items are as in ``_seed_states``. Each yielded
    generator is bit-for-bit ``stream(seed, *path_i)``, valid until the
    next item is requested. Bad paths raise ``ValueError`` when the first
    item is requested.
    """
    yield from _loaded(_seed_states(seed, *path))


def _loaded(states: np.ndarray):
    """Yield one reused generator loaded with each column of ``states``."""
    state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
             "has_uint32": 0, "uinteger": 0}
    generator = np.random.Generator(np.random.PCG64(0))
    for hi, lo, inc_hi, inc_lo in zip(*states.tolist()):
        state["state"] = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
        generator.bit_generator.state = state
        yield generator


def _step(hi, lo, inc_hi, inc_lo, work=None) -> None:
    """PCG64's LCG step ``state * M + inc mod 2**128`` on every item, in
    place on ``hi`` and ``lo``.

    ``uint64`` products and sums wrap mod 2**64, which is all the high word
    needs, except for the carry out of ``lo * M_lo``: NumPy has no 128-bit
    product, so that comes from 32-bit limbs, in the four rows of ``work``
    (a ``(4, K)`` ``uint64`` scratch array, or new ones).
    """
    if work is None:
        work = np.empty((4, lo.size), dtype=np.uint64)
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


def _output(hi, lo, work=None):
    """PCG64's XSL-RR output: ``hi ^ lo`` rotated right by the top 6 bits.

    The result and its scratch are the first three rows of ``work`` when
    it is given.
    """
    if work is None:
        work = np.empty((3, lo.size), dtype=np.uint64)
    x, rot, right = work[:3]
    np.bitwise_xor(hi, lo, out=x)
    np.right_shift(hi, 58, out=rot)
    np.right_shift(x, rot, out=right)
    np.subtract(np.uint64(64), rot, out=rot)
    rot &= 63
    x <<= rot
    x |= right
    return x


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
    off = _fast_path(states, u, z)
    u, z = u.T, z.T
    items = np.flatnonzero(off)
    for i, rng in zip(items.tolist(), _loaded(states[:, items])):
        rng.random(uniforms)
        z[i] = rng.standard_normal(normals)
    return u, z


def _fast_path(states, u, z) -> np.ndarray:
    """Step every item through the rows of ``u`` and then of ``z``, filling
    uniforms and fast-path normals, and return which items had a normal
    word off the fast path."""
    hi, lo = states[:2].copy()
    inc_hi, inc_lo = states[2:]
    work = np.empty((4, states.shape[1]), dtype=np.uint64)
    layer, sign, scaled = work[1].view(np.intp), work[2], work[3].view(float)
    off = np.zeros(states.shape[1], dtype=bool)
    for w in range(len(u) + len(z)):
        _step(hi, lo, inc_hi, inc_lo, work)
        raw = _output(hi, lo, work)
        if w < len(u):
            raw >>= 11
            np.multiply(raw, 2.0 ** -53, out=u[w])
            continue
        j = w - len(u)
        np.bitwise_and(raw, 0xFF, out=layer.view(np.uint64))
        np.bitwise_and(raw, 0x100, out=sign)
        raw >>= 9
        raw &= _LOW52
        np.multiply(raw, np.take(_WI, layer, out=scaled), out=z[j])
        # A set sign bit negates the normal: flip the sign bit of its float.
        sign <<= 55
        z[j].view(np.uint64)[...] ^= sign
        off |= raw >= np.take(_KI, layer, out=sign)
    return off


def _count_rows(states: np.ndarray, n: int, rows: int):
    """Yield the bootstrap count rows of the columns of ``states``, ``rows``
    at a time, as ``(rows, n)`` matrices (the last one may be shorter).

    The row of a column is ``np.bincount(g.integers(0, n, size=n),
    minlength=n)`` for a generator ``g`` loaded with its state.
    ``integers`` takes NumPy's Lemire method on 32-bit draws, the low half
    of each raw word and then the high half. When a block holds enough
    rows per raw word of a row (``_ROW_WORD_RATIO``), all its rows step
    together and a row that meets a rejection is drawn again from its own
    generator; otherwise every row is drawn from its own generator.
    """
    k = states.shape[1]
    words = (n + 1) // 2
    block = max(1, _BLOCK_VALUES // max(n * rows, 1)) * rows
    if not n or min(k, block) < _ROW_WORD_RATIO * words:
        loaded = _loaded(states)
        for start in range(0, k, rows):
            yield np.array([np.bincount(rng.integers(0, n, size=n), minlength=n)
                            for rng in islice(loaded, rows)])
        return
    threshold = (2 ** 32 - n) % n
    for start in range(0, k, block):
        part = states[:, start:start + block]
        hi, lo = part[:2].copy()
        inc_hi, inc_lo = part[2:]
        raw = np.empty((part.shape[1], words), dtype="<u8")
        work = np.empty_like(part)
        for w in range(words):
            _step(hi, lo, inc_hi, inc_lo, work)
            raw[:, w] = _output(hi, lo, work)
        draws = raw.view("<u4")[:, :n]
        rejected = (draws * np.uint32(n) < threshold).any(axis=1)
        for first in range(0, len(draws), rows):
            cells = draws[first:first + rows] * np.uint64(n)
            cells >>= 32
            cells += np.arange(0, cells.size, n, dtype=np.uint64)[:, np.newaxis]
            counts = np.bincount(cells.view(np.int64).ravel(),
                                 minlength=cells.size).reshape(cells.shape)
            redo = np.flatnonzero(rejected[first:first + rows])
            for i, rng in zip(redo, _loaded(part[:, first + redo])):
                counts[i] = np.bincount(rng.integers(0, n, size=n), minlength=n)
            yield counts
