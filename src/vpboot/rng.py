"""Deterministic random-stream management.

Every stochastic unit of work (a site, a bootstrap draw, a sweep cell)
gets its own generator, derived from a master seed plus an integer path.
Results therefore never depend on evaluation order or thread count: two
work items with different paths draw from independent streams, and the
same ``(seed, path)`` pair always reproduces the same stream.
"""

from __future__ import annotations

import numpy as np

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
_MASK128 = (1 << 128) - 1


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


def _streams(seed: int, *path):
    """Yield ``stream(seed, *path_i)`` for every item of one array component.

    Exactly one component of ``path`` is an array of indices below 2**32:
    1-D, where item ``i`` replaces the component with its ``i``-th entry,
    or 2-D, where item ``i`` replaces it with the ``w`` consecutive
    components of row ``i`` (a ``(replicate, site)`` grid, say). NumPy's
    SeedSequence hash runs once for all items: the seed words fill the pool
    as Python ints, then each later word is hashed into all four pool words
    at once as ``uint32`` arrays with one column per item. PCG64's seeding
    step turns each item's hash into a state, and the states are loaded
    one after the other into a single reused generator. Each yielded
    generator is therefore bit-for-bit ``stream(seed, *path_i)``, valid
    until the next item is requested. Bad paths raise ``ValueError`` when
    the first item is requested.
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
    pool = np.array(pool, dtype=np.uint32)[:, np.newaxis]
    table = np.array(consts[t:], dtype=np.uint32)[:, np.newaxis]
    for k, w in enumerate(tail):
        hashed = (w ^ table[4 * k:4 * k + 4]) * table[4 * k + 1:4 * k + 5]
        hashed ^= hashed >> 16
        pool = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * hashed
        pool ^= pool >> 16
    # generate_state(4, uint64): eight words cycle through the pool.
    out_consts = np.array(_hash_consts(_INIT_B, _MULT_B, 8),
                          dtype=np.uint32)[:, np.newaxis]
    out = (np.concatenate((pool, pool)) ^ out_consts[:8]) * out_consts[1:]
    out ^= out >> 16
    seeds = np.ascontiguousarray(out.T, dtype="<u4").view("<u8")

    state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
             "has_uint32": 0, "uinteger": 0}
    generator = np.random.Generator(np.random.PCG64(0))
    for row in seeds:
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        initstate = (s_hi << 64) | s_lo
        state["state"] = {"state": ((inc + initstate) * _PCG_MULT + inc) & _MASK128,
                          "inc": inc}
        generator.bit_generator.state = state
        yield generator
