"""Splittable per-path seeding.

Path k of a batch draws from ``PCG64(derive_seed(root, k))``, so each path's
stream depends only on (root seed, path index).  This keeps batched and
parallel runs bit-identical regardless of chunking or thread count.

Building one ``PCG64`` per path is slow (almost all of it numpy's
``SeedSequence``), so the path engine does not: :func:`path_states`
computes, for a whole block of paths at once and in numpy uint64 arrays,
the state that ``PCG64(derive_seed(root, k))`` starts in, as four words a
path, and the engine writes them into a single bit generator before drawing
each path.  No per-path Python arithmetic or dict is involved, so draw
workers hold the interpreter lock only briefly per path.  The streams are
the same numbers either way.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LO32 = np.uint64(0xFFFFFFFF)
_1, _32, _63 = np.uint64(1), np.uint64(32), np.uint64(63)


def derive_seed(root: int, k: int) -> int:
    """64-bit splitmix-style mix of a root seed and a path index."""
    z = (int(root) + _GOLDEN * (int(k) + 1)) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def path_generator(root: int, k: int) -> np.random.Generator:
    """Generator for path ``k`` under root seed ``root``."""
    return np.random.Generator(np.random.PCG64(derive_seed(root, k)))


def derive_seeds(root: int, start: int, m: int) -> np.ndarray:
    """``derive_seed(root, k)`` for k in [start, start + m), as uint64."""
    k = np.arange(start + 1, start + m + 1, dtype=np.uint64)
    # uint64 array arithmetic wraps modulo 2**64, as the masks above do
    z = np.uint64(int(root) & _MASK64) + np.uint64(_GOLDEN) * k
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _hash_consts(init: int, mult: int, n: int) -> list[tuple]:
    """The data-independent multiplier sequence of SeedSequence's hash."""
    out, h = [], init
    for _ in range(n):
        h2 = (h * mult) & 0xFFFFFFFF
        out.append((np.uint32(h), np.uint32(h2)))
        h = h2
    return out


# hashmix calls in mix_entropy: 4 to fill the pool, 4*3 to mix it
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
# generate_state(4, uint64) hashes 8 uint32 words
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_SHIFT = np.uint32(16)


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    pre, post = consts
    value = (value ^ pre) * post
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _SHIFT)


def seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, uint64)`` for each uint64 seed.

    Vectorized replica of numpy's pool mixing.  A seed's entropy is its
    little-endian uint32 words (one word below 2**32); pool slots past the
    entropy are hashed as 0, which is what a zero high word hashes to, so
    both cases take the same arithmetic.  Returns an (m, 4) uint64 array.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    lo = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    consts = iter(_MIX_CONSTS)
    pool = [_hashmix(word, next(consts)) for word in (lo, hi, zero, zero)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst],
                                   _hashmix(pool[i_src], next(consts)))
    out = np.empty((seeds.size, 2 * _POOL), dtype=np.uint32)
    for i, c in enumerate(_OUT_CONSTS):
        out[:, i] = _hashmix(pool[i % _POOL], c)
    return out.view("<u8").astype(np.uint64)


def _mul_hi(x: np.ndarray, y: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products x*y, from 32-bit limbs."""
    x0, x1 = x & _LO32, x >> _32
    y0, y1 = y & _LO32, y >> _32
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> _32) + (p01 & _LO32) + (p10 & _LO32)
    return x1 * y1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)


def path_states(root: int, start: int, m: int) -> np.ndarray:
    """``PCG64(derive_seed(root, k)).state`` for k in [start, start + m).

    Returns an (m, 4) uint64 array of state lo, state hi, inc lo, inc hi.
    PCG64 seeds from the first two words of ``generate_state(4, uint64)``
    (initstate, high word first) and the last two (initseq): ``inc =
    2*initseq + 1`` and ``state = ((inc + initstate)*MULT + inc) mod 2**128``
    (O'Neill 2014), done here on 64-bit halves that wrap modulo 2**64, with
    the high half of each 64 x 64-bit product built from 32-bit limbs.
    """
    w = seed_sequence_words(derive_seeds(root, start, m))
    out = np.empty((m, 4), dtype=np.uint64)
    inc_lo = out[:, 2] = (w[:, 3] << _1) | _1
    inc_hi = out[:, 3] = (w[:, 2] << _1) | (w[:, 3] >> _63)
    a_lo = inc_lo + w[:, 1]
    a_hi = inc_hi + w[:, 0] + (a_lo < inc_lo)
    # (a * MULT) mod 2**128
    p_lo = a_lo * _PCG_MULT_LO
    p_hi = (_mul_hi(a_lo, _PCG_MULT_LO) + a_lo * _PCG_MULT_HI
            + a_hi * _PCG_MULT_LO)
    out[:, 0] = p_lo + inc_lo
    out[:, 1] = p_hi + inc_hi + (out[:, 0] < p_lo)
    return out
