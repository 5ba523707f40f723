"""Deterministic RNG substream derivation.

Every random draw in the package flows through a generator produced here.
A (seed, path) pair always yields the same stream, and distinct paths give
statistically independent streams, so layers, trials, and shuffle rounds can
be sampled in parallel with reproducible output.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeGuardError

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
# (numpy/random/bit_generator.pyx, pcg64.h). _bulk_substreams checks its
# layer-0 state against numpy's own on every call, so a numpy that seeds
# differently fails loudly instead of re-drawing every instance.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32 = 0xFFFFFFFF

# generate_state(4, uint64) reads eight uint32 words cycling over the pool,
# each hashed with the running constant INIT_B * MULT_B**i.
_HASH_B = [_INIT_B * pow(_MULT_B, i, 2**32) & _U32 for i in range(9)]
_XOR_B = np.array(_HASH_B[:8], dtype=np.uint64)[:, None]
_MUL_B = np.array(_HASH_B[1:], dtype=np.uint64)[:, None]
_CYCLE = np.arange(8) % _POOL_SIZE
_M32, _S16, _S32 = np.uint64(_U32), np.uint64(16), np.uint64(32)

# Substreams derived in one vectorised pass; bounds the temporaries to a few
# hundred KB whatever the layer count.
_STATE_BLOCK = 4096
# The last path word t must fit one uint32 word of numpy's entropy array.
MAX_SUBSTREAMS = 2**32


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by (seed, path).

    Parameters
    ----------
    seed : int
        Non-negative base seed.
    path : int
        Substream coordinates (e.g. a stream tag plus a layer index).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Return a stable 63-bit child seed for the given path.

    Used where a component needs its own base seed (per-trial instances,
    per-round shuffles) rather than a generator.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def _word_count(value: int) -> int:
    """Number of uint32 words SeedSequence splits a non-negative int into."""
    return max(1, -(-value.bit_length() // 32))


def _mixing_point(seed: int, tag: int) -> tuple[list[int], int]:
    """SeedSequence(seed, spawn_key=(tag, t))'s pool and hash constant before it mixes in t.

    Both are shared by every t. Building SeedSequence(seed, spawn_key=(tag,))
    validates seed and tag and mixes in every earlier word; numpy hashes one
    word per pool slot, 12 times for the all-pairs mix, then 4 times per word
    past the pool, and a spawn key pads the seed's words to the pool size.
    """
    pool = np.random.SeedSequence(seed, spawn_key=(tag,)).pool.tolist()
    words = max(_POOL_SIZE, _word_count(seed)) + _word_count(tag)
    return pool, _INIT_A * pow(_MULT_A, 16 + 4 * (words - _POOL_SIZE), 2**32) & _U32


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, for a uint64 array a."""
    a0, a1 = a & _M32, a >> _S32
    b0, b1 = np.uint64(b & _U32), np.uint64(b >> 32)
    cross1, cross0 = a1 * b0, a0 * b1
    carry = ((a0 * b0 >> _S32) + (cross1 & _M32) + (cross0 & _M32)) >> _S32
    return a1 * b1 + (cross1 >> _S32) + (cross0 >> _S32) + carry


def _pcg64_states(pool: list[int], hash_a: int, t: np.ndarray) -> tuple[list[int], list[int]]:
    """PCG64 `state` and `inc` of SeedSequence(seed, spawn_key=(tag, t)) for a uint64 array t.

    `pool` and `hash_a` come from _mixing_point. uint64 array arithmetic
    wraps silently, and every uint32 step masks to 32 bits.
    """
    hashes = [hash_a * pow(_MULT_A, i, 2**32) & _U32 for i in range(_POOL_SIZE + 1)]
    xor_a = np.array(hashes[:-1], dtype=np.uint64)[:, None]
    mul_a = np.array(hashes[1:], dtype=np.uint64)[:, None]
    pool_l = np.array([_MIX_MULT_L * word & _U32 for word in pool], dtype=np.uint64)[:, None]
    # mix_entropy's last round: hashmix(t) mixed into each of the pool words.
    value = (t ^ xor_a) * mul_a & _M32
    value ^= value >> _S16
    mixed = (pool_l - np.uint64(_MIX_MULT_R) * value) & _M32
    mixed ^= mixed >> _S16
    # generate_state(4, uint64), read as (initstate hi, lo, initseq hi, lo).
    words = (mixed[_CYCLE] ^ _XOR_B) * _MUL_B & _M32
    words ^= words >> _S16
    seed_hi, seed_lo, seq_hi, seq_lo = words[0::2] | words[1::2] << _S32
    # pcg_setseq_128_srandom_r on (hi, lo) uint64 halves:
    # inc = 2 * initseq + 1, state = (inc + initstate) * M + inc mod 2**128.
    one = np.uint64(1)
    inc_hi = seq_hi << one | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << one | one
    sum_lo = inc_lo + seed_lo
    sum_hi = inc_hi + seed_hi + (sum_lo < inc_lo)
    mult_hi, mult_lo = _PCG64_MULT >> 64, _PCG64_MULT & (2**64 - 1)
    prod_lo = sum_lo * np.uint64(mult_lo)
    prod_hi = _mulhi64(sum_lo, mult_lo) + sum_lo * np.uint64(mult_hi) + sum_hi * np.uint64(mult_lo)
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo)
    return _join(state_hi, state_lo), _join(inc_hi, inc_lo)


def _join(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    return [h << 64 | low for h, low in zip(hi.tolist(), lo.tolist())]


def _check_substream_count(count: int) -> None:
    if count > MAX_SUBSTREAMS:
        raise SizeGuardError(f"substreams are capped at {MAX_SUBSTREAMS} per tag, got {count}")


def _bulk_substreams(seed: int, tag: int, count: int):
    """Return an iterator over `substream(seed, tag, t)` for t = 0..count-1.

    It yields one Generator, re-seeded in place for each t, so use each
    yield before taking the next. The PCG64 states are derived in blocks of
    vectorised arithmetic instead of one SeedSequence and PCG64 per t, and
    layer 0's state is checked against numpy's own. Refuses count > 2**32
    before it allocates anything.
    """
    seed, tag, count = int(seed), int(tag), int(count)
    _check_substream_count(count)
    pool, hash_a = _mixing_point(seed, tag)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tag, 0))))
    return _reseeded(gen, pool, hash_a, count)


def _reseeded(gen: np.random.Generator, pool: list[int], hash_a: int, count: int):
    bitgen = gen.bit_generator
    for start in range(0, count, _STATE_BLOCK):
        t = np.arange(start, min(start + _STATE_BLOCK, count), dtype=np.uint64)
        states, incs = _pcg64_states(pool, hash_a, t)
        # Before the first yield the generator still holds numpy's layer-0 state.
        if start == 0 and bitgen.state["state"] != {"state": states[0], "inc": incs[0]}:
            raise RuntimeError("bulk substream states differ from numpy's PCG64 seeding")
        for state, inc in zip(states, incs):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield gen
