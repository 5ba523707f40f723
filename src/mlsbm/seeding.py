"""Deterministic RNG substream derivation.

Every random draw in the package flows through a generator produced here.
A (seed, path) pair always yields the same stream, and distinct paths give
statistically independent streams, so layers, trials, and shuffle rounds can
be sampled in parallel with reproducible output.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeGuardError, ValidationError

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
_XOR_B = np.array(_HASH_B[:8], dtype=np.uint32)[:, None]
_MUL_B = np.array(_HASH_B[1:], dtype=np.uint32)[:, None]
_CYCLE = np.arange(8) % _POOL_SIZE
_M32, _S1, _S32 = np.uint64(_U32), np.uint64(1), np.uint64(32)
_U64 = 2**64 - 1
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _U64)

# Substreams derived in one vectorised pass. A block's states take 128 KB,
# and deriving them peaks at 322 KB under tracemalloc, whatever the layer count.
_STATE_BLOCK = 4096
# The last path word t must fit one uint32 word of numpy's entropy array.
MAX_SUBSTREAMS = 2**32


def _check_seed(seed, name: str = "seed") -> int:
    """The seed as an int; every seed passes here before it reaches numpy."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by (seed, path).

    Parameters
    ----------
    seed : int
        Non-negative base seed.
    path : int
        Substream coordinates (e.g. a stream tag plus a layer index).
    """
    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Return a stable 63-bit child seed for the given path.

    Used where a component needs its own base seed (per-trial instances,
    per-round shuffles) rather than a generator.
    """
    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(int(p) for p in path))
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
    """High 64 bits of the 128-bit products a * b, for a uint64 array a, as a new array."""
    a0, a1 = a & _M32, a >> _S32
    b0, b1 = np.uint64(b & _U32), np.uint64(b >> 32)
    cross1, cross0 = a1 * b0, a0 * b1
    carry = a0  # a0 is not read again
    carry *= b0
    carry >>= _S32
    carry += cross1 & _M32
    carry += cross0 & _M32
    carry >>= _S32
    high = a1
    high *= b1
    cross1 >>= _S32
    high += cross1
    cross0 >>= _S32
    high += cross0
    high += carry
    return high


def _pcg64_states(pool: list[int], hash_a: int, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64 `state` and `inc` of SeedSequence(seed, spawn_key=(tag, t)) for an array t < 2**32.

    Returns them as uint64 halves (state_hi, state_lo, inc_hi, inc_lo), the
    rows of one (4, len(t)) array. `pool` and `hash_a` come from
    _mixing_point. The hash runs on uint32 arrays, whose products and shifts
    wrap as SeedSequence's do. Each step updates its operand in place, so the
    temporaries stay at one (8, len(t)) uint32 array and a shifted copy.
    """
    hashes = [hash_a * pow(_MULT_A, i, 2**32) & _U32 for i in range(_POOL_SIZE + 1)]
    xor_a = np.array(hashes[:-1], dtype=np.uint32)[:, None]
    mul_a = np.array(hashes[1:], dtype=np.uint32)[:, None]
    pool_l = np.array([_MIX_MULT_L * word & _U32 for word in pool], dtype=np.uint32)[:, None]
    # mix_entropy's last round: hashmix(t) mixed into each of the pool words.
    mixed = t.astype(np.uint32, copy=False) ^ xor_a
    mixed *= mul_a
    mixed ^= mixed >> 16
    mixed *= np.uint32(_MIX_MULT_R)
    np.subtract(pool_l, mixed, out=mixed)
    mixed ^= mixed >> 16
    # generate_state(4, uint64) hashes eight words cycling over the pool and
    # reads them as (initstate hi, lo, initseq hi, lo): half h joins the
    # hashed words 2h (low) and 2h + 1 (high).
    words = mixed[_CYCLE]
    del mixed
    words ^= _XOR_B
    words *= _MUL_B
    words ^= words >> 16
    halves = words[1::2].astype(np.uint64)
    halves <<= _S32
    halves |= words[::2]
    del words
    # pcg_setseq_128_srandom_r: inc = 2 * initseq + 1, then one step from
    # inc + initstate, so state = (inc + initstate) * M + inc mod 2**128.
    seed_hi, seed_lo, inc_hi, inc_lo = halves
    inc_hi <<= _S1
    inc_hi |= inc_lo >> np.uint64(63)
    inc_lo <<= _S1
    inc_lo |= _S1
    seed_lo += inc_lo
    seed_hi += inc_hi
    seed_hi += seed_lo < inc_lo
    _pcg64_step(seed_hi, seed_lo, inc_hi, inc_lo)
    return tuple(halves)


def _pcg64_step(hi, lo, inc_hi, inc_lo) -> None:
    """One PCG64 LCG step, state * M + inc mod 2**128, in place on uint64 (hi, lo) halves."""
    prod_hi = _mulhi64(lo, _PCG64_MULT & _U64)
    prod_hi += lo * _MULT_HI
    hi *= _MULT_LO
    prod_hi += hi
    prod_lo = lo * _MULT_LO
    np.add(prod_lo, inc_lo, out=lo)
    np.add(prod_hi, inc_hi, out=hi)
    hi += lo < prod_lo


def _pcg64_outputs(states: tuple[np.ndarray, ...], count: int) -> np.ndarray:
    """The first `count` raw uint64 outputs of each PCG64 state, as a (count, L) array.

    `states` is (state_hi, state_lo, inc_hi, inc_lo) as _pcg64_states returns
    it, and is left as it is. PCG64 steps, then outputs XSL-RR: hi ^ lo
    rotated right by the top six state bits. Row r is what
    `bit_generator.random_raw()` returns r-th.
    """
    hi, lo, inc_hi, inc_lo = states
    hi, lo = hi.copy(), lo.copy()
    outputs = np.empty((count, len(hi)), dtype=np.uint64)
    xored, rot = np.empty_like(hi), np.empty_like(hi)
    for row in outputs:
        _pcg64_step(hi, lo, inc_hi, inc_lo)
        np.bitwise_xor(hi, lo, out=xored)
        np.right_shift(hi, np.uint64(58), out=rot)
        np.right_shift(xored, rot, out=row)
        np.subtract(np.uint64(64), rot, out=rot)
        rot &= np.uint64(63)
        xored <<= rot
        row |= xored
    return outputs


def _check_substream_count(count: int) -> None:
    if count > MAX_SUBSTREAMS:
        raise SizeGuardError(f"substreams are capped at {MAX_SUBSTREAMS} per tag, got {count}")


def _bulk_substreams(seed: int, tag: int, count: int):
    """Return (gen, blocks) for `substream(seed, tag, t)`, t = 0..count-1.

    `blocks` yields (start, states) for consecutive runs of at most 4096 t
    from `start`: their PCG64 states as uint64 halves, derived in vectorised
    arithmetic instead of one SeedSequence and PCG64 per t. `gen` starts in
    numpy's own state for t = 0, which the first block is checked against,
    and `_reseed_each` moves it to any t. Refuses count > 2**32 before it
    allocates anything.
    """
    seed, tag, count = _check_seed(seed), int(tag), int(count)
    _check_substream_count(count)
    pool, hash_a = _mixing_point(seed, tag)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tag, 0))))
    return gen, _state_blocks(gen, pool, hash_a, count)


def _state_blocks(gen: np.random.Generator, pool: list[int], hash_a: int, count: int):
    for start in range(0, count, _STATE_BLOCK):
        # t is not held while the caller reads the block
        states = _pcg64_states(
            pool, hash_a, np.arange(start, min(start + _STATE_BLOCK, count), dtype=np.uint32)
        )
        # Before the first yield the generator still holds numpy's t = 0 state.
        if start == 0 and gen.bit_generator.state["state"] != _joined(states, 0):
            raise RuntimeError("bulk substream states differ from numpy's PCG64 seeding")
        yield start, states


def _joined(states: tuple[np.ndarray, ...], k: int, steps: int = 0) -> dict:
    """states' k-th entry as numpy's PCG64 {"state", "inc"} ints, `steps` outputs on."""
    hi, lo, inc_hi, inc_lo = (int(half[k]) for half in states)
    state, inc = hi << 64 | lo, inc_hi << 64 | inc_lo
    for _ in range(steps):
        state = (state * _PCG64_MULT + inc) & (2**128 - 1)
    return {"state": state, "inc": inc}


def _reseed_each(gen: np.random.Generator, states: tuple[np.ndarray, ...], picks: np.ndarray):
    """Yield each k of `picks` after re-seeding gen in place to states' k-th entry."""
    bitgen = gen.bit_generator
    hi, lo, inc_hi, inc_lo = (half[picks].tolist() for half in states)
    for k, s_hi, s_lo, c_hi, c_lo in zip(picks.tolist(), hi, lo, inc_hi, inc_lo):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": c_hi << 64 | c_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield k


class _Words:
    """numpy's PCG64 reads for many generators at once, replayed from a table of raw outputs.

    Row k's generator starts at states' k-th entry. `outputs` counts the
    outputs each row has consumed; `has_uint32` and `uinteger` are the high
    half numpy's next_uint32 keeps buffered. Each read takes an index array
    of the rows that read, and reads an output only where numpy reads one.
    A read past the table's depth derives a table twice as deep.
    """

    def __init__(self, states: tuple[np.ndarray, ...], depth: int):
        self.states = states
        self.outputs = np.zeros(len(states[0]), dtype=np.intp)
        self.has_uint32 = np.zeros(len(states[0]), dtype=bool)
        self.uinteger = np.zeros(len(states[0]), dtype=np.uint64)
        self._derive(depth)

    def _derive(self, depth: int) -> None:
        # One flat table, read at output * L + row: faster than 2-D fancy indexing.
        self.depth, self.raw = depth, _pcg64_outputs(self.states, depth).reshape(-1)

    def _next(self, rows: np.ndarray) -> np.ndarray:
        """Each row's next raw output, which the row then has consumed."""
        at = self.outputs[rows]
        if len(at) and at.max() >= self.depth:
            self._derive(2 * int(at.max()) + 2)
        self.outputs[rows] = at + 1
        return self.raw[at * len(self.outputs) + rows]

    def double(self, rows: np.ndarray) -> np.ndarray:
        """next_double: a fresh output's top 53 bits."""
        return (self._next(rows) >> np.uint64(11)) * 2.0**-53

    def bounded(self, rows: np.ndarray, high, to_numpy: np.ndarray) -> np.ndarray:
        """Lemire's draw on [0, high] (high < 2**32 - 1, scalar or per row), as numpy makes it.

        The uint32 word is the low half of a fresh output, whose high half
        stays buffered, or that buffered half. high = 0 reads no word and
        gives 0. A rejected draw, which numpy would retry, sets to_numpy.
        """
        span = np.asarray(high, dtype=np.uint64) + np.uint64(1)
        reads = span > 1
        buffered = self.has_uint32[rows]
        u32 = self.uinteger[rows]
        fresh = reads & ~buffered
        word = self._next(rows[fresh])
        u32[fresh] = word & _M32
        self.uinteger[rows[fresh]] = word >> _S32
        self.has_uint32[rows] = buffered ^ reads
        m = u32 * span
        to_numpy[rows[(m & _M32) < (np.uint64(2**32) - span) % span]] = True
        return (m >> _S32).astype(np.int64)

    def state(self, k: int) -> dict:
        """Row k's `bit_generator.state` after its reads, as numpy's PCG64 spells it."""
        return {
            "bit_generator": "PCG64",
            "state": _joined(self.states, k, int(self.outputs[k])),
            "has_uint32": int(self.has_uint32[k]),
            "uinteger": int(self.uinteger[k]),
        }
