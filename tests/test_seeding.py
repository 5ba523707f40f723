"""Bulk substream states against numpy's own SeedSequence and PCG64."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsbm import SizeGuardError, ValidationError, substream
from mlsbm.seeding import (
    MAX_SUBSTREAMS,
    _STATE_BLOCK,
    _bulk_substreams,
    derive_seed,
    _joined,
    _mixing_point,
    _pcg64_outputs,
    _pcg64_states,
    _reseed_each,
)

from conftest import traced_peak

# Seeds of one, two (derive_seed's 63-bit seeds) and several uint32 words,
# and tags of one and two words.
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1), st.integers(2**63, 2**200)
)
TAGS = st.one_of(st.integers(0, 4), st.integers(2**32, 2**70))


def reseeded(seed, tag, count):
    """Yield (t, gen) with gen re-seeded to every t in turn, through the bulk blocks."""
    gen, blocks = _bulk_substreams(seed, tag, count)
    for start, states in blocks:
        for k in _reseed_each(gen, states, np.arange(len(states[0]))):
            yield start + k, gen


@given(seed=SEEDS, tag=TAGS, count=st.integers(1, 2 * _STATE_BLOCK + 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_bulk_states_equal_per_substream_states(seed, tag, count, data):
    states = [gen.bit_generator.state for _, gen in reseeded(seed, tag, count)]
    assert len(states) == count
    # Every t near the ends and the block edges, plus a few at random.
    edges = {0, 1, count - 1, _STATE_BLOCK - 1, _STATE_BLOCK, 2 * _STATE_BLOCK}
    picks = data.draw(st.lists(st.integers(0, count - 1), max_size=5))
    for t in sorted(t for t in edges | set(picks) if t < count):
        assert states[t] == substream(seed, tag, t).bit_generator.state, t


@given(seed=SEEDS, tag=TAGS, back=st.lists(st.integers(1, 2**32), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_bulk_states_at_the_largest_layer_indices(seed, tag, back):
    t = [MAX_SUBSTREAMS - b for b in back]
    halves = _pcg64_states(*_mixing_point(seed, tag), np.array(t, dtype=np.uint64))
    for k, layer in enumerate(t):
        hi, lo, inc_hi, inc_lo = (int(half[k]) for half in halves)
        assert substream(seed, tag, layer).bit_generator.state["state"] == {
            "state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}


@given(seed=SEEDS, tag=TAGS, count=st.integers(1, _STATE_BLOCK + 3), draws=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_bulk_outputs_and_stepped_states_equal_the_generators(seed, tag, count, draws):
    gen, blocks = _bulk_substreams(seed, tag, count)
    for start, states in blocks:
        outputs = _pcg64_outputs(states, draws)
        assert outputs.shape == (draws, len(states[0]))
        for k in np.unique([0, len(states[0]) - 1, len(states[0]) // 2]):
            fresh = substream(seed, tag, start + k).bit_generator
            assert outputs[:, k].tolist() == fresh.random_raw(draws).tolist(), start + k
            assert _joined(states, k, draws) == fresh.state["state"], start + k


def test_a_state_block_peaks_under_three_times_its_states():
    # A block's states are 128 KB (four uint64 halves of 4,096 entries). The
    # uint32 hash adds one (8, 4096) word array and its shifted copy: 322 KB
    # in all (it was 1,059 KB, then 354 KB).
    args = (*_mixing_point(7, 2), np.arange(_STATE_BLOCK, dtype=np.uint64))
    _pcg64_states(*args)
    assert traced_peak(lambda: _pcg64_states(*args)) < 3 * 4 * 8 * _STATE_BLOCK


def test_reseeded_generator_draws_like_a_fresh_substream():
    for t, gen in reseeded(2**63 - 5, 2, 40):
        fresh = substream(2**63 - 5, 2, t)
        assert gen.binomial(4950, 0.3) == fresh.binomial(4950, 0.3)
        assert np.array_equal(gen.choice(4950, size=7, replace=False),
                              fresh.choice(4950, size=7, replace=False))
        assert np.array_equal(gen.random(5), fresh.random(5))
        assert gen.bit_generator.state == fresh.bit_generator.state


def test_more_than_two_to_the_32_substreams_are_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            _bulk_substreams(1, 2, MAX_SUBSTREAMS + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    gen, blocks = _bulk_substreams(1, 2, MAX_SUBSTREAMS)
    start, states = next(blocks)
    assert start == 0 and len(states[0]) == _STATE_BLOCK
    assert gen.bit_generator.state == substream(1, 2, 0).bit_generator.state


def test_invalid_seeds_are_refused_like_substream():
    # every entry where a seed reaches numpy refuses it the same way
    for seed in (-1, -(2**70), 1.5, True, "3", None):
        for entry in (substream, derive_seed, _bulk_substreams):
            with pytest.raises(ValidationError, match="^seed must be a non-negative integer, got "):
                entry(seed, 2, 4)


def test_numpy_integer_seeds_are_plain_seeds():
    assert derive_seed(np.int64(5), 1) == derive_seed(5, 1)
    first = substream(np.uint64(5), 2).random()
    assert first == substream(5, 2).random()
