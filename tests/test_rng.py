"""Counter-based random stream: determinism, range, scalar/vector agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hqs.rng import uniform_block
from scalar_reference import counter_word, event_for_word, uniform01

U64 = st.integers(min_value=0, max_value=2**64 - 1)


@given(U64, U64, U64)
def test_counter_word_is_a_pure_function(seed, event, draw):
    assert counter_word(seed, event, draw) == counter_word(seed, event, draw)


@given(U64, U64, U64)
def test_uniform01_range(seed, event, draw):
    u = uniform01(seed, event, draw)
    assert 0.0 <= u < 1.0


def test_nearby_counters_decorrelate():
    # adjacent events should not produce adjacent uniforms
    us = [uniform01(0, e, 0) for e in range(1000)]
    assert len(set(us)) == 1000
    diffs = np.abs(np.diff(us))
    assert diffs.min() > 1e-12


@given(U64, st.lists(U64, min_size=1, max_size=64), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60)
def test_vector_block_matches_scalar_path(seed, events, draw):
    block = uniform_block(seed, np.array(events, dtype=np.uint64), draw_index=draw)
    scalar = [uniform01(seed, e, draw) for e in events]
    assert block.tolist() == scalar  # bit identity, not approximate


def _edge_words():
    """Words whose conversion to a float rounds at an edge: 2**64 - 1, which
    rounds up to 1.0, and the ties halfway between two floats, each with
    its +-1 neighbours, in three binades [2**b, 2**(b + 1)) where floats
    are 2**(b - 52) apart (below 2**53 every word is exact); k even rounds
    a tie down, k odd up, and k = 2**53 - 1 up into the next binade."""
    words = [2**64 - 1, 0, 1]
    for b in (63, 62, 53):
        ulp = 1 << (b - 52)
        for k in (2**52, 2**52 + 1, 2**52 + 12345, 2**53 - 2, 2**53 - 1):
            tie = (k << (b - 52)) + ulp // 2
            words += [tie - 1, tie, tie + 1]
    return words


@pytest.mark.parametrize("seed, draw", [(7, 0), (2**64 - 1, 3)])
def test_block_matches_scalar_path_on_rounding_edge_words(seed, draw):
    words = _edge_words()
    events = [event_for_word(seed, w, draw) for w in words]
    assert [counter_word(seed, e, draw) for e in events] == words
    block = uniform_block(seed, np.array(events, dtype=np.uint64), draw_index=draw)
    assert block.tolist() == [uniform01(seed, e, draw) for e in events]
    # the top word's draw is exactly 1.0, and a tie rounds to even
    assert block[0] == 1.0
    assert block.tolist()[words.index((2**52 << 11) + 2**10)] == 2.0**-1
    assert block.tolist()[words.index(((2**52 + 1) << 11) + 2**10)] == 2.0**-1 + 2.0**-52


def test_block_is_schedule_free():
    events = np.arange(10_000, dtype=np.uint64)
    whole = uniform_block(7, events)
    parts = np.concatenate([uniform_block(7, events[:3000]), uniform_block(7, events[3000:])])
    assert np.array_equal(whole, parts)


def test_uniformity_of_one_stream():
    u = uniform_block(123, np.arange(20_000, dtype=np.uint64))
    d, p = stats.kstest(u, "uniform")
    assert p > 1e-3, (d, p)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_seed_and_draw_index_open_distinct_streams():
    events = np.arange(1000, dtype=np.uint64)
    a = uniform_block(1, events)
    b = uniform_block(2, events)
    c = uniform_block(1, events, draw_index=1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)

