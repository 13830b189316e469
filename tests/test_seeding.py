"""Seed derivation: the numpy port of the walk streams gives numpy's bits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadwalk.seeding import _pcg64_doubles, _pcg64_states, stable_seed

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1]


def default_rng_bits(seeds, k):
    return np.array([np.random.default_rng(seed).random(k) for seed in seeds]).view(np.uint64)


def ported_bits(seeds, k):
    states = _pcg64_states(np.array(seeds, dtype=np.uint64))
    return _pcg64_doubles(states, k).view(np.uint64)


@pytest.mark.parametrize("k", [1, 12, 40])
def test_edge_seeds_draw_default_rng_bits(k):
    """One and two 32-bit entropy words, and the ends of the uint64 range."""
    assert np.array_equal(ported_bits(EDGE_SEEDS, k), default_rng_bits(EDGE_SEEDS, k))


def test_walk_stream_seeds_draw_default_rng_bits():
    seeds = [stable_seed(3, "walk", "t", str(i)) for i in range(2000)]
    assert np.array_equal(ported_bits(seeds, 12), default_rng_bits(seeds, 12))


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(
        st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.sampled_from(EDGE_SEEDS)),
        min_size=1,
        max_size=8,
    ),
    k=st.integers(1, 20),
)
def test_ported_doubles_equal_default_rng(seeds, k):
    assert np.array_equal(ported_bits(seeds, k), default_rng_bits(seeds, k))
