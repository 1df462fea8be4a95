"""Unit and property tests for the blocked Bloom filter and the filter registry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import (
    BITS_PER_KEY,
    BloomFilter,
    BloomFilterRegistry,
    FilterKey,
    hash_keys,
    key_patterns,
    optimal_num_blocks,
)
from repro.errors import ExecutionError

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)


def _reference_hashes(keys: np.ndarray) -> np.ndarray:
    """Reference splitmix64: the textbook form, masking after every step."""
    z = np.asarray(keys, dtype=np.int64).view(np.uint64).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        z = z ^ (z >> np.uint64(31))
    return z


def _reference_patterns(hashes: np.ndarray) -> np.ndarray:
    """Reference bit patterns: set bit ``((h >> 6(i+1)) ^ (h >> (32+3i))) & 63`` one at a time."""
    pattern = np.zeros(hashes.shape, dtype=np.uint64)
    rotated = hashes
    for i in range(BITS_PER_KEY):
        rotated = rotated >> np.uint64(6)
        bit_pos = (rotated ^ (hashes >> np.uint64(32 + 3 * i))) & np.uint64(63)
        pattern |= np.uint64(1) << bit_pos
    return pattern


int64_values = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.integers(min_value=-1_000, max_value=1_000),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
)


class TestHashingPass:
    """The table-driven hashing pass is bit-identical to the reference loop."""

    @given(st.lists(int64_values, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_hashes_and_patterns_match_reference(self, values):
        keys = np.asarray(values, dtype=np.int64)
        hashes = hash_keys(keys)
        expected = _reference_hashes(keys)
        assert hashes.dtype == np.uint64
        np.testing.assert_array_equal(hashes, expected)
        patterns = key_patterns(hashes)
        assert patterns.dtype == np.uint64
        np.testing.assert_array_equal(patterns, _reference_patterns(expected))

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_patterns_of_arbitrary_hashes(self, values):
        hashes = np.asarray(values, dtype=np.uint64)
        np.testing.assert_array_equal(key_patterns(hashes), _reference_patterns(hashes))

    def test_every_table_entry(self):
        # One hash per value of bits 32..46, with bits 6..29 chosen so the
        # four XORed bit positions walk every 12-bit pair in both halves.
        high = np.arange(1 << 15, dtype=np.uint64)
        operands = np.zeros_like(high)
        for i in range(BITS_PER_KEY):
            operands |= ((high >> np.uint64(3 * i)) & np.uint64(63)) << np.uint64(6 * i)
        pairs = (high & np.uint64(0xFFF)) | (((high * np.uint64(2053)) & np.uint64(0xFFF)) << np.uint64(12))
        hashes = (high << np.uint64(32)) | ((operands ^ pairs) << np.uint64(6))
        np.testing.assert_array_equal(key_patterns(hashes), _reference_patterns(hashes))

    @given(st.lists(int64_values, max_size=120), st.lists(int64_values, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_filter_bits_match_reference(self, inserted, probed):
        keys = np.asarray(inserted, dtype=np.int64)
        probes = np.asarray(probed, dtype=np.int64)
        bloom = BloomFilter(expected_keys=max(len(inserted), 1))
        bloom.insert(keys)
        blocks = np.zeros(bloom.num_blocks, dtype=np.uint64)
        mask = np.uint64(bloom.num_blocks - 1)
        hashes = _reference_hashes(keys)
        np.bitwise_or.at(blocks, (hashes & mask).astype(np.int64), _reference_patterns(hashes))
        np.testing.assert_array_equal(bloom._blocks, blocks)
        probe_hashes = _reference_hashes(probes)
        probe_patterns = _reference_patterns(probe_hashes)
        expected = (blocks[(probe_hashes & mask).astype(np.int64)] & probe_patterns) == probe_patterns
        np.testing.assert_array_equal(bloom.probe(probes), expected)


class TestSizing:
    def test_zero_keys(self):
        assert optimal_num_blocks(0, 0.02) == 1

    def test_power_of_two(self):
        for n in (10, 1_000, 50_000):
            blocks = optimal_num_blocks(n, 0.02)
            assert blocks & (blocks - 1) == 0

    def test_more_keys_more_blocks(self):
        assert optimal_num_blocks(100_000, 0.02) > optimal_num_blocks(1_000, 0.02)

    def test_lower_fpr_more_blocks(self):
        assert optimal_num_blocks(10_000, 0.001) > optimal_num_blocks(10_000, 0.05)

    def test_invalid_fpr_raises(self):
        with pytest.raises(ExecutionError):
            optimal_num_blocks(10, 1.5)


class TestBloomFilter:
    def test_no_false_negatives_basic(self):
        keys = np.arange(0, 5_000, dtype=np.int64)
        bloom = BloomFilter(expected_keys=len(keys))
        bloom.insert(keys)
        assert bloom.probe(keys).all()

    def test_false_positive_rate_reasonable(self):
        rng = np.random.default_rng(0)
        inserted = rng.integers(0, 2**40, size=20_000, dtype=np.int64)
        bloom = BloomFilter(expected_keys=len(inserted), fpr=0.02)
        bloom.insert(inserted)
        absent = rng.integers(2**41, 2**42, size=50_000, dtype=np.int64)
        fpr = bloom.probe(absent).mean()
        # Blocked filters are a bit worse than the ideal; allow generous slack.
        assert fpr < 0.12

    def test_empty_probe(self):
        bloom = BloomFilter(expected_keys=10)
        assert bloom.probe(np.array([], dtype=np.int64)).shape == (0,)

    def test_empty_filter_rejects_most_keys(self):
        bloom = BloomFilter(expected_keys=1000)
        keys = np.arange(1000, dtype=np.int64)
        assert bloom.probe(keys).sum() == 0

    def test_contains_scalar(self):
        bloom = BloomFilter(expected_keys=10)
        bloom.insert(np.array([42], dtype=np.int64))
        assert bloom.contains(42)

    def test_negative_keys_supported(self):
        keys = np.array([-1, -1000, -(2**40)], dtype=np.int64)
        bloom = BloomFilter(expected_keys=3)
        bloom.insert(keys)
        assert bloom.probe(keys).all()

    def test_statistics_counters(self):
        bloom = BloomFilter(expected_keys=100)
        bloom.insert(np.arange(100, dtype=np.int64))
        bloom.probe(np.arange(50, dtype=np.int64))
        assert bloom.statistics.keys_inserted == 100
        assert bloom.statistics.keys_probed == 50
        assert bloom.statistics.probes_passed == 50
        assert bloom.statistics.observed_pass_rate == 1.0

    def test_union_requires_same_geometry(self):
        a = BloomFilter(expected_keys=100, num_blocks=16)
        b = BloomFilter(expected_keys=100, num_blocks=32)
        with pytest.raises(ExecutionError):
            a.union_inplace(b)

    def test_union_combines_membership(self):
        a = BloomFilter(expected_keys=100, num_blocks=64)
        b = BloomFilter(expected_keys=100, num_blocks=64)
        a.insert(np.array([1, 2, 3], dtype=np.int64))
        b.insert(np.array([100, 200], dtype=np.int64))
        a.union_inplace(b)
        assert a.probe(np.array([1, 2, 3, 100, 200], dtype=np.int64)).all()

    def test_fill_ratio_increases(self):
        bloom = BloomFilter(expected_keys=1000)
        before = bloom.fill_ratio
        bloom.insert(np.arange(1000, dtype=np.int64))
        assert bloom.fill_ratio > before

    def test_size_bytes(self):
        bloom = BloomFilter(expected_keys=1000)
        assert bloom.size_bytes == bloom.num_blocks * 8

    @given(
        st.lists(st.integers(min_value=-(2**62), max_value=2**62 - 1), min_size=1, max_size=500),
        st.lists(st.integers(min_value=-(2**62), max_value=2**62 - 1), max_size=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_false_negatives_property(self, inserted, probed):
        """A Bloom filter may return false positives but never false negatives."""
        bloom = BloomFilter(expected_keys=len(inserted))
        bloom.insert(np.asarray(inserted, dtype=np.int64))
        probe_keys = np.asarray(inserted + probed, dtype=np.int64)
        hits = bloom.probe(probe_keys)
        assert hits[: len(inserted)].all()


class TestRegistry:
    def test_publish_and_lookup(self):
        registry = BloomFilterRegistry()
        bloom = BloomFilter(expected_keys=10)
        key = FilterKey("orders", "o_custkey", "forward")
        registry.publish(key, bloom)
        assert registry.lookup(key) is bloom
        assert key in registry
        assert len(registry) == 1
        assert registry.total_bytes() == bloom.size_bytes

    def test_double_publish_raises_unless_replace(self):
        registry = BloomFilterRegistry()
        key = FilterKey("r", "a")
        registry.publish(key, BloomFilter(expected_keys=1))
        with pytest.raises(ExecutionError):
            registry.publish(key, BloomFilter(expected_keys=1))
        registry.publish(key, BloomFilter(expected_keys=2), replace=True)

    def test_missing_lookup_raises(self):
        registry = BloomFilterRegistry()
        with pytest.raises(ExecutionError):
            registry.lookup(FilterKey("r", "a"))
        assert registry.get(FilterKey("r", "a")) is None

    def test_pass_id_distinguishes_filters(self):
        registry = BloomFilterRegistry()
        forward = FilterKey("r", "a", "forward")
        backward = FilterKey("r", "a", "backward")
        registry.publish(forward, BloomFilter(expected_keys=1))
        registry.publish(backward, BloomFilter(expected_keys=1))
        assert len(registry) == 2

    def test_clear(self):
        registry = BloomFilterRegistry()
        registry.publish(FilterKey("r", "a"), BloomFilter(expected_keys=1))
        registry.clear()
        assert len(registry) == 0
