"""Unit and property tests for the vectorized execution kernels."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.exec.kernels import (
    HashIndex,
    JoinMatches,
    bloom_probe_cost,
    combine_key_columns,
    combine_key_columns_pair,
    dense_codes,
    estimate_join_cardinality,
    hash_probe_cost,
    match_keys,
    semi_join_mask,
)

small_ints = st.integers(min_value=-50, max_value=50)

INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)

#: Bases that put a small key domain at zero, at negative values, and flush
#: against either int64 limit (where probe offsets wrap).
_DOMAIN_BASES = (0, -1_000, INT64_MIN, INT64_MAX - 40)


@st.composite
def near_base_keys(draw, min_size=0, max_size=60):
    """Keys ``base + offset`` with small offsets: a dense domain near ``base``."""
    base = draw(st.sampled_from(_DOMAIN_BASES))
    offsets = draw(st.lists(st.integers(0, 40), min_size=min_size, max_size=max_size))
    return np.asarray([base + o for o in offsets], dtype=np.int64)


def wide_keys(min_size=0, max_size=60):
    """Keys drawn anywhere in int64 (mostly a sparse domain)."""
    values = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
    return st.lists(values, min_size=min_size, max_size=max_size).map(
        lambda v: np.asarray(v, dtype=np.int64)
    )


def key_column(rows):
    """Exactly ``rows`` keys from a dense or a wide domain."""
    return st.one_of(near_base_keys(rows, rows), wide_keys(rows, rows))


def _searchsorted_match(probe: np.ndarray, build: np.ndarray) -> JoinMatches:
    """Reference matcher: stable sort + two binary searches per probe."""
    empty = np.zeros(0, dtype=np.int64)
    if probe.size == 0 or build.size == 0:
        return JoinMatches(probe_indices=empty, build_indices=empty)
    order = np.argsort(build, kind="stable")
    sorted_keys = build[order]
    lo = np.searchsorted(sorted_keys, probe, side="left")
    counts = np.searchsorted(sorted_keys, probe, side="right") - lo
    matched = counts > 0
    if not matched.any():
        return JoinMatches(probe_indices=empty, build_indices=empty)
    matched_counts = counts[matched]
    total = int(matched_counts.sum())
    within = np.arange(total) - np.repeat(np.cumsum(matched_counts) - matched_counts, matched_counts)
    positions = np.repeat(lo[matched], matched_counts) + within
    return JoinMatches(
        probe_indices=np.repeat(np.nonzero(matched)[0], matched_counts).astype(np.int64),
        build_indices=order[positions].astype(np.int64),
    )


def _unique_codes(columns):
    """Reference densification: ``np.unique`` over all columns concatenated."""
    both = np.concatenate(columns)
    _, codes = np.unique(both, return_inverse=True)
    radix = int(codes.max()) + 1 if both.size else 1
    sizes = np.cumsum([c.shape[0] for c in columns])[:-1]
    return np.split(codes.astype(np.int64), sizes), radix


def _assert_same_matches(got: JoinMatches, want: JoinMatches) -> None:
    for a, b in ((got.probe_indices, want.probe_indices), (got.build_indices, want.build_indices)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _brute_force_matches(probe, build):
    pairs = []
    for i, p in enumerate(probe):
        for j, b in enumerate(build):
            if p == b:
                pairs.append((i, j))
    return sorted(pairs)


class TestMatchKeys:
    def test_simple_match(self):
        matches = match_keys(np.array([1, 2, 3]), np.array([2, 3, 3, 9]))
        pairs = sorted(zip(matches.probe_indices.tolist(), matches.build_indices.tolist()))
        assert pairs == [(1, 0), (2, 1), (2, 2)]
        assert matches.num_matches == 3

    def test_no_matches(self):
        matches = match_keys(np.array([1, 2]), np.array([5, 6]))
        assert matches.num_matches == 0

    def test_empty_inputs(self):
        assert match_keys(np.array([], dtype=np.int64), np.array([1])).num_matches == 0
        assert match_keys(np.array([1]), np.array([], dtype=np.int64)).num_matches == 0

    def test_duplicates_both_sides(self):
        matches = match_keys(np.array([7, 7]), np.array([7, 7, 7]))
        assert matches.num_matches == 6

    @given(
        st.lists(small_ints, max_size=60),
        st.lists(small_ints, max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_equal_brute_force(self, probe, build):
        matches = match_keys(np.asarray(probe, dtype=np.int64), np.asarray(build, dtype=np.int64))
        got = sorted(zip(matches.probe_indices.tolist(), matches.build_indices.tolist()))
        assert got == _brute_force_matches(probe, build)


class TestDenseMatch:
    """``HashIndex.match`` is bit-identical to the binary-search reference on
    both the dense-table and the sorted path."""

    @given(near_base_keys(), near_base_keys())
    @settings(max_examples=150, deadline=None)
    def test_dense_domains_match_reference(self, build, probe):
        index = HashIndex(build)
        _assert_same_matches(index.match(probe), _searchsorted_match(probe, build))

    @given(wide_keys(), wide_keys())
    @settings(max_examples=100, deadline=None)
    def test_wide_domains_match_reference(self, build, probe):
        index = HashIndex(build)
        _assert_same_matches(index.match(probe), _searchsorted_match(probe, build))

    @pytest.mark.parametrize("base", _DOMAIN_BASES)
    def test_dense_table_handles_out_of_domain_and_wrapping_probes(self, base):
        build = np.asarray([base + o for o in (0, 3, 3, 7, 20, 20, 20)], dtype=np.int64)
        probe = np.asarray(
            [INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]
            + [base + o for o in (0, 1, 3, 20, 7, 21)],
            dtype=np.int64,
        )
        index = HashIndex(build)
        index.prepare_match(probe.shape[0])
        assert index._csr_starts is not None  # the dense path is under test
        _assert_same_matches(index.match(probe), _searchsorted_match(probe, build))

    def test_single_value_domain(self):
        build = np.full(5, -7, dtype=np.int64)
        probe = np.asarray([-8, -7, -6, -7], dtype=np.int64)
        index = HashIndex(build)
        _assert_same_matches(index.match(probe), _searchsorted_match(probe, build))
        assert index._csr_starts is not None

    def test_sparse_domain_stays_on_the_sorted_path(self):
        build = np.asarray([0, 1 << 40, 5], dtype=np.int64)
        probe = np.asarray([5, 0, 1 << 40, 9], dtype=np.int64)
        index = HashIndex(build)
        _assert_same_matches(index.match(probe), _searchsorted_match(probe, build))
        assert index._csr_starts is None

    def test_narrow_dtypes_do_not_overflow(self):
        build = np.arange(-100, 101, dtype=np.int8)  # offsets up to 200 overflow int8
        probe = np.asarray([100, -100, 5, 0, 127, -128], dtype=np.int8)
        index = HashIndex(build)
        _assert_same_matches(
            index.match(probe), _searchsorted_match(probe.astype(np.int64), build.astype(np.int64))
        )
        assert index._csr_starts is not None

    def test_frozen_sorted_index_never_builds_the_table(self):
        build = np.arange(1_000, dtype=np.int64) * 3  # range 3x the keys
        index = HashIndex(build)
        index.prepare_match()
        before = index.index_bytes()
        probe = np.arange(0, 3_000, dtype=np.int64)
        _assert_same_matches(index.match(probe), _searchsorted_match(probe, build))
        assert index._csr_starts is None and index.index_bytes() == before

    def test_index_bytes_counts_the_dense_table(self):
        build = np.asarray([4, 9, 9, 5, 12], dtype=np.int64)
        index = HashIndex(build)
        index.prepare_match()
        span = 12 - 4 + 1
        assert index._sorted_keys is None  # the dense path needs no sorted copy
        # keys + stable order + two int32 tables with a guard slot at each end.
        assert index.index_bytes() == build.nbytes + index.order.nbytes + 2 * 4 * (span + 2)

    def test_concurrent_matches_after_prepare_match(self):
        rng = np.random.default_rng(21)
        cases = [
            (rng.integers(0, 3_000, 4_000), rng.integers(-100, 3_100, 40_000)),  # dense
            (rng.integers(0, 1 << 50, 4_000), rng.integers(0, 1 << 50, 40_000)),  # sparse
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for build, probe in cases:
                index = HashIndex(build)
                index.prepare_match(probe.shape[0])
                before = index.index_bytes()
                bounds = [(lo, lo + 1_000) for lo in range(0, probe.shape[0], 1_000)]
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(index.match, probe[lo:hi]) for lo, hi in bounds]
                    results = [f.result(timeout=60) for f in futures]
                for (lo, hi), got in zip(bounds, results):
                    _assert_same_matches(got, _searchsorted_match(probe[lo:hi], build))
                assert index.index_bytes() == before  # probes only read
        finally:
            sys.setswitchinterval(previous)


class TestSemiJoinMask:
    def test_basic(self):
        mask = semi_join_mask(np.array([1, 2, 3, 4]), np.array([2, 4, 9]))
        assert mask.tolist() == [False, True, False, True]

    def test_empty_filter_removes_all(self):
        assert semi_join_mask(np.array([1, 2]), np.array([], dtype=np.int64)).sum() == 0

    def test_empty_keys(self):
        assert semi_join_mask(np.array([], dtype=np.int64), np.array([1])).shape == (0,)

    @given(st.lists(small_ints, max_size=60), st.lists(small_ints, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_python_membership(self, keys, filter_keys):
        mask = semi_join_mask(np.asarray(keys, dtype=np.int64), np.asarray(filter_keys, dtype=np.int64))
        expected = [k in set(filter_keys) for k in keys]
        assert mask.tolist() == expected


class TestCompositeKeys:
    def test_single_column_passthrough(self):
        col = np.array([4, 5, 6], dtype=np.int64)
        assert combine_key_columns([col]).tolist() == [4, 5, 6]

    def test_composite_equality_preserved(self):
        left = [np.array([1, 1, 2]), np.array([10, 20, 10])]
        right = [np.array([1, 2, 1]), np.array([20, 10, 30])]
        lk, rk = combine_key_columns_pair(left, right)
        # (1,20) appears at left[1] and right[0]; (2,10) at left[2] and right[1].
        assert lk[1] == rk[0]
        assert lk[2] == rk[1]
        # Distinct composites stay distinct.
        assert lk[0] != rk[0] and lk[0] != rk[2]

    def test_mismatched_column_counts_raise(self):
        with pytest.raises(ExecutionError):
            combine_key_columns_pair([np.array([1])], [np.array([1]), np.array([2])])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ExecutionError):
            combine_key_columns([np.array([1, 2]), np.array([1])])

    def test_empty_column_list_raises(self):
        with pytest.raises(ExecutionError):
            combine_key_columns([])

    @given(
        st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=40),
        st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_composite_join_equals_tuple_join(self, left, right):
        """Joining on the combined key is identical to joining on the tuple."""
        left_cols = [np.array([p[0] for p in left]), np.array([p[1] for p in left])]
        right_cols = [np.array([p[0] for p in right]), np.array([p[1] for p in right])]
        lk, rk = combine_key_columns_pair(left_cols, right_cols)
        matches = match_keys(lk, rk)
        got = sorted(zip(matches.probe_indices.tolist(), matches.build_indices.tolist()))
        expected = sorted(
            (i, j) for i, lp in enumerate(left) for j, rp in enumerate(right) if lp == rp
        )
        assert got == expected


class TestDenseCodes:
    """``dense_codes`` is bit-identical to ``np.unique(return_inverse=True)``."""

    @staticmethod
    def _check(columns):
        codes, radix = dense_codes(columns)
        want_codes, want_radix = _unique_codes(columns)
        assert radix == want_radix
        assert len(codes) == len(want_codes)
        for got, want in zip(codes, want_codes):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @given(near_base_keys(), near_base_keys())
    @settings(max_examples=150, deadline=None)
    def test_dense_domains(self, left, right):
        self._check([left, right])
        self._check([left])

    @given(wide_keys(), wide_keys())
    @settings(max_examples=100, deadline=None)
    def test_wide_domains(self, left, right):
        self._check([left, right])

    def test_empty_and_single_value_inputs(self):
        empty = np.zeros(0, dtype=np.int64)
        self._check([empty, empty])
        self._check([empty, np.full(3, INT64_MIN, dtype=np.int64)])
        self._check([np.full(4, 9, dtype=np.int64)])

    def test_mixed_and_unsigned_dtypes(self):
        self._check([np.asarray([3, -2], dtype=np.int32), np.asarray([-2, 7], dtype=np.int64)])
        self._check([np.arange(-100, 101, dtype=np.int8)])
        big = np.asarray([1 << 63, (1 << 63) + 1], dtype=np.uint64)
        self._check([big, np.asarray([(1 << 63) + 1], dtype=np.uint64)])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_combine_matches_unique_reference(self, data):
        n_left, n_right = data.draw(st.integers(0, 30)), data.draw(st.integers(0, 30))
        left_cols = [data.draw(key_column(n_left)) for _ in range(2)]
        right_cols = [data.draw(key_column(n_right)) for _ in range(2)]
        want_left = np.zeros(n_left, dtype=np.int64)
        want_right = np.zeros(n_right, dtype=np.int64)
        want_single = np.zeros(n_left, dtype=np.int64)
        for lc, rc in zip(left_cols, right_cols):
            (lcodes, rcodes), radix = _unique_codes([lc, rc])
            want_left = want_left * np.int64(radix) + lcodes
            want_right = want_right * np.int64(radix) + rcodes
            (codes,), radix = _unique_codes([lc])
            want_single = want_single * np.int64(radix) + codes
        got_left, got_right = combine_key_columns_pair(left_cols, right_cols)
        np.testing.assert_array_equal(got_left, want_left)
        np.testing.assert_array_equal(got_right, want_right)
        np.testing.assert_array_equal(combine_key_columns(left_cols), want_single)


class TestCostHelpers:
    def test_join_cardinality_estimate(self):
        assert estimate_join_cardinality(0, 10, 1, 1) == 0.0
        assert estimate_join_cardinality(100, 200, 50, 100) == pytest.approx(200.0)

    def test_probe_costs_monotone(self):
        assert hash_probe_cost(1000, 10_000_000) > hash_probe_cost(1000, 100)
        assert bloom_probe_cost(1000, 10_000_000) > bloom_probe_cost(1000, 100)
        assert hash_probe_cost(0, 100) == 0.0
        assert bloom_probe_cost(0, 100) == 0.0

    def test_bloom_probe_cheaper_than_hash_probe(self):
        for build in (1_000, 100_000, 10_000_000):
            assert bloom_probe_cost(10_000, build) < hash_probe_cost(10_000, build)
