"""Tests for the frontier primitives (:mod:`repro.core.frontier`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import expand, first_occurrence, gather_ranges
from tests.core.bfs_oracle import flatten_ranges


def int64(xs):
    return np.array(xs, dtype=np.int64)


values_strategy = st.one_of(
    st.lists(st.integers(0, 40), max_size=200),  # dense: many repeats
    st.lists(st.integers(0, 10**6), max_size=50),  # sparse: mostly unique
    st.builds(lambda v, k: [v] * k, st.integers(0, 99), st.integers(0, 300)),  # all equal
    st.lists(st.tuples(st.integers(0, 9), st.integers(1, 60)), max_size=8).map(
        lambda runs: [v for v, k in runs for _ in range(k)]  # long runs of one value
    ),
    st.integers(0, 120).map(lambda k: list(range(k))[::-1]),  # already unique
)


class TestFirstOccurrence:
    @settings(max_examples=200, deadline=None)
    @given(values=values_strategy, garbage=st.integers(-(2**62), 2**62), extra=st.integers(1, 9))
    def test_matches_np_unique(self, values, garbage, extra):
        values = int64(values)
        # Scratch larger than needed and pre-filled: contents must not matter.
        slot = np.full(int(values.max(initial=0)) + 1 + extra, garbage, dtype=np.int64)
        slot[::2] = -1
        first = first_occurrence(values, slot)
        uniq, index = np.unique(values, return_index=True)
        np.testing.assert_array_equal(first, np.sort(index))
        np.testing.assert_array_equal(np.sort(values[first]), uniq)
        assert first.dtype == np.int64

    def test_writes_only_candidate_slots(self):
        slot = np.full(10, -7, dtype=np.int64)
        first_occurrence(int64([3, 8, 3]), slot)
        untouched = np.delete(slot, [3, 8])
        assert np.all(untouched == -7)

    def test_earliest_position_wins(self):
        first = first_occurrence(int64([5, 2, 5, 2, 9, 5]), np.empty(10, dtype=np.int64))
        assert first.tolist() == [0, 1, 4]


class TestGatherRanges:
    @settings(max_examples=200, deadline=None)
    @given(
        ranges=st.lists(st.tuples(st.integers(0, 500), st.integers(0, 12)), max_size=30)
    )
    def test_matches_four_repeat_expression(self, ranges):
        starts = int64([s for s, _ in ranges])
        counts = int64([c for _, c in ranges])
        idx, ends = gather_ranges(starts, counts)
        np.testing.assert_array_equal(idx, flatten_ranges(starts, counts))
        np.testing.assert_array_equal(ends, np.cumsum(counts))
        assert idx.dtype == np.int64

    def test_empty_frontier(self):
        idx, ends = gather_ranges(int64([]), int64([]))
        assert idx.size == 0 and ends.size == 0

    def test_single_range(self):
        idx, ends = gather_ranges(int64([7]), int64([3]))
        assert idx.tolist() == [7, 8, 9]
        assert ends.tolist() == [3]

    def test_zero_length_ranges(self):
        idx, ends = gather_ranges(int64([4, 9, 9, 20, 30]), int64([0, 2, 0, 1, 0]))
        assert idx.tolist() == [9, 10, 20]
        assert ends.tolist() == [0, 2, 2, 3, 3]

    @pytest.mark.parametrize(
        "counts", [[0, 2, 0, 1, 0], [3], [0, 0, 4], [1, 1, 1], [2, 0, 0, 0, 2]]
    )
    def test_searchsorted_recovers_owner(self, counts):
        counts = int64(counts)
        _, ends = gather_ranges(np.zeros_like(counts), counts)
        owner = np.searchsorted(ends, np.arange(int(counts.sum())), "right")
        np.testing.assert_array_equal(owner, np.repeat(np.arange(counts.size), counts))


class TestExpand:
    # 0: [1, 2, 2]   1: [2, 3]   2: [0]   (a multigraph: 0 lists 2 twice)
    offsets = int64([0, 3, 5, 6, 6])
    targets = int64([1, 2, 2, 2, 3, 0])
    ts = int64([5, 50, 5, 5, 5, 5])

    def level(self, frontier, dist, **kwargs):
        frontier = int64(frontier)
        starts = self.offsets[frontier]
        counts = self.offsets[frontier + 1] - starts
        slot = np.empty(4, dtype=np.int64)
        return expand(frontier, starts, counts, self.targets, int64(dist), slot, **kwargs)

    def test_first_arc_in_gather_order_owns_the_vertex(self):
        new, owners = self.level([0, 1], [0, 0, -1, -1])
        assert new.tolist() == [2, 3]
        assert owners.tolist() == [0, 1]

    def test_visited_targets_are_skipped(self):
        new, owners = self.level([2], [0, -1, 1, -1])
        assert new.size == 0 and owners.size == 0

    def test_ts_range_can_filter_out_the_would_be_winner(self):
        # 0's first arc to 2 is stamped 50: the duplicate (stamp 5) wins instead,
        # still owned by 0; with a window excluding both, 1 owns vertex 2.
        new, owners = self.level([0, 1], [0, 0, -1, -1], ts=self.ts, ts_range=(0, 10))
        assert (new.tolist(), owners.tolist()) == ([2, 3], [0, 1])
        ts = int64([5, 50, 50, 5, 5, 5])
        new, owners = self.level([0, 1], [0, 0, -1, -1], ts=ts, ts_range=(0, 10))
        assert (new.tolist(), owners.tolist()) == ([2, 3], [1, 1])

    def test_empty_frontier_and_empty_ranges(self):
        for frontier in ([], [3]):
            new, owners = self.level(frontier, [-1, -1, -1, 0])
            assert new.size == 0 and owners.size == 0
