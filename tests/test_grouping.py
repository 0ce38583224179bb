"""Unit and property tests for the group-by helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import (first_occurrence_mask, group_counts,
                                 last_occurrence_mask, nth_set_columns,
                                 rank_within_group)


def _unique_based_rank(group_ids):
    """The np.unique + argsort + searchsorted formulation."""
    group_ids = np.asarray(group_ids)
    unique_groups, inverse = np.unique(group_ids, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    inverse_sorted = inverse[order]
    group_start = np.searchsorted(inverse_sorted,
                                  np.arange(len(unique_groups)))
    ranks = np.empty(len(group_ids), dtype=np.int64)
    ranks[order] = np.arange(len(group_ids)) - group_start[inverse_sorted]
    return ranks, unique_groups, inverse


class TestRankWithinGroup:
    def test_simple(self):
        ranks, unique, inverse = rank_within_group(np.array([5, 3, 5, 5, 3]))
        assert ranks.tolist() == [0, 0, 1, 2, 1]
        assert unique.tolist() == [3, 5]
        assert np.array_equal(unique[inverse], np.array([5, 3, 5, 5, 3]))

    def test_all_same_group(self):
        ranks, unique, _ = rank_within_group(np.zeros(6, dtype=np.int64))
        assert ranks.tolist() == [0, 1, 2, 3, 4, 5]
        assert unique.tolist() == [0]

    def test_all_distinct(self):
        ranks, _, _ = rank_within_group(np.arange(10))
        assert ranks.tolist() == [0] * 10

    def test_empty(self):
        ranks, unique, inverse = rank_within_group(np.array([], dtype=np.int64))
        assert len(ranks) == 0
        assert len(unique) == 0
        assert len(inverse) == 0

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=200))
    @settings(max_examples=100)
    def test_ranks_are_stable_positions(self, group_list):
        groups = np.asarray(group_list, dtype=np.int64)
        ranks, _, _ = rank_within_group(groups)
        # Brute-force reference: rank = occurrences of this id before i.
        for i, g in enumerate(group_list):
            assert ranks[i] == group_list[:i].count(g)


    @given(st.lists(st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
                    max_size=300),
           st.integers(min_value=1, max_value=2 ** 62))
    @settings(max_examples=200)
    def test_matches_unique_based_formulation(self, group_list, spread):
        groups = np.asarray(group_list, dtype=np.int64) % spread
        ranks, unique, inverse = rank_within_group(groups)
        ref_ranks, ref_unique, ref_inverse = _unique_based_rank(groups)
        assert np.array_equal(ranks, ref_ranks)
        assert np.array_equal(unique, ref_unique)
        assert unique.dtype == ref_unique.dtype
        assert np.array_equal(inverse, ref_inverse)


class TestNthSetColumns:
    def test_picks_kth_free_slot_per_row(self):
        mask = np.array([[False, True, True, False, True],
                         [True, False, False, False, True]])
        rows = np.array([0, 0, 0, 1, 1])
        nth = np.array([0, 2, 1, 1, 0])
        assert nth_set_columns(mask, rows, nth).tolist() == [1, 4, 2, 4, 0]

    @given(st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
                    min_size=1, max_size=20), st.randoms())
    @settings(max_examples=100)
    def test_matches_running_count(self, mask_rows, rnd):
        mask = np.asarray(mask_rows, dtype=bool)
        rows, nth = [], []
        for r, row in enumerate(mask_rows):
            for k in range(sum(row)):
                if rnd.random() < 0.6:
                    rows.append(r)
                    nth.append(k)
        rows = np.asarray(rows, dtype=np.int64)
        nth = np.asarray(nth, dtype=np.int64)
        expected = [int(np.flatnonzero(mask[r])[k]) for r, k in zip(rows, nth)]
        assert nth_set_columns(mask, rows, nth).tolist() == expected


class TestGroupCounts:
    def test_counts(self):
        counts = group_counts(np.array([0, 2, 2, 4]), num_groups=5)
        assert counts.tolist() == [1, 0, 2, 0, 1]

    def test_empty(self):
        assert group_counts(np.array([], dtype=np.int64), 3).tolist() == [0, 0, 0]


class TestOccurrenceMasks:
    def test_first_occurrence(self):
        mask = first_occurrence_mask(np.array([7, 7, 3, 7, 3]))
        assert mask.tolist() == [True, False, True, False, False]

    def test_last_occurrence(self):
        mask = last_occurrence_mask(np.array([7, 7, 3, 7, 3]))
        assert mask.tolist() == [False, False, False, True, True]

    def test_all_unique(self):
        keys = np.array([1, 2, 3])
        assert first_occurrence_mask(keys).all()
        assert last_occurrence_mask(keys).all()

    @given(st.lists(st.integers(min_value=0, max_value=10), max_size=100))
    @settings(max_examples=100)
    def test_masks_select_each_key_once(self, key_list):
        keys = np.asarray(key_list, dtype=np.uint64)
        for mask_fn in (first_occurrence_mask, last_occurrence_mask):
            mask = mask_fn(keys)
            selected = keys[mask]
            assert len(selected) == len(np.unique(keys))
            assert set(selected.tolist()) == set(key_list)
