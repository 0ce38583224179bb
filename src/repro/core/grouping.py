"""Vectorized group-by helpers shared by table implementations.

Batched hash-table kernels repeatedly need *rank within group*: when
several operations in one device round target the same bucket, the k-th
of them may claim the k-th free slot, and only the first may evict.  On a
GPU the warp vote produces this ordering; in the vectorized simulation we
recover it with a stable argsort.
"""

from __future__ import annotations

import numpy as np


def rank_within_group(group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank each element among elements sharing its ``group_id``.

    Returns
    -------
    ranks:
        ``ranks[i]`` is the 0-based position of element ``i`` among all
        elements with the same ``group_ids[i]``, in stable input order.
    unique_groups:
        Sorted unique group ids.
    inverse:
        Index into ``unique_groups`` for each element.
    """
    group_ids = np.asarray(group_ids)
    n = len(group_ids)
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    starts_run = np.empty(n, dtype=bool)
    starts_run[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=starts_run[1:])
    run_starts = np.flatnonzero(starts_run)
    # Group index of every sorted element, then its offset in its run.
    group_sorted = np.cumsum(starts_run) - 1
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n) - run_starts[group_sorted]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = group_sorted
    return ranks, sorted_ids[run_starts], inverse


def nth_set_columns(mask: np.ndarray, rows: np.ndarray,
                    nth: np.ndarray) -> np.ndarray:
    """Column of the ``nth[i]``-th set entry of ``mask[rows[i]]``.

    The slot-claiming step of a placement round: ``mask`` holds one
    free-slot row per distinct bucket and the k-th contender for a
    bucket takes its k-th free slot (counting from the left, 0-based).
    Every ``nth[i]`` must be below that row's count of set entries.
    Works from the set positions of ``mask`` itself, so memory stays
    ``O(mask.size + len(rows))`` however many contenders share a row.
    """
    counts = np.count_nonzero(mask, axis=1)
    row_start = np.cumsum(counts) - counts
    flat = np.flatnonzero(mask)
    return flat[row_start[rows] + nth] - rows * mask.shape[1]


def group_counts(group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    """Count occurrences of each id in ``[0, num_groups)``."""
    return np.bincount(np.asarray(group_ids, dtype=np.int64),
                       minlength=num_groups)


def first_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Mask selecting the first occurrence of each distinct key, in order."""
    keys = np.asarray(keys)
    _, first_idx = np.unique(keys, return_index=True)
    mask = np.zeros(len(keys), dtype=bool)
    mask[first_idx] = True
    return mask


def last_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Mask selecting the last occurrence of each distinct key.

    Batched upserts use *last-writer-wins* semantics for duplicate keys
    inside one batch, matching the deterministic replay of the paper's
    batched execution model.
    """
    keys = np.asarray(keys)
    reversed_keys = keys[::-1]
    _, first_idx_rev = np.unique(reversed_keys, return_index=True)
    mask = np.zeros(len(keys), dtype=bool)
    mask[len(keys) - 1 - first_idx_rev] = True
    return mask
