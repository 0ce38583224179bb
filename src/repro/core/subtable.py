"""Bucketized subtable storage (Figure 2 of the paper).

A subtable is a dense array of buckets.  Each bucket holds
``bucket_capacity`` key slots stored consecutively (one 128-byte cache
line for 32 four-byte keys) plus a parallel value array, so a warp reads
a whole bucket in a single coalesced transaction.  Keys and values live
in *separate* arrays ("structure of arrays"), which lets find/delete
avoid touching values entirely — exactly the layout argument of
Section IV-A.

The empty-slot sentinel is key code ``0``; the owning table encodes user
keys as ``key + 1`` so the full ``uint64`` user domain minus one value is
supported.

All methods are vectorized over arrays of bucket indices.  The subtable
knows nothing about hashing or the two-layer scheme: it only moves codes
in and out of slots.  Device-cost accounting (transactions, locks) is the
caller's job.
"""

from __future__ import annotations

import numpy as np

from repro.core.grouping import nth_set_columns, rank_within_group
from repro.errors import InvalidConfigError

#: Key code marking an empty slot.
EMPTY = np.uint64(0)


class MigrationState:
    """Dual-view bookkeeping for one in-flight incremental resize epoch.

    While a subtable is mid-migration its *logical* geometry
    (``Subtable.n_buckets``) is already the post-resize one, but entries
    of not-yet-migrated bucket pairs still sit at their pre-resize
    bucket.  Because bucket indices are low hash bits, the pre- and
    post-resize buckets of a key differ only in one masked bit, and both
    are addressed by the key's *pair index* ``raw % min(old_n, new_n)``:

    * upsize ``old_n -> 2*old_n``: pair ``s`` covers buckets ``s`` (old
      view) and ``{s, s + old_n}`` (new view);
    * downsize ``old_n -> old_n/2``: pair ``s`` covers buckets
      ``{s, s + new_n}`` (old view) and ``s`` (new view).

    ``migrated[s]`` says which view pair ``s`` currently lives in, so
    :meth:`effective_buckets` resolves any key to the single bucket it
    can occupy — the epoch check that preserves the paper's two-bucket
    FIND/DELETE guarantee at the cost of one extra masked index
    computation.
    """

    __slots__ = ("kind", "old_n", "new_n", "migrated", "pending")

    def __init__(self, kind: str, old_n: int, new_n: int) -> None:
        if kind not in ("upsize", "downsize"):
            raise InvalidConfigError(f"unknown migration kind {kind!r}")
        self.kind = kind
        self.old_n = old_n
        self.new_n = new_n
        pairs = min(old_n, new_n)
        #: Which bucket pairs have moved to the new view.
        self.migrated = np.zeros(pairs, dtype=bool)
        #: Count of pairs still in the old view.
        self.pending = pairs

    @property
    def num_pairs(self) -> int:
        return len(self.migrated)

    @property
    def complete(self) -> bool:
        return self.pending == 0

    def pair_of(self, buckets: np.ndarray) -> np.ndarray:
        """Pair index for bucket indices of *either* view."""
        return (np.asarray(buckets, dtype=np.int64)
                & np.int64(self.num_pairs - 1))

    def effective_buckets(self, raw: np.ndarray) -> np.ndarray:
        """Resolve raw hashes to each key's current (per-pair) bucket."""
        raw = np.asarray(raw, dtype=np.uint64)
        pair = (raw & np.uint64(self.num_pairs - 1)).astype(np.int64)
        mask = np.where(self.migrated[pair],
                        np.uint64(self.new_n - 1), np.uint64(self.old_n - 1))
        return (raw & mask).astype(np.int64)

    def copy(self) -> "MigrationState":
        clone = MigrationState(self.kind, self.old_n, self.new_n)
        clone.migrated = self.migrated.copy()
        clone.pending = self.pending
        return clone


class Subtable:
    """One cuckoo subtable: ``n_buckets`` buckets of fixed capacity."""

    def __init__(self, n_buckets: int, bucket_capacity: int) -> None:
        if n_buckets <= 0 or n_buckets & (n_buckets - 1):
            raise InvalidConfigError(
                f"n_buckets must be a positive power of two, got {n_buckets}"
            )
        if bucket_capacity < 1:
            raise InvalidConfigError(
                f"bucket_capacity must be >= 1, got {bucket_capacity}"
            )
        self.n_buckets = n_buckets
        self.bucket_capacity = bucket_capacity
        self.keys = np.zeros((n_buckets, bucket_capacity), dtype=np.uint64)
        self.values = np.zeros((n_buckets, bucket_capacity), dtype=np.uint64)
        #: Number of live (non-empty) slots.
        self.size = 0
        #: Open incremental-resize epoch, or ``None`` (the common case).
        #: While set, ``n_buckets`` is the *logical* (post-resize)
        #: geometry; the physical arrays hold ``max(old_n, new_n)`` rows.
        self.migration: MigrationState | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def total_slots(self) -> int:
        """Total key slots allocated in this subtable."""
        return self.n_buckets * self.bucket_capacity

    @property
    def filled_factor(self) -> float:
        """Live entries over allocated slots."""
        return self.size / self.total_slots if self.total_slots else 0.0

    @property
    def slot_bytes(self) -> int:
        """Bytes of key+value storage (8 bytes each)."""
        return self.keys.nbytes + self.values.nbytes

    def export_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(codes, values, bucket_indices)`` of all live entries."""
        occupied = self.keys != EMPTY
        bucket_idx, _slot_idx = np.nonzero(occupied)
        return (self.keys[occupied].copy(),
                self.values[occupied].copy(),
                bucket_idx.astype(np.int64))

    def validate(self) -> None:
        """Assert internal consistency (used by tests)."""
        live = int(np.count_nonzero(self.keys != EMPTY))
        if live != self.size:
            raise AssertionError(
                f"size counter {self.size} != live slots {live}"
            )

    # ------------------------------------------------------------------
    # Read-only operations
    # ------------------------------------------------------------------

    def lookup(self, buckets: np.ndarray, codes: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Probe ``codes`` in their ``buckets``.

        Returns ``(found, values)``; ``values`` is meaningful only where
        ``found`` is True.
        """
        buckets = np.asarray(buckets, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.uint64)
        if len(buckets) == 0:
            return (np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint64))
        bucket_keys = self.keys[buckets]                      # (n, cap)
        match = bucket_keys == codes[:, None]
        found = match.any(axis=1)
        slots = match.argmax(axis=1)
        values = self.values[buckets, slots]
        return found, values

    def contains(self, buckets: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Membership-only variant of :meth:`lookup` (no value gather)."""
        buckets = np.asarray(buckets, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.uint64)
        if len(buckets) == 0:
            return np.zeros(0, dtype=bool)
        return (self.keys[buckets] == codes[:, None]).any(axis=1)

    # ------------------------------------------------------------------
    # Mutating operations
    # ------------------------------------------------------------------

    def update_existing(self, buckets: np.ndarray, codes: np.ndarray,
                        values: np.ndarray) -> np.ndarray:
        """Overwrite values of codes already present; return updated mask."""
        buckets = np.asarray(buckets, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        if len(buckets) == 0:
            return np.zeros(0, dtype=bool)
        bucket_keys = self.keys[buckets]
        match = bucket_keys == codes[:, None]
        found = match.any(axis=1)
        slots = match.argmax(axis=1)
        self.values[buckets[found], slots[found]] = values[found]
        return found

    def erase(self, buckets: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Remove matching codes from their buckets; return erased mask.

        Duplicate ``(bucket, code)`` rows in one call all report
        ``True`` but clear (and count) the underlying slot exactly once,
        so ``size`` stays consistent for callers that do not pre-dedupe
        the way :meth:`DyCuckooTable._delete_batch` does.
        """
        buckets = np.asarray(buckets, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.uint64)
        if len(buckets) == 0:
            return np.zeros(0, dtype=bool)
        bucket_keys = self.keys[buckets]
        match = bucket_keys == codes[:, None]
        found = match.any(axis=1)
        slots = match.argmax(axis=1)
        # Dedupe physical slots: the same (bucket, slot) may be matched
        # by several input rows, but it holds only one live entry.
        flat_slots = buckets[found] * self.bucket_capacity + slots[found]
        self.keys[buckets[found], slots[found]] = EMPTY
        self.size -= int(np.unique(flat_slots).size)
        return found

    def place_round(self, buckets: np.ndarray, codes: np.ndarray,
                    values: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One synchronous placement round into this subtable.

        Implements the slot-claiming step of a device round: operations
        targeting the same bucket are ranked (the warp-vote order); the
        k-th claims the k-th free slot.  Codes must be distinct.

        Returns
        -------
        updated:
            Mask of codes that already existed and had their value
            overwritten.
        placed:
            Mask of codes written into a free slot.
        full_leader:
            Mask of codes that found their bucket completely full *and*
            rank first for it — these are the eviction candidates.  Codes
            in none of the three masks must retry next round (their
            bucket was full, or became full, and another op leads it).
        """
        buckets = np.asarray(buckets, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        n = len(buckets)
        if n == 0:
            zeros = np.zeros(0, dtype=bool)
            return zeros, zeros.copy(), zeros.copy()

        updated = self.update_existing(buckets, codes, values)
        placed = np.zeros(n, dtype=bool)
        full_leader = np.zeros(n, dtype=bool)

        rest = np.flatnonzero(~updated)
        if len(rest) == 0:
            return updated, placed, full_leader

        rest_buckets = buckets[rest]
        ranks, unique_buckets, inverse = rank_within_group(rest_buckets)
        free_mask = self.keys[unique_buckets] == EMPTY        # (u, cap)
        free_counts = free_mask.sum(axis=1)

        can_place = ranks < free_counts[inverse]
        if np.any(can_place):
            items = rest[can_place]
            # The rank-th contender claims the bucket's rank-th free slot.
            slots = nth_set_columns(free_mask, inverse[can_place],
                                    ranks[can_place])
            self.fill_slots(buckets[items], slots, codes[items],
                            values[items])
            placed[items] = True

        bucket_full = free_counts[inverse] == 0
        leader = bucket_full & (ranks == 0)
        full_leader[rest[leader]] = True
        return updated, placed, full_leader

    def fill_slots(self, buckets: np.ndarray, slots: np.ndarray,
                   codes: np.ndarray, values: np.ndarray) -> None:
        """Write new entries into free ``(bucket, slot)`` positions.

        The caller has picked distinct slots that are empty (a
        placement round's claims); the live count grows by one each.
        """
        self.keys[buckets, slots] = codes
        self.values[buckets, slots] = values
        self.size += len(codes)

    def swap_slot(self, buckets: np.ndarray, slots: np.ndarray,
                  codes: np.ndarray, values: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Replace occupants at ``(bucket, slot)`` with new entries.

        Used for cuckoo evictions: the displaced ``(code, value)`` pairs
        are returned so the caller can reinsert them elsewhere.  Net live
        count is unchanged.
        """
        buckets = np.asarray(buckets, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        old_codes = self.keys[buckets, slots].copy()
        old_values = self.values[buckets, slots].copy()
        self.keys[buckets, slots] = np.asarray(codes, dtype=np.uint64)
        self.values[buckets, slots] = np.asarray(values, dtype=np.uint64)
        return old_codes, old_values

    def bucket_keys(self, buckets: np.ndarray) -> np.ndarray:
        """Gather the ``(n, capacity)`` key matrix for ``buckets``."""
        return self.keys[np.asarray(buckets, dtype=np.int64)]

    # ------------------------------------------------------------------
    # Incremental-resize epochs (dual-view storage)
    # ------------------------------------------------------------------

    def begin_upsize_epoch(self) -> MigrationState:
        """Open a doubling epoch: new geometry now, entries migrate later.

        The physical arrays grow to ``2 * old_n`` rows with the existing
        buckets in the lower half, so every old-view bucket keeps its
        index and the upper half starts empty.  (On device this models
        allocating the upper half next to the existing buckets — no
        entry moves yet, which is the whole point.)
        """
        if self.migration is not None:
            raise InvalidConfigError("subtable already has an open epoch")
        old_n = self.n_buckets
        new_n = old_n * 2
        grown_keys = np.zeros((new_n, self.bucket_capacity), dtype=np.uint64)
        grown_values = np.zeros((new_n, self.bucket_capacity),
                                dtype=np.uint64)
        grown_keys[:old_n] = self.keys
        grown_values[:old_n] = self.values
        self.keys = grown_keys
        self.values = grown_values
        self.n_buckets = new_n
        self.migration = MigrationState("upsize", old_n, new_n)
        return self.migration

    def begin_downsize_epoch(self) -> MigrationState:
        """Open a halving epoch: logical geometry halves, storage stays.

        The physical arrays keep their ``old_n`` rows until every upper
        bucket has merged down; :meth:`finish_migration` releases them.
        """
        if self.migration is not None:
            raise InvalidConfigError("subtable already has an open epoch")
        old_n = self.n_buckets
        new_n = old_n // 2
        if new_n < 1:
            raise InvalidConfigError("cannot downsize a one-bucket subtable")
        self.n_buckets = new_n
        self.migration = MigrationState("downsize", old_n, new_n)
        return self.migration

    def finish_migration(self) -> None:
        """Close a completed epoch, releasing any surplus physical rows."""
        mig = self.migration
        if mig is None:
            return
        if mig.pending:
            raise InvalidConfigError(
                f"epoch still has {mig.pending} unmigrated pairs")
        if mig.kind == "downsize":
            self.keys = self.keys[:mig.new_n].copy()
            self.values = self.values[:mig.new_n].copy()
        self.migration = None

    # ------------------------------------------------------------------
    # Bulk rebuild (resize support)
    # ------------------------------------------------------------------

    def rebuild(self, n_buckets: int, codes: np.ndarray, values: np.ndarray,
                buckets: np.ndarray) -> None:
        """Replace all storage, placing each entry in its assigned bucket.

        Entries assigned to one bucket are packed into slots
        ``0..count-1``.  The caller guarantees no bucket receives more
        than ``bucket_capacity`` entries.
        """
        if n_buckets <= 0 or n_buckets & (n_buckets - 1):
            raise InvalidConfigError(
                f"n_buckets must be a positive power of two, got {n_buckets}"
            )
        codes = np.asarray(codes, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        buckets = np.asarray(buckets, dtype=np.int64)
        ranks, _, _ = rank_within_group(buckets)
        if len(ranks) and int(ranks.max()) >= self.bucket_capacity:
            raise InvalidConfigError(
                "rebuild received more entries than capacity for a bucket"
            )
        self.n_buckets = n_buckets
        self.keys = np.zeros((n_buckets, self.bucket_capacity), dtype=np.uint64)
        self.values = np.zeros((n_buckets, self.bucket_capacity), dtype=np.uint64)
        self.keys[buckets, ranks] = codes
        self.values[buckets, ranks] = values
        self.size = len(codes)
        self.migration = None
