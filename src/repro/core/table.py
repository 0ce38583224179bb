"""DyCuckoo: the two-layer dynamic cuckoo hash table (Sections IV and V).

The table keeps ``d`` bucketized subtables.  A key is first hashed to one
of the ``C(d, 2)`` subtable *pairs* (layer one) and then lives in exactly
one bucket of one subtable of that pair (layer two).  Consequences:

* ``find`` and ``delete`` touch at most **two** buckets, independent of
  ``d`` (Section V-A);
* ``insert`` may evict occupants along a cuckoo chain that can wander
  through *any* subtable, preserving the flexibility — and the amortized
  O(1) bound, Theorem 2 — of a ``d``-table cuckoo hash;
* resizing doubles/halves a *single* subtable (Section IV-B), so at most
  ``m / d`` entries move per resize and the other subtables stay online.

Execution is *round-synchronous*, mirroring the device-wide bulk steps of
the GPU kernels: each insert round, every pending operation attempts its
current bucket; winners place or evict; losers retry next round.  All
heavy lifting is vectorized with numpy, and every round increments the
event counters consumed by the GPU cost model.

Batched semantics follow the paper (Section V-B): each public call takes
a whole batch of one operation type.  ``insert`` is an upsert; duplicate
keys within one batch resolve to the *last* occurrence.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DyCuckooConfig
from repro.core.distribution import make_router, theorem1_weights
from repro.core.grouping import (first_occurrence_mask, last_occurrence_mask,
                                 nth_set_columns, rank_within_group)
from repro.core.hashing import PairHash, UniversalHash, make_table_hashes
from repro.core.resize import ResizeController
from repro.core.stash import Stash
from repro.core.stats import MemoryFootprint, TableStats
from repro.core.subtable import EMPTY, Subtable
from repro.errors import (CapacityError, InvalidKeyError, ResizeError,
                          StashOverflowError)
from repro.faults import NO_FAULTS, FaultPlan
from repro.gpusim.kernel import estimate_lock_conflicts
from repro.sanitizer import NULL_SANITIZER, Sanitizer
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.profiler import NULL_PROFILER, Profiler
from repro.telemetry.recorder import NULL_RECORDER, FlightRecorder

#: Bucket upper bounds for the cuckoo-chain-depth histogram (evictions a
#: key's placement chain went through before settling).
CHAIN_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Bucket upper bounds for the per-round lock-conflict histogram.
RETRY_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Low bits of a lock id ``(subtable << 40) | bucket`` holding the bucket.
_BUCKET_BITS = np.int64((1 << 40) - 1)

#: Largest user key; ``2**64 - 1`` is unrepresentable because the
#: internal code space reserves 0 for empty slots.
MAX_KEY = (1 << 64) - 2


def _subtable_runs(ids: np.ndarray, num_ids: int
                   ) -> tuple[np.ndarray, list[int]]:
    """Stable order grouping ``ids`` (small non-negative ints) by value.

    Returns the order and the run boundaries: items with id ``t`` sit at
    ``order[runs[t]:runs[t + 1]]``, in their input order.  Small ids
    sort as narrow integers, which numpy radix-sorts in linear time.
    """
    order = np.argsort(ids.astype(np.min_scalar_type(num_ids)),
                       kind="stable")
    runs = np.bincount(ids, minlength=num_ids).cumsum().tolist()
    return order, [0] + runs


def encode_keys(keys) -> np.ndarray:
    """Map user keys to internal nonzero codes (``key + 1``)."""
    codes = np.asarray(keys, dtype=np.uint64)
    if codes.ndim != 1:
        raise InvalidKeyError(f"keys must be one-dimensional, got shape {codes.shape}")
    if len(codes) and bool(np.any(codes == np.uint64(MAX_KEY + 1))):
        raise InvalidKeyError(f"keys must be <= {MAX_KEY}")
    return codes + np.uint64(1)


def decode_keys(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_keys`."""
    return np.asarray(codes, dtype=np.uint64) - np.uint64(1)


class DyCuckooTable:
    """Dynamic two-layer cuckoo hash table mapping uint64 -> uint64.

    Parameters
    ----------
    config:
        A :class:`repro.core.config.DyCuckooConfig`; defaults match the
        paper's defaults (d=4, 32-slot buckets, alpha=30%, beta=85%).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DyCuckooTable
    >>> table = DyCuckooTable()
    >>> table.insert(np.arange(100, dtype=np.uint64),
    ...              np.arange(100, dtype=np.uint64) * 2)
    >>> values, found = table.find(np.array([3, 999], dtype=np.uint64))
    >>> bool(found[0]), bool(found[1]), int(values[0])
    (True, False, 6)
    """

    def __init__(self, config: DyCuckooConfig | None = None) -> None:
        self.config = config or DyCuckooConfig()
        rng = np.random.default_rng(self.config.seed)
        self.pair_hash = PairHash(self.config.num_tables, rng)
        self.table_hashes = make_table_hashes(self.config.num_tables, rng)
        self.subtables = [
            Subtable(self.config.initial_buckets, self.config.bucket_capacity)
            for _ in range(self.config.num_tables)
        ]
        self.stats = TableStats()
        self._router = make_router(self.config.routing, self.config.seed ^ 0xA5A5)
        self._resizer = ResizeController(self)
        self._victim_counter = 0
        #: Observability hooks; the null default makes every gate a
        #: single attribute check (see :mod:`repro.telemetry`).
        self.telemetry = NULL_TELEMETRY
        #: Fault-injection hooks; same gating discipline as telemetry.
        self.faults = NO_FAULTS
        #: SIMT sanitizer hooks; same gating discipline as telemetry.
        self.sanitizer = NULL_SANITIZER
        #: Deep kernel profiler; same gating discipline as telemetry.
        self.profiler = NULL_PROFILER
        #: Flight recorder (post-mortem ring); same gating discipline.
        self.recorder = NULL_RECORDER
        #: Bounded overflow stash (the CUDA reference's error table);
        #: empty in every fault-free run.
        self.stash = Stash(self.config.stash_capacity)
        self._draining = False
        #: Resize epoch (upsizes + downsizes) of the last drain attempt;
        #: bounds retries to one per completed resize.
        self._drain_epoch = -1

    def set_fault_plan(self, plan: FaultPlan | None) -> FaultPlan:
        """Attach a fault-injection plan (``None`` detaches); returns it.

        With the default :data:`repro.faults.NO_FAULTS` attached the
        table's behaviour is bit-identical to a build without the fault
        layer: every hook is a single attribute check and the stash
        stays empty.
        """
        self.faults = plan if plan is not None else NO_FAULTS
        if self.recorder.enabled and self.faults.enabled:
            self.faults.recorder = self.recorder
        return self.faults

    def set_telemetry(self, telemetry: Telemetry | None) -> Telemetry:
        """Attach a telemetry handle (``None`` detaches); returns it.

        All spans, instants, and metric updates flow into the attached
        handle's tracer and registry from then on.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        return self.telemetry

    def set_sanitizer(self, sanitizer: Sanitizer | None) -> Sanitizer:
        """Attach a SIMT sanitizer (``None`` detaches); returns it.

        While attached, the kernel engines log lock operations and
        bucket accesses into it and the resize controller brackets its
        subtable locks (see :mod:`repro.sanitizer`).  The null default
        keeps every hook a single attribute check.
        """
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        if self.recorder.enabled and self.sanitizer.enabled:
            self.sanitizer.recorder = self.recorder
        # The stash reports occupancy into memcheck's stash-overflow
        # check; detaching restores the null default.
        self.stash.sanitizer = self.sanitizer
        return self.sanitizer

    def set_profiler(self, profiler: Profiler | None) -> Profiler:
        """Attach a deep kernel profiler (``None`` detaches); returns it.

        While attached, the kernel engines feed it per-round occupancy
        snapshots, lock grant/conflict events, probe-length and
        eviction-chain-depth observations, and the resize controller
        samples fill factors into it (see
        :mod:`repro.telemetry.profiler`).  The null default keeps every
        hook a single attribute check.
        """
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        return self.profiler

    def set_recorder(self, recorder: FlightRecorder | None) -> FlightRecorder:
        """Attach a flight recorder (``None`` detaches); returns it.

        The recorder keeps a bounded ring of recent events and dumps a
        post-mortem bundle (ring + profiler snapshot + table state) when
        a fault fires, a sanitizer violation is raised, or
        :func:`repro.core.analysis.check_invariants` fails.  Attaching
        also wires the table's current fault plan and sanitizer (if
        enabled) to trip it.
        """
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled:
            self.recorder.attach(self)
            # Never mutate the shared NO_FAULTS / NULL_SANITIZER
            # singletons — that would leak the recorder globally.
            if self.faults.enabled:
                self.faults.recorder = self.recorder
            if self.sanitizer.enabled:
                self.sanitizer.recorder = self.recorder
        else:
            if self.faults.enabled:
                self.faults.recorder = NULL_RECORDER
            if self.sanitizer.enabled:
                self.sanitizer.recorder = NULL_RECORDER
        return self.recorder

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(st.size for st in self.subtables) + len(self.stash)

    @property
    def num_tables(self) -> int:
        """Number of subtables ``d``."""
        return self.config.num_tables

    @property
    def total_slots(self) -> int:
        """Allocated key slots across all subtables."""
        return sum(st.total_slots for st in self.subtables)

    @property
    def load_factor(self) -> float:
        """Global filled factor ``theta`` (live entries / allocated slots)."""
        slots = self.total_slots
        return len(self) / slots if slots else 0.0

    @property
    def subtable_load_factors(self) -> list[float]:
        """Per-subtable filled factors ``theta_i``."""
        return [st.filled_factor for st in self.subtables]

    def subtable_sizes(self) -> np.ndarray:
        """Slot counts ``n_i`` per subtable."""
        return np.asarray([st.total_slots for st in self.subtables],
                          dtype=np.int64)

    def subtable_loads(self) -> np.ndarray:
        """Live entry counts ``m_i`` per subtable."""
        return np.asarray([st.size for st in self.subtables], dtype=np.int64)

    def memory_footprint(self) -> MemoryFootprint:
        """Current device-memory accounting (one lock word per bucket)."""
        lock_bytes = 4 * sum(st.n_buckets for st in self.subtables)
        return MemoryFootprint(
            total_slots=self.total_slots,
            live_entries=len(self),
            slot_bytes=sum(st.slot_bytes for st in self.subtables),
            overhead_bytes=lock_bytes,
        )

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Return all live ``(keys, values)`` (unspecified order).

        Includes entries currently parked in the overflow stash.
        """
        exports = [st.export_entries()[:2] for st in self.subtables]
        if len(self.stash):
            exports.append(self.stash.export_entries())
        all_codes = (np.concatenate([e[0] for e in exports]) if exports
                     else np.zeros(0, dtype=np.uint64))
        all_values = (np.concatenate([e[1] for e in exports]) if exports
                      else np.zeros(0, dtype=np.uint64))
        return decode_keys(all_codes), all_values

    def keys(self) -> np.ndarray:
        """All live keys (unspecified order)."""
        return self.items()[0]

    def values(self) -> np.ndarray:
        """All live values, aligned with :meth:`keys`."""
        return self.items()[1]

    def to_dict(self) -> dict[int, int]:
        """Materialize the table as a plain Python dict."""
        out_keys, out_values = self.items()
        return {int(k): int(v) for k, v in zip(out_keys, out_values)}

    def __contains__(self, key: int) -> bool:
        return bool(self.contains(np.asarray([key], dtype=np.uint64))[0])

    def clear(self) -> None:
        """Remove every entry and shrink storage back to the initial size."""
        self.subtables = [
            Subtable(self.config.initial_buckets, self.config.bucket_capacity)
            for _ in range(self.config.num_tables)
        ]
        self.stash = Stash(self.config.stash_capacity)
        self._drain_epoch = -1

    def copy(self) -> "DyCuckooTable":
        """Deep copy: same hash functions, independent storage."""
        import copy as _copy

        clone = DyCuckooTable(self.config)
        clone.pair_hash = _copy.deepcopy(self.pair_hash)
        clone.table_hashes = _copy.deepcopy(self.table_hashes)
        for src, dst in zip(self.subtables, clone.subtables):
            dst.n_buckets = src.n_buckets
            dst.keys = src.keys.copy()
            dst.values = src.values.copy()
            dst.size = src.size
            dst.migration = (src.migration.copy()
                             if src.migration is not None else None)
        clone.stash = self.stash.copy()
        clone._victim_counter = self._victim_counter
        return clone

    @classmethod
    def from_items(cls, keys, values,
                   config: DyCuckooConfig | None = None) -> "DyCuckooTable":
        """Build a table pre-sized for ``keys`` and bulk-insert them."""
        keys = np.asarray(keys, dtype=np.uint64)
        base = config or DyCuckooConfig()
        table = cls(base.sized_for(len(np.unique(keys))))
        table.insert(keys, values)
        return table

    def merge_from(self, other: "DyCuckooTable") -> None:
        """Upsert every entry of ``other`` into this table.

        On key collisions ``other``'s value wins (merge = bulk upsert).
        """
        other_keys, other_values = other.items()
        if len(other_keys):
            self.insert(other_keys, other_values)

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on bugs.

        Verified invariants: per-subtable live counts, no duplicate key
        across subtables (or between a subtable and the stash), every
        entry stored in a subtable of its pair and in its hashed bucket,
        the 2x size discipline between subtables, and the stash capacity
        bound.  Delegates to
        :func:`repro.core.analysis.check_invariants`.
        """
        from repro.core.analysis import check_invariants

        check_invariants(self, check_fill=False)

    # ------------------------------------------------------------------
    # Public batched operations
    # ------------------------------------------------------------------

    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Look up a batch of keys.

        Returns ``(values, found)``; ``values[i]`` is meaningful only
        where ``found[i]``.  Each lookup reads at most two buckets.
        """
        if self.telemetry.enabled:
            with self.telemetry.tracer.span("find", "op",
                                            n=int(np.size(keys))):
                return self._find_batch(keys)
        return self._find_batch(keys)

    def _find_batch(self, keys) -> tuple[np.ndarray, np.ndarray]:
        return self._find_encoded(encode_keys(keys))

    def _find_encoded(self, codes: np.ndarray, first=None, second=None,
                      raw_of=None) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`find` body over pre-encoded codes.

        ``first``/``second``/``raw_of`` optionally carry precomputed
        pair-hash targets and per-subtable raw hashes (aligned to
        ``codes``; see :class:`repro.core.batch_ops.EncodedBatch`).
        Hash hoisting only — stats and telemetry are byte-identical to
        the unhinted path.
        """
        n = len(codes)
        self.stats.finds += n
        values = np.zeros(n, dtype=np.uint64)
        found = np.zeros(n, dtype=bool)
        if n == 0:
            return values, found
        if first is None or second is None:
            first, second = self.pair_hash.tables_for(codes)
        self._probe(codes, first, np.arange(n), values, found,
                    raw_of=raw_of)
        missing = np.flatnonzero(~found)
        if len(missing):
            self.stats.chain_hops += len(missing)
            self._probe(codes[missing], second[missing], missing, values,
                        found, raw_of=raw_of)
        if len(self.stash):
            still_missing = np.flatnonzero(~found)
            if len(still_missing):
                stash_values, stash_found = self.stash.lookup(
                    codes[still_missing])
                dest = still_missing[stash_found]
                values[dest] = stash_values[stash_found]
                found[dest] = True
                self.stats.stash_hits += int(stash_found.sum())
        hits = int(found.sum())
        self.stats.find_hits += hits
        if self.telemetry.enabled:
            hist = self.telemetry.metrics.histogram("probe_length",
                                                    (1.0, 2.0))
            hist.observe_count(1.0, n - len(missing))
            hist.observe_count(2.0, len(missing))
            self.telemetry.metrics.counter("find.hits").inc(hits)
            self.telemetry.metrics.counter("find.misses").inc(n - hits)
        if self.config.auto_resize:
            self._drain_migration()
        return values, found

    def contains(self, keys) -> np.ndarray:
        """Membership test for a batch of keys."""
        _values, found = self.find(keys)
        return found

    def get(self, key: int, default: int | None = None):
        """Scalar convenience lookup; returns ``default`` when absent."""
        values, found = self.find(np.asarray([key], dtype=np.uint64))
        return int(values[0]) if bool(found[0]) else default

    def insert(self, keys, values) -> None:
        """Upsert a batch of key/value pairs.

        Existing keys are updated in place; fresh keys are routed per the
        Theorem-1 policy and inserted with cuckoo evictions.  If the
        filled factor then exceeds ``beta`` (or an insert exhausts its
        eviction budget), the table upsizes per Section IV-B.
        """
        if self.telemetry.enabled:
            with self.telemetry.tracer.span("insert", "op",
                                            n=int(np.size(keys))):
                return self._insert_batch(keys, values)
        return self._insert_batch(keys, values)

    def _insert_batch(self, keys, values) -> None:
        return self._insert_encoded(encode_keys(keys), values)

    def _insert_encoded(self, codes: np.ndarray, values, first=None,
                        second=None, raw_of=None) -> None:
        """:meth:`insert` body over pre-encoded, *un-deduplicated* codes.

        ``first``/``second``/``raw_of`` are aligned to ``codes`` (before
        the last-occurrence dedupe, which happens here).  Pure hash
        hoisting; stats and telemetry are byte-identical.
        """
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != codes.shape:
            raise InvalidKeyError(
                f"values shape {values.shape} != keys shape {codes.shape}"
            )
        self.stats.inserts += len(codes)
        if len(codes) == 0:
            return
        keep = last_occurrence_mask(codes)
        keep_idx = np.flatnonzero(keep)
        codes = codes[keep]
        values = values[keep]
        if first is not None and second is not None:
            first = first[keep]
            second = second[keep]
        else:
            first, second = self.pair_hash.tables_for(codes)

        updated = self._update_existing(codes, values, first, second,
                                        raw_of=raw_of, abs_idx=keep_idx)
        fresh = np.flatnonzero(~updated)
        self.stats.updates += int(updated.sum())
        if len(fresh):
            fresh_codes = codes[fresh]
            targets = self._router.choose(fresh_codes, first[fresh],
                                          second[fresh],
                                          self.subtable_sizes(),
                                          self.subtable_loads())
            self._insert_pending(fresh_codes, values[fresh], targets,
                                 excluded=None)
        if self.config.auto_resize:
            self._resizer.enforce_bounds()
            self._drain_migration()
        if len(self.stash):
            self._drain_stash()

    def delete(self, keys) -> np.ndarray:
        """Delete a batch of keys; returns a mask of keys actually removed.

        At most two bucket probes per key; deletion clears the slot
        physically (no tombstones), so the filled factor drops and may
        trigger a downsize.
        """
        if self.telemetry.enabled:
            with self.telemetry.tracer.span("delete", "op",
                                            n=int(np.size(keys))):
                return self._delete_batch(keys)
        return self._delete_batch(keys)

    def _delete_batch(self, keys) -> np.ndarray:
        return self._delete_encoded(encode_keys(keys))

    def _delete_encoded(self, all_codes: np.ndarray, first=None,
                        second=None, raw_of=None) -> np.ndarray:
        """:meth:`delete` body over pre-encoded codes.

        Hints are aligned to ``all_codes`` (before the first-occurrence
        dedupe).  Pure hash hoisting; stats are byte-identical.
        """
        n = len(all_codes)
        self.stats.deletes += n
        removed = np.zeros(n, dtype=bool)
        if n == 0:
            return removed
        # Duplicate keys in one delete batch: only the first occurrence
        # can observe (and clear) the entry.
        unique = first_occurrence_mask(all_codes)
        unique_idx = np.flatnonzero(unique)
        codes = all_codes[unique]
        removed_unique = np.zeros(len(codes), dtype=bool)
        if first is not None and second is not None:
            first = first[unique]
            second = second[unique]
        else:
            first, second = self.pair_hash.tables_for(codes)
        for pass_idx, targets in enumerate((first, second)):
            pending = np.flatnonzero(~removed_unique)
            if len(pending) == 0:
                break
            if pass_idx == 1:
                self.stats.chain_hops += len(pending)
            for t in range(self.num_tables):
                sel = pending[targets[pending] == t]
                if len(sel) == 0:
                    continue
                st = self.subtables[t]
                if raw_of is not None:
                    buckets = self.bucket_for(t, raw=raw_of(t)[unique_idx[sel]])
                else:
                    buckets = self.bucket_for(t, codes[sel])
                self.stats.bucket_reads += len(sel)
                erased = st.erase(buckets, codes[sel])
                self.stats.bucket_writes += int(erased.sum())
                removed_unique[sel[erased]] = True
        if len(self.stash):
            pending = np.flatnonzero(~removed_unique)
            if len(pending):
                erased = self.stash.erase(codes[pending])
                removed_unique[pending[erased]] = True
        removed[unique_idx] = removed_unique
        self.stats.delete_hits += int(removed_unique.sum())
        if self.config.auto_resize:
            self._resizer.enforce_bounds()
            self._drain_migration()
        if len(self.stash):
            self._drain_stash()
        return removed

    def execute_mixed(self, op_codes, keys, values=None,
                      engine: str | None = None):
        """Execute a mixed op batch; see
        :func:`repro.core.batch_ops.execute_mixed`.

        ``engine=None`` uses the vectorized host path; ``"warp"`` /
        ``"cohort"`` route every homogeneous run through the
        lane-faithful kernels (the table must then be pre-sized).
        """
        from repro.core.batch_ops import execute_mixed

        return execute_mixed(self, op_codes, keys, values, engine=engine)

    def upsize(self) -> None:
        """Manually double the smallest subtable (Section IV-D)."""
        self._resizer.upsize()
        if len(self.stash):
            self._drain_stash()

    def downsize(self) -> None:
        """Manually halve the largest subtable (Section IV-D)."""
        self._resizer.downsize()
        if len(self.stash):
            self._drain_stash()

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def bucket_for(self, t: int, codes: np.ndarray | None = None,
                   raw: np.ndarray | None = None) -> np.ndarray:
        """Bucket indices for ``codes`` in subtable ``t``, epoch-aware.

        The single bucket-resolution point for the host path and both
        kernel engines.  Outside a migration epoch this is the plain
        power-of-two mask; while subtable ``t`` is mid-migration it is
        the epoch check — one extra masked index computation routing
        each key to its pre- or post-resize bucket — so FIND/DELETE
        keep the paper's two-bucket guarantee throughout.  ``raw``
        (geometry-independent hashes) may be passed instead of
        ``codes`` to reuse :class:`~repro.core.batch_ops.EncodedBatch`
        caches.
        """
        st = self.subtables[t]
        h = self.table_hashes[t]
        mig = st.migration
        if mig is None:
            if raw is not None:
                return h.bucket_from_raw(raw, st.n_buckets)
            return h.bucket(codes, st.n_buckets)
        if raw is None:
            raw = h.raw(codes)
        return mig.effective_buckets(raw)

    def _drain_migration(self) -> int:
        """Batch-end hook: advance any open resize epoch by one slice."""
        return self._resizer.drain_migration()

    def finalize_resizes(self) -> int:
        """Complete any open migration epoch now; returns pairs moved.

        Needed before operations that assume settled geometry
        (persistence snapshots); harmless no-op otherwise.
        """
        return self._resizer.finalize_migration()

    def _probe(self, codes: np.ndarray, targets: np.ndarray,
               out_indices: np.ndarray, values: np.ndarray,
               found: np.ndarray, raw_of=None) -> None:
        """Look up ``codes`` in per-key subtables, writing results back.

        ``raw_of(t)``, when given, holds precomputed raw hashes for
        subtable ``t`` indexed by *absolute* position — which is exactly
        what ``out_indices`` maps local positions to.
        """
        for t in range(self.num_tables):
            sel = np.flatnonzero(targets == t)
            if len(sel) == 0:
                continue
            st = self.subtables[t]
            if raw_of is not None:
                buckets = self.bucket_for(t, raw=raw_of(t)[out_indices[sel]])
            else:
                buckets = self.bucket_for(t, codes[sel])
            self.stats.bucket_reads += len(sel)
            hit, vals = st.lookup(buckets, codes[sel])
            dest = out_indices[sel[hit]]
            values[dest] = vals[hit]
            found[dest] = True

    def _update_existing(self, codes: np.ndarray, values: np.ndarray,
                         first=None, second=None, raw_of=None,
                         abs_idx=None) -> np.ndarray:
        """Overwrite values of keys already stored; return updated mask.

        ``raw_of(t)`` is indexed by absolute batch position;
        ``abs_idx`` maps local positions in ``codes`` to those absolute
        positions (identity when omitted).
        """
        n = len(codes)
        updated = np.zeros(n, dtype=bool)
        if first is None or second is None:
            first, second = self.pair_hash.tables_for(codes)
        for pass_idx, targets in enumerate((first, second)):
            pending = np.flatnonzero(~updated)
            if len(pending) == 0:
                break
            if pass_idx == 1:
                self.stats.chain_hops += len(pending)
            for t in range(self.num_tables):
                sel = pending[targets[pending] == t]
                if len(sel) == 0:
                    continue
                st = self.subtables[t]
                if raw_of is not None:
                    src = sel if abs_idx is None else abs_idx[sel]
                    buckets = self.bucket_for(t, raw=raw_of(t)[src])
                else:
                    buckets = self.bucket_for(t, codes[sel])
                self.stats.bucket_reads += len(sel)
                upd = st.update_existing(buckets, codes[sel], values[sel])
                self.stats.bucket_writes += int(upd.sum())
                updated[sel[upd]] = True
        if len(self.stash):
            pending = np.flatnonzero(~updated)
            if len(pending):
                upd = self.stash.update(codes[pending], values[pending])
                updated[pending[upd]] = True
        return updated

    def _insert_pending(self, codes: np.ndarray, values: np.ndarray,
                        targets: np.ndarray, excluded: int | None,
                        stall_to_stash: bool = False) -> None:
        """Round-synchronous cuckoo insertion of fresh keys.

        ``targets[i]`` is the subtable each key currently attempts.  When
        ``excluded`` is set (downsize residual spill), eviction victims
        whose alternate is the excluded subtable are never chosen and the
        eviction budget exhaustion raises :class:`ResizeError` instead of
        upsizing — unless ``stall_to_stash`` is also set (migration-slice
        spill), in which case the pending keys are parked in the overflow
        stash so an incremental slice never unwinds table state.
        """
        codes = np.asarray(codes, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        targets = np.asarray(targets, dtype=np.int64)
        tel = self.telemetry
        traced = tel.enabled
        if traced:
            # Every insert call registers both histograms, even one that
            # runs no round, so the metrics snapshot always lists them.
            tel.metrics.histogram("cuckoo_chain_depth", CHAIN_DEPTH_BUCKETS)
            tel.metrics.histogram("atomic_retries", RETRY_BUCKETS)
        # Evictions a key's placement chain has gone through so far;
        # victims inherit their evictor's depth plus one.  The bookkeeping
        # serves both the metrics histogram and the deep profiler.
        depths = (np.zeros(len(codes), dtype=np.int64)
                  if traced or self.profiler.enabled else None)
        # Raw hashes travel with the keys: only victims are hashed again.
        raw = self._raw_hashes(codes, targets)
        rounds_since_progress = 0
        while len(codes):
            if self.faults.enabled:
                fault = self.faults.fire("insert.evict")
                if fault is not None:
                    if traced:
                        tel.tracer.instant("fault.inject", "fault",
                                           site=fault.site, index=fault.index,
                                           pending=len(codes))
                        tel.metrics.counter("faults.injected").inc()
                    if excluded is not None:
                        if stall_to_stash:
                            self._stash_pending(
                                codes, values,
                                reason="injected eviction-chain exhaustion "
                                       "during migration-slice spill")
                            return
                        raise ResizeError(
                            "injected eviction-chain exhaustion during "
                            "residual spill"
                        )
                    if not self.config.auto_resize:
                        self.stats.insert_failures += len(codes)
                        raise CapacityError(
                            f"insert failed for {len(codes)} keys: injected "
                            "eviction-chain exhaustion (auto_resize disabled)"
                        )
                    try:
                        self._resizer.upsize_for_insert_failure()
                    except ResizeError as exc:
                        # Upsize aborted while the chain is exhausted:
                        # park the pending keys in the stash.
                        self._stash_pending(codes, values, reason=str(exc))
                        return
            if excluded is None and self.config.auto_resize:
                # Section IV-B: keep theta under beta.  Upsizing before the
                # round (rather than after a long eviction stall) matches
                # the paper's insertion-failure trigger while avoiding
                # wasted eviction churn on a table that is simply full.
                while ((len(self) + len(codes)) / self.total_slots
                       > self.config.beta):
                    if traced:
                        tel.tracer.instant(
                            "resize.trigger", "resize", reason="beta_bound",
                            theta=self.load_factor, pending=len(codes))
                    try:
                        self._resizer.upsize_under_pressure()
                    except (ResizeError, CapacityError):
                        # Injected abort or slot ceiling: run the round
                        # over-full and let the stall path decide what to
                        # do next.
                        break
            self.stats.eviction_rounds += 1
            before_pending = len(codes)
            codes, values, targets, raw, depths, round_evictions = (
                self._eviction_round(codes, values, targets, raw, depths,
                                     excluded))
            if traced:
                tel.metrics.counter("eviction.rounds").inc()
                tel.metrics.counter("evictions").inc(round_evictions)
                tel.tracer.instant(
                    "evict.round", "insert", pending=before_pending,
                    evictions=round_evictions, carried=len(codes))

            if len(codes) >= before_pending:
                rounds_since_progress += 1
            else:
                rounds_since_progress = 0
            if rounds_since_progress >= self.config.max_eviction_rounds:
                if excluded is not None:
                    if stall_to_stash:
                        self._stash_pending(
                            codes, values,
                            reason="migration-slice spill stalled while the "
                                   "downsizing subtable is excluded")
                        return
                    raise ResizeError(
                        "residual spill stalled while a subtable is locked "
                        "for downsizing"
                    )
                if not self.config.auto_resize:
                    self.stats.insert_failures += len(codes)
                    raise CapacityError(
                        f"insert failed for {len(codes)} keys after "
                        f"{self.config.max_eviction_rounds} stalled rounds "
                        "(auto_resize disabled)"
                    )
                try:
                    self._resizer.upsize_for_insert_failure()
                except ResizeError as exc:
                    # The upsize that would have made room was aborted by
                    # an injected fault: degrade to the bounded stash
                    # (the CUDA reference's error table) instead of
                    # spinning further eviction rounds.
                    self._stash_pending(codes, values, reason=str(exc))
                    return
                rounds_since_progress = 0

    def _stash_pending(self, codes: np.ndarray, values: np.ndarray,
                       reason: str) -> None:
        """Park pending inserts in the overflow stash (degraded mode).

        Mirrors the CUDA reference's ``cg_error_handle``: keys whose
        eviction chain is exhausted while the upsize that would make
        room is unavailable are appended to a bounded error table
        rather than lost.  Overflowing the stash raises
        :class:`StashOverflowError` — the error of last resort.
        """
        absorbed = self.stash.push(codes, values)
        n_absorbed = int(absorbed.sum())
        self.stats.stash_pushes += n_absorbed
        if self.profiler.enabled:
            self.profiler.sample_stash(len(self.stash))
        if self.recorder.enabled:
            self.recorder.record("stash.push", n=n_absorbed,
                                 occupancy=len(self.stash), reason=reason)
        tel = self.telemetry
        if tel.enabled:
            tel.tracer.instant("stash.push", "stash", n=n_absorbed,
                               occupancy=len(self.stash), reason=reason)
            tel.metrics.counter("stash.pushes").inc(n_absorbed)
            tel.metrics.gauge("stash.occupancy").set(len(self.stash))
        overflow = len(codes) - n_absorbed
        if overflow:
            self.stats.insert_failures += overflow
            if tel.enabled:
                tel.tracer.instant("stash.overflow", "stash", dropped=overflow,
                                   capacity=self.stash.capacity)
                tel.metrics.counter("stash.overflows").inc(overflow)
            raise StashOverflowError(
                f"overflow stash full: {overflow} keys could not be parked "
                f"(stash_capacity={self.stash.capacity}); last resize "
                f"failure: {reason}"
            )

    def _drain_stash(self) -> int:
        """Retry stashed inserts through the normal path; return count.

        Bounded retry-with-revote: at most one drain attempt per resize
        *epoch* (total completed upsizes + downsizes), so a stash that
        cannot be emptied does not add per-batch retry churn.  The
        attempt is all-or-nothing with respect to key survival — on a
        hard :class:`CapacityError` mid-drain the table and stash are
        rolled back from a snapshot and the table stays in degraded
        mode.
        """
        if self._draining or not len(self.stash):
            return 0
        epoch = self.stats.upsizes + self.stats.downsizes
        if epoch == self._drain_epoch:
            return 0
        from repro.core.resize import _TableSnapshot

        snapshot = _TableSnapshot(self)
        codes, values = self.stash.pop_all()
        before = len(codes)
        self._draining = True
        try:
            first, second = self.pair_hash.tables_for(codes)
            targets = self._router.choose(codes, first, second,
                                          self.subtable_sizes(),
                                          self.subtable_loads())
            self._insert_pending(codes, values, targets, excluded=None)
        except CapacityError:
            # Hard failure mid-drain (e.g. max_total_slots): no key may
            # be lost, so restore the pre-drain state (the snapshot
            # covers the stash) and stay degraded.
            snapshot.restore(self)
            if self.telemetry.enabled:
                self.telemetry.tracer.instant("stash.drain_failed", "stash",
                                              attempted=before)
            return 0
        finally:
            self._draining = False
            self._drain_epoch = self.stats.upsizes + self.stats.downsizes
        drained = before - len(self.stash)
        self.stats.stash_drained += drained
        if self.profiler.enabled:
            self.profiler.sample_stash(len(self.stash))
        if self.recorder.enabled:
            self.recorder.record("stash.drain", attempted=before,
                                 drained=drained,
                                 remaining=len(self.stash))
        if self.telemetry.enabled:
            self.telemetry.tracer.instant("stash.drain", "stash",
                                          attempted=before, drained=drained,
                                          remaining=len(self.stash))
            self.telemetry.metrics.counter("stash.drained").inc(drained)
            self.telemetry.metrics.gauge("stash.occupancy").set(
                len(self.stash))
        return drained

    def _raw_hashes(self, codes: np.ndarray, targets: np.ndarray
                    ) -> np.ndarray:
        """Raw hash of every code under its target subtable's function."""
        return UniversalHash.per_key(self.table_hashes, targets).raw(codes)

    def _eviction_round(self, codes: np.ndarray, values: np.ndarray,
                        targets: np.ndarray, raw: np.ndarray,
                        depths: np.ndarray | None, excluded: int | None):
        """One device round over every pending key, all subtables at once.

        Each key tries its current bucket once.  Keys contending for a
        bucket rank in input order (the warp-vote order): the k-th
        claims the k-th free slot, and the first contender for a full
        bucket evicts one occupant.  Pending keys are never stored
        (fresh keys missed the update pass; victims, residuals and
        stashed keys have left storage), so no update probe runs.
        Storage writes, migrate-on-access and hooks go subtable by
        subtable in index order, so every side effect lands exactly as
        in a round that visits the subtables one after another.

        Returns the next round's ``(codes, values, targets, raw, depths,
        evictions)``: per source subtable, its victims (retargeted at
        their alternates) and then the keys that must retry.
        """
        tel = self.telemetry
        prof = self.profiler
        d = self.num_tables
        cap = self.config.bucket_capacity
        subtables = self.subtables

        masks = np.asarray([st.n_buckets - 1 for st in subtables],
                           dtype=np.uint64)
        buckets = (raw & masks[targets]).astype(np.int64)
        for t, st in enumerate(subtables):
            if st.migration is not None:
                sel = np.flatnonzero(targets == t)
                if len(sel):
                    buckets[sel] = st.migration.effective_buckets(raw[sel])
        lock_ids = (targets << 40) | buckets
        ranks, groups, inverse = rank_within_group(lock_ids)
        # Groups sort by lock id, so each subtable's buckets form a run.
        bounds = np.searchsorted(groups >> 40, np.arange(d + 1))
        rows = np.empty((len(groups), cap), dtype=np.uint64)
        for t in range(d):
            lo, hi = bounds[t], bounds[t + 1]
            if hi > lo:
                np.take(subtables[t].keys, groups[lo:hi] & _BUCKET_BITS,
                        axis=0, out=rows[lo:hi])
        free = rows == EMPTY
        free_counts = np.count_nonzero(free, axis=1)[inverse]
        placed = np.flatnonzero(ranks < free_counts)
        slots = nth_set_columns(free, inverse[placed], ranks[placed])
        leader = (free_counts == 0) & (ranks == 0)

        counts = np.bincount(targets, minlength=d)
        # Placements grouped by subtable: one slice per storage write.
        by_table, placed_runs = _subtable_runs(targets[placed], d)
        placed = placed[by_table]
        slots = slots[by_table]
        placed_counts = np.diff(placed_runs)
        self.stats.bucket_reads += len(codes)
        self.stats.lock_acquisitions += len(codes)
        self.stats.bucket_writes += len(placed)
        for t in np.flatnonzero(counts).tolist():
            st = subtables[t]
            requests = int(counts[t])
            # One bucket-lock CAS per operation; collisions estimated
            # from device occupancy (only resident warps contend).
            conflicts = estimate_lock_conflicts(requests, st.n_buckets)
            self.stats.lock_conflicts += conflicts
            if tel.enabled:
                tel.metrics.counter("lock.acquisitions").inc(requests)
                tel.metrics.counter("lock.conflicts").inc(conflicts)
                tel.metrics.histogram("atomic_retries",
                                      RETRY_BUCKETS).observe(conflicts)
                tel.tracer.instant("lock.acquire", "lock", subtable=t,
                                   requests=requests, conflicts=conflicts)
            if prof.enabled:
                # Attribute the per-bucket lock grants to the contention
                # heatmap.
                prof.lock_grants_many(lock_ids[targets == t])
            lo, hi = placed_runs[t], placed_runs[t + 1]
            if hi > lo:
                mine = placed[lo:hi]
                st.fill_slots(buckets[mine], slots[lo:hi], codes[mine],
                              values[mine])
            mig = st.migration
            if excluded is None and mig is not None and mig.kind == "upsize":
                # Migrate-on-access: a full bucket in an upsizing subtable
                # is split to its post-resize view instead of evicting —
                # the blocked keys retry next round against the
                # (half-empty) migrated pair.
                ev = np.flatnonzero(leader & (targets == t))
                ev_pairs = buckets[ev] & np.int64(mig.num_pairs - 1)
                unmig = ~mig.migrated[ev_pairs]
                if np.any(unmig):
                    self._resizer.migrate_on_access(
                        t, np.unique(ev_pairs[unmig]))
                    leader[ev[unmig]] = False

        evictors = np.flatnonzero(leader)
        ev_idx, ev_codes, ev_values, ev_alts = self._evict(
            evictors, rows[inverse[evictors]], codes, values, targets,
            buckets, placed_counts, excluded)
        done = np.zeros(len(codes), dtype=bool)
        done[placed] = True
        done[ev_idx] = True
        if depths is not None:
            self._observe_chains(depths[done], targets[done])
        retry = np.flatnonzero(~done)
        # Per source subtable: its victims, then its retries.
        key = np.concatenate([targets[ev_idx], targets[retry]]) * 2
        key[len(ev_idx):] += 1
        order, _ = _subtable_runs(key, 2 * d)
        next_depths: np.ndarray | None = None
        if depths is not None:
            next_depths = np.concatenate([depths[ev_idx] + 1,
                                          depths[retry]])[order]
        return (np.concatenate([ev_codes, codes[retry]])[order],
                np.concatenate([ev_values, values[retry]])[order],
                np.concatenate([ev_alts, targets[retry]])[order],
                np.concatenate([self._raw_hashes(ev_codes, ev_alts),
                                raw[retry]])[order],
                next_depths, len(ev_idx))

    def _evict(self, evictors: np.ndarray, rows: np.ndarray,
               codes: np.ndarray, values: np.ndarray, targets: np.ndarray,
               buckets: np.ndarray, placed_counts: np.ndarray,
               excluded: int | None):
        """Pick and swap one victim per full bucket, all subtables at once.

        ``rows`` holds the evictors' (full) bucket rows.  Victims rotate
        around the bucket so repeated evictions do not thrash one slot.
        With ``excluded`` set, only occupants whose alternate subtable
        differs from it are eligible, and evictors without an eligible
        victim retry.  Returns ``(evictor_idx, victim_codes,
        victim_values, victim_alternates)`` for the evictors that
        swapped, grouped by subtable in input order.
        """
        if len(evictors) == 0:
            none = np.zeros(0, dtype=np.int64)
            return (none, np.zeros(0, dtype=np.uint64),
                    np.zeros(0, dtype=np.uint64), none)
        m, cap = rows.shape
        ev_tables = targets[evictors]
        alternates = self.pair_hash.alternate_table(
            rows.ravel(), np.repeat(ev_tables, cap)).reshape(m, cap)
        # Theorem-1-guided choice (Section V-A: "one can pick a KV pair
        # for re-insertion into a desired hash table based on the
        # balancing strategy"): prefer the occupant whose alternate
        # subtable currently has the best routing weight, so evictions
        # drain toward the least-loaded subtables — this is where a
        # larger d pays off for insertion.  Subtable t weighs the loads
        # after this round's placements into subtables 0..t, as a round
        # visiting the subtables in order would.
        d = self.num_tables
        evicting = np.flatnonzero(np.bincount(ev_tables, minlength=d))
        loads = self.subtable_loads() - placed_counts
        seen = np.arange(d)[None, :] <= evicting[:, None]
        weights = theorem1_weights(self.subtable_sizes(),
                                   loads + placed_counts * seen)
        which = np.searchsorted(evicting, ev_tables)
        preference = weights[which[:, None], alternates]      # (m, cap)
        # Random tie-breaking jitter: victims must still be effectively
        # random or dense eviction cycles persist for hundreds of
        # rounds (random-walk cuckoo).  A multiplicative hash of
        # (event counter, bucket, slot) provides the jitter without an
        # RNG stream; the counter ticks once per evicting subtable.
        counter = self._victim_counter
        nonces = np.asarray(
            [((counter + k) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
             for k in range(1, len(evicting) + 1)], dtype=np.uint64)
        self._victim_counter = counter + len(evicting)
        mixed = (nonces[which][:, None]
                 + buckets[evictors].astype(np.uint64)[:, None]
                 * np.uint64(0xBF58476D1CE4E5B9)
                 + np.arange(cap, dtype=np.uint64)[None, :]
                 * np.uint64(0x94D049BB133111EB))
        jitter = ((mixed >> np.uint64(40)).astype(np.float64)
                  / float(1 << 24))                           # [0, 1)
        score = preference * (0.5 + jitter)
        if excluded is not None:
            score[alternates == excluded] = -1.0
        slots = score.argmax(axis=1)
        alts = alternates[np.arange(m), slots]
        # Evictors with an eligible victim swap, grouped by subtable.
        swap = np.arange(m)
        if excluded is not None:
            swap = np.flatnonzero(alts != excluded)
        by_table, runs = _subtable_runs(ev_tables[swap], d)
        swap = swap[by_table]
        good, good_slots, alts = evictors[swap], slots[swap], alts[swap]
        victim_codes = np.empty(len(good), dtype=np.uint64)
        victim_values = np.empty(len(good), dtype=np.uint64)
        for t in evicting.tolist():
            lo, hi = runs[t], runs[t + 1]
            if hi > lo:
                mine = good[lo:hi]
                victim_codes[lo:hi], victim_values[lo:hi] = (
                    self.subtables[t].swap_slot(
                        buckets[mine], good_slots[lo:hi], codes[mine],
                        values[mine]))
        self.stats.evictions += len(good)
        self.stats.bucket_writes += len(good)
        return good, victim_codes, victim_values, alts

    def _observe_chains(self, depths: np.ndarray,
                        targets: np.ndarray) -> None:
        """Feed settled keys' chain depths to telemetry and the profiler,
        subtable by subtable."""
        for t in range(self.num_tables):
            settled = depths[targets == t]
            if len(settled):
                if self.telemetry.enabled:
                    self.telemetry.metrics.histogram(
                        "cuckoo_chain_depth",
                        CHAIN_DEPTH_BUCKETS).observe_many(settled)
                if self.profiler.enabled:
                    self.profiler.observe_chains(settled)
