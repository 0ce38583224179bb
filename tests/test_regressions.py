"""Regression tests for three historical accounting/upsert bugs.

Each test failed before its fix and pins the exact failure mode:

1. the warp insert kernel balloted "existing key" and "EMPTY slot" as
   one predicate, so a delete hole below a stored key's slot captured
   the upsert and duplicated the key (and the kernel never probed the
   pair's other subtable at all — the cross-subtable variant of the
   same duplication);
2. :meth:`Subtable.erase` decremented ``size`` once per matching input
   row, so duplicate ``(bucket, code)`` rows drove the counter negative;
3. a rolled-back downsize restored storage but only the ``downsizes``
   counter, leaving ``rehashed_entries``/``residuals``/``bucket_reads``/
   ``bucket_writes`` inflated by undone work.
"""

import numpy as np
import pytest

from repro.core.config import DyCuckooConfig
from repro.core.subtable import EMPTY, Subtable
from repro.core.table import DyCuckooTable, decode_keys
from repro.errors import ResizeError
from repro.faults import FaultPlan
from repro.kernels import run_spin_insert_kernel, run_voter_insert_kernel

from .conftest import unique_keys


def fresh_table(buckets=16, capacity=8, **kw):
    defaults = dict(initial_buckets=buckets, bucket_capacity=capacity,
                    auto_resize=False)
    defaults.update(kw)
    return DyCuckooTable(DyCuckooConfig(**defaults))


class TestKernelUpsertDuplication:
    """Bug 1: warp upsert wrote a second copy of an existing key."""

    def _bucket_with_two_entries(self, table):
        """Locate (subtable idx, bucket, lower slot, higher slot)."""
        for t_idx, st in enumerate(table.subtables):
            occupancy = (st.keys != EMPTY).sum(axis=1)
            for bucket in np.flatnonzero(occupancy >= 2):
                slots = np.flatnonzero(st.keys[bucket] != EMPTY)
                return t_idx, int(bucket), int(slots[0]), int(slots[1])
        raise AssertionError("workload left no bucket with two entries")

    @pytest.mark.parametrize("kernel", [run_voter_insert_kernel,
                                        run_spin_insert_kernel])
    def test_hole_below_stored_key_updates_in_place(self, kernel):
        """A delete hole below the stored slot must not win the upsert."""
        table = fresh_table()
        keys = unique_keys(300, seed=40)
        kernel(table, keys, keys)
        t_idx, bucket, low_slot, high_slot = \
            self._bucket_with_two_entries(table)
        st = table.subtables[t_idx]
        low_key = decode_keys(st.keys[bucket, low_slot:low_slot + 1])
        high_key = decode_keys(st.keys[bucket, high_slot:high_slot + 1])

        assert bool(table.delete(low_key)[0])  # hole below high_key
        # Pin the router so the kernel re-inspects exactly this bucket.
        table._router.choose = (
            lambda codes, first, second, sizes, loads:
            np.full(len(codes), t_idx, dtype=np.int64))
        kernel(table, high_key, high_key + np.uint64(7))

        table.validate()  # used to raise: duplicate key across slots
        assert len(table) == 299
        values, found = table.find(high_key)
        assert bool(found[0])
        assert int(values[0]) == int(high_key[0]) + 7

    @pytest.mark.parametrize("kernel", [run_voter_insert_kernel,
                                        run_spin_insert_kernel])
    def test_key_resident_in_alternate_subtable(self, kernel):
        """Upsert must probe the pair's other subtable, not duplicate."""
        table = fresh_table()
        keys = unique_keys(50, seed=41)
        # Place every key in the *first* subtable of its pair...
        table._router.choose = (
            lambda codes, first, second, sizes, loads: first)
        table.insert(keys, keys)
        # ...then drive the kernel at the *second*.
        table._router.choose = (
            lambda codes, first, second, sizes, loads: second)
        kernel(table, keys, keys + np.uint64(3))

        table.validate()  # used to raise: duplicate key across subtables
        assert len(table) == 50
        values, found = table.find(keys)
        assert bool(found.all())
        assert np.array_equal(values, keys + np.uint64(3))


class TestEraseDuplicateRows:
    """Bug 2: duplicate (bucket, code) rows double-decremented size."""

    def test_duplicate_rows_count_slot_once(self):
        st = Subtable(n_buckets=8, bucket_capacity=4)
        st.keys[3, 0] = np.uint64(42)
        st.size = 1
        erased = st.erase(np.array([3, 3], dtype=np.int64),
                          np.array([42, 42], dtype=np.uint64))
        assert erased.tolist() == [True, True]
        assert st.size == 0  # used to go to -1
        st.validate()

    def test_mixed_duplicate_and_fresh_rows(self):
        st = Subtable(n_buckets=8, bucket_capacity=4)
        st.keys[1, 0] = np.uint64(10)
        st.keys[1, 1] = np.uint64(11)
        st.keys[5, 2] = np.uint64(12)
        st.size = 3
        erased = st.erase(
            np.array([1, 1, 5, 1, 6], dtype=np.int64),
            np.array([10, 10, 12, 11, 10], dtype=np.uint64))
        assert erased.tolist() == [True, True, True, True, False]
        assert st.size == 0
        st.validate()


class TestDownsizeRollbackAccounting:
    """Bug 3: rollback restored storage but not the event counters."""

    def test_spill_abort_delta_is_exactly_one_abort(self):
        config = DyCuckooConfig(initial_buckets=8, bucket_capacity=2,
                                min_buckets=4, auto_resize=False)
        table = DyCuckooTable(config)
        keys = unique_keys(40, seed=42)
        table.insert(keys, keys)
        plan = FaultPlan(seed=0, rates={"resize.abort.spill": 1.0})
        table.set_fault_plan(plan)
        before = table.stats.snapshot()
        aborted = False
        for _ in range(4):
            try:
                table._resizer.downsize()
            except ResizeError:
                aborted = True
                break
            before = table.stats.snapshot()
        assert aborted, "fault plan never reached the spill stage"
        delta = {name: count for name, count
                 in table.stats.delta(before).items() if count}
        # Used to leave bucket_reads/bucket_writes/rehashed_entries/
        # residuals inflated by the rolled-back rehash.
        assert delta == {"resize_aborts": 1}
        table.validate()


class TestUnwindReleasesLocks:
    """Release-on-exception: a kernel abort must not wedge the lock
    table or leak bucket locks (audited by the SIMT sanitizer)."""

    def _contended_batch(self, table, lanes=128):
        """Four warps, every lane the same key: one lock, all contend."""
        from repro.core.table import encode_keys
        keys = np.full(lanes, 12345, dtype=np.uint64)
        codes = encode_keys(keys)
        first, second = table.pair_hash.tables_for(codes)
        targets = table._router.choose(codes, first, second,
                                       table.subtable_sizes(),
                                       table.subtable_loads())
        return codes, keys, targets

    def test_warp_engine_unwinds_on_stall_exhaustion(self):
        from repro.errors import CapacityError
        from repro.faults import NO_FAULTS
        from repro.kernels.insert import _run_insert_warps
        from repro.sanitizer import Sanitizer

        table = fresh_table()
        san = table.set_sanitizer(Sanitizer())
        codes, values, targets = self._contended_batch(table)
        with pytest.raises(CapacityError):
            _run_insert_warps(table, codes, values, targets, voter=True,
                              faults=NO_FAULTS, max_rounds_per_op=1)
        assert san.ok, [str(v) for v in san.violations]
        assert san.stats["unwind_releases"] >= 1
        # The lock table is usable again: a fresh batch completes.
        fresh = unique_keys(64, seed=77)
        run_voter_insert_kernel(table, fresh, fresh)
        assert san.ok, [str(v) for v in san.violations]

    def test_cohort_engine_unwinds_on_stall_exhaustion(self):
        from repro.errors import CapacityError
        from repro.gpusim.cohort import cohort_insert
        from repro.sanitizer import Sanitizer

        table = fresh_table()
        san = table.set_sanitizer(Sanitizer())
        codes, values, targets = self._contended_batch(table)
        with pytest.raises(CapacityError):
            cohort_insert(table, codes, values, targets, voter=True,
                          max_rounds_per_op=1)
        assert san.ok, [str(v) for v in san.violations]
        assert san.stats["unwind_releases"] >= 1
        run_voter_insert_kernel(table, unique_keys(64, seed=78),
                                unique_keys(64, seed=78),
                                engine="cohort")
        assert san.ok, [str(v) for v in san.violations]

    def test_resize_abort_releases_subtable_lock(self):
        from repro.sanitizer import Sanitizer

        table = fresh_table(buckets=16, capacity=8, min_buckets=8,
                            auto_resize=True)
        san = table.set_sanitizer(Sanitizer())
        keys = unique_keys(96, seed=79)
        table.insert(keys, keys)
        table.delete(keys[:80])  # make the downsize viable
        for stage in ("rehash", "spill"):
            table.set_fault_plan(FaultPlan(
                seed=0, rates={f"resize.abort.{stage}": 1.0}))
            with pytest.raises(ResizeError):
                table._resizer.downsize()
            table.set_fault_plan(None)
            report = san.report()
            assert report["subtable_locks_held"] == 0, stage
            assert san.ok, [str(v) for v in san.violations]
        table.validate()


class TestKernelVictimLostUpdate:
    """A lane carrying an evicted victim overwrote a newer stored copy.

    An eviction chain moves key K's *old* value on a lane; meanwhile
    the update op for K probes both buckets, misses (K is in flight),
    and places K with the new value.  The victim lane then found K
    stored (own bucket or the pair's other subtable) and "upserted" the
    stale value over it.  Victim lanes that find their key stored must
    finish without writing.
    """

    @staticmethod
    def _run(engine, seed, sanitizer=None):
        from repro.core.batch_ops import OP_INSERT

        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             auto_resize=False))
        stored = unique_keys(int(0.85 * table.total_slots), seed=seed)
        table.insert(stored, stored)
        if sanitizer is not None:
            table.set_sanitizer(sanitizer)
        rng = np.random.default_rng(seed)
        updated = rng.choice(stored, size=1000, replace=False)
        fresh = unique_keys(100, seed=seed + 100, low=1 << 62,
                            high=(1 << 63) - 1)
        keys = np.concatenate([updated, fresh])
        values = keys * np.uint64(7) + np.uint64(1)
        result = table.execute_mixed(np.full(len(keys), OP_INSERT), keys,
                                     values, engine=engine)
        expected = dict(zip(stored.tolist(), stored.tolist()))
        expected.update(zip(keys.tolist(), values.tolist()))
        return table, result, expected

    @pytest.mark.parametrize("engine", ["warp", "cohort"])
    @pytest.mark.parametrize("seed", range(5))
    def test_updates_survive_concurrent_evictions(self, engine, seed):
        table, _result, expected = self._run(engine, seed)
        table.validate()
        assert table.to_dict() == expected

    def test_engines_agree_on_victim_lanes(self):
        from dataclasses import asdict

        from repro.sanitizer import Sanitizer

        runs = {engine: self._run(engine, 0, Sanitizer())
                for engine in ("warp", "cohort")}
        (tw, rw, _), (tc, rc, _) = runs["warp"], runs["cohort"]
        assert asdict(rw.kernel) == asdict(rc.kernel)
        assert tw._victim_counter == tc._victim_counter
        for sw, sc in zip(tw.subtables, tc.subtables):
            assert np.array_equal(sw.keys, sc.keys)
            assert np.array_equal(sw.values, sc.values)
        for table in (tw, tc):
            assert not table.sanitizer.violations
