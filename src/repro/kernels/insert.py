"""Algorithm 1: voter-coordinated parallel insertion.

Each *lane* owns one insert operation.  Every device round, the warp:

1. ballots over active lanes and elects a leader ``l'``,
2. broadcasts the leader's ``(k', v')`` and target subtable ``i'``,
3. the leader issues ``atomicCAS`` on the bucket lock; on failure the
   warp *revotes a different leader* next round instead of spinning
   (this is the voter scheme's whole point),
4. on success the warp inspects the bucket in one coalesced read;
   an existing key or empty slot takes the write, otherwise the leader
   swaps with a victim whose evicted pair continues on the same lane,
   retargeted at the victim's alternate subtable,
5. the lock is released and (if the lane's op completed) the lane goes
   inactive.

:func:`run_spin_insert_kernel` is the ablation: the classic warp-centric
approach where a warp keeps hammering the same bucket lock until it wins
— the behaviour whose cost Figure 5 motivates against.

Both kernels run against the live storage of a
:class:`repro.core.table.DyCuckooTable` so results are directly
comparable (and testable) against the vectorized path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.subtable import EMPTY
from repro.errors import CapacityError
from repro.gpusim.kernel import LockArbiter, RoundScheduler
from repro.gpusim.memory import MemoryTracker
from repro.gpusim.warp import WarpContext
from repro.sanitizer import NULL_SANITIZER
from repro.telemetry.profiler import NULL_PROFILER

_SITE_PHASE1 = "repro/kernels/insert.py:_InsertWarp.step"
_SITE_PHASE2 = "repro/kernels/insert.py:_InsertWarp._complete_locked"
_SITE_ALT = "repro/kernels/insert.py:_InsertWarp._update_in_alternate"
_SITE_UNWIND = "repro/kernels/insert.py:_InsertWarp.unwind_locks"
_SITE_ELECT = "repro/kernels/insert.py:_InsertWarp._elect"
_SITE_EXIT = "repro/kernels/insert.py:_run_insert_warps"


@dataclass
class KernelRunResult:
    """Aggregate statistics from one simulated kernel execution."""

    rounds: int = 0
    lock_acquisitions: int = 0
    lock_conflicts: int = 0
    evictions: int = 0
    memory_transactions: int = 0
    completed_ops: int = 0
    #: Per-warp counts of leader elections (vote steps).
    votes: int = 0

    def merge(self, other: "KernelRunResult") -> "KernelRunResult":
        """Field-wise sum of two runs (mixed-batch aggregation)."""
        return KernelRunResult(
            rounds=self.rounds + other.rounds,
            lock_acquisitions=self.lock_acquisitions + other.lock_acquisitions,
            lock_conflicts=self.lock_conflicts + other.lock_conflicts,
            evictions=self.evictions + other.evictions,
            memory_transactions=(self.memory_transactions
                                 + other.memory_transactions),
            completed_ops=self.completed_ops + other.completed_ops,
            votes=self.votes + other.votes,
        )


class _InsertWarp:
    """One warp's state while executing Algorithm 1."""

    def __init__(self, warp_id: int, table, keys: np.ndarray,
                 values: np.ndarray, targets: np.ndarray,
                 arbiter: LockArbiter, tracker: MemoryTracker,
                 result: KernelRunResult, voter: bool,
                 max_rounds_per_op: int = 4096) -> None:
        self.table = table
        self.ctx = WarpContext(warp_id)
        width = self.ctx.width
        n = len(keys)
        if n > width:
            raise ValueError(f"a warp owns at most {width} ops, got {n}")
        self.keys = np.zeros(width, dtype=np.uint64)
        self.values = np.zeros(width, dtype=np.uint64)
        self.targets = np.zeros(width, dtype=np.int64)
        self.keys[:n] = keys
        self.values[:n] = values
        self.targets[:n] = targets
        self.ctx.active[:n] = True
        self.arbiter = arbiter
        self.tracker = tracker
        self.result = result
        self.voter = voter
        self.san = arbiter.sanitizer
        self.prof = arbiter.profiler
        # Per-lane eviction-chain depth, profiler-only bookkeeping: the
        # lane's current op has displaced this many victims so far.
        self.depths = (np.zeros(width, dtype=np.int64)
                       if self.prof.enabled else None)
        #: Lanes whose current pair is an evicted victim rather than the
        #: op they were launched with.
        self.carrying = np.zeros(width, dtype=bool)
        self._next_start_lane = 0
        self._stalled_rounds = 0
        self._max_stall = max_rounds_per_op
        # Two-phase critical section: a successful lock acquisition reads
        # the bucket in one round and performs the write (and unlock) the
        # next, so the lock is observably held against same-round and
        # next-round competitors — the situation the voter scheme exists
        # to exploit.
        self._locked: tuple[int, int, int, int] | None = None

    def finished(self) -> bool:
        return self._locked is None and not self.ctx.any_active()

    def _elect(self) -> int:
        """Leader election; the voter variant rotates past failed lanes."""
        self.result.votes += 1
        mask = self.ctx.ballot(self.ctx.active)
        if self.san.enabled:
            # The election ballot *is* the active-mask vote; synccheck
            # flags any vote bit outside the active mask (an exited
            # lane participating in __ballot_sync).
            self.san.on_vote(self.ctx.warp_id, mask, mask,
                             site=_SITE_ELECT)
        if mask == 0:
            return -1
        if not self.voter:
            return self.ctx.ffs(mask)
        width = self.ctx.width
        for offset in range(width):
            lane = (self._next_start_lane + offset) % width
            if mask & (1 << lane):
                return lane
        return -1  # pragma: no cover - mask != 0 guarantees a hit

    def step(self, _round_index: int) -> None:
        """One iteration of Algorithm 1's while loop (two-phase)."""
        if self._locked is not None:
            self._complete_locked()
            return
        leader = self._elect()
        if leader < 0:
            return
        # broadcast(l'): every lane receives the leader's op.
        key = int(self.ctx.shfl(self.keys, leader))
        _value = int(self.ctx.shfl(self.values, leader))
        target = int(self.ctx.shfl(self.targets, leader))

        st = self.table.subtables[target]
        bucket = int(self.table.bucket_for(
            target, np.asarray([key], dtype=np.uint64))[0])
        lock_id = self._lock_id(target, bucket)
        if not self.arbiter.try_acquire(lock_id, warp=self.ctx.warp_id):
            # Voter scheme: next election starts after the failed lane,
            # so the warp tries a different bucket instead of spinning.
            if self.voter:
                self._next_start_lane = (leader + 1) % self.ctx.width
            self._stalled_rounds += 1
            if self._stalled_rounds > self._max_stall:
                raise CapacityError(
                    "insert kernel stalled: no lock progress "
                    f"after {self._max_stall} rounds"
                )
            return
        self._stalled_rounds = 0
        # Phase one done: lock held, bucket read issued; the update lands
        # next round while competitors observe the held lock.
        self.result.memory_transactions += 1
        self.tracker.bucket_access()
        if self.san.enabled:
            self.san.record_access(self.ctx.warp_id, "read", "bucket",
                                   lock_id, site=_SITE_PHASE1)
        self._locked = (leader, target, bucket, lock_id)

    def unwind_locks(self) -> None:
        """Release the held lock while an exception propagates.

        A real kernel that traps mid-critical-section must still clear
        its bucket lock (``atomicExch(&lock, 0)`` in the cleanup path)
        or the bucket is wedged for every later kernel.  Called by
        :func:`_run_insert_warps` for every warp when the scheduler
        aborts; a warp between phases simply has nothing to release.
        """
        locked = self._locked
        if locked is None:
            return
        _leader, _target, _bucket, lock_id = locked
        self._locked = None
        self.arbiter.release(lock_id, warp=self.ctx.warp_id, unwind=True)

    def _ballot_first_slot(self, lane_matches: np.ndarray,
                           capacity: int) -> int:
        """First slot whose lane predicate is set, or -1.

        Each lane inspects one slot; with capacity > warp width the
        warp would loop over stripes — ballot each stripe in turn.
        """
        pred = self.ctx.scratch_pred
        for stripe_start in range(0, capacity, self.ctx.width):
            stripe = lane_matches[stripe_start:stripe_start + self.ctx.width]
            pred[:] = False
            pred[:len(stripe)] = stripe
            hit = self.ctx.ffs(self.ctx.ballot(pred))
            if hit >= 0:
                return stripe_start + hit
        return -1

    def _complete_locked(self) -> None:
        """Phase two: inspect the bucket, write or evict, unlock."""
        locked = self._locked
        if locked is None:  # pragma: no cover - callers check first
            return
        leader, target, bucket, lock_id = locked
        self._locked = None
        key = int(self.keys[leader])
        value = int(self.values[leader])
        st = self.table.subtables[target]
        bucket_keys = st.keys[bucket]
        # Upsert order matters: an existing-key slot must win over an
        # EMPTY slot, otherwise a delete hole at a lower slot index than
        # the stored key makes the warp write a *second* copy of the key
        # into the hole.  Ballot the existing-key predicate first and
        # fall back to the free-slot predicate only on a miss.
        slot = self._ballot_first_slot(bucket_keys == np.uint64(key),
                                       st.bucket_capacity)
        stale = bool(self.carrying[leader])
        if slot >= 0 and stale:
            # The key was stored again while its evicted copy was in
            # flight (an update that missed both buckets placed it);
            # the stored value is newer, so the victim lane finishes
            # without writing.
            self._finish_lane(leader, lock_id)
            return
        if slot < 0:
            # Second half of the upsert contract: the key may live in
            # the *other* subtable of its pair (router flips between
            # batches as loads shift; evictions relocate keys).  Probe
            # that bucket before claiming a free slot here, or the
            # table ends up with one copy per pair member.
            if self._update_in_alternate(key, value, target, stale):
                self._finish_lane(leader, lock_id)
                return
            slot = self._ballot_first_slot(bucket_keys == EMPTY,
                                           st.bucket_capacity)
        if 0 <= slot < st.bucket_capacity:
            was_empty = bucket_keys[slot] == EMPTY
            st.keys[bucket, slot] = np.uint64(key)
            st.values[bucket, slot] = np.uint64(value)
            if was_empty:
                st.size += 1
            self.tracker.bucket_access()
            self.result.memory_transactions += 1
            if self.san.enabled:
                self.san.record_access(self.ctx.warp_id, "write",
                                       "bucket", lock_id,
                                       site=_SITE_PHASE2)
            self._finish_lane(leader, lock_id)
            return

        # Bucket full: swap with a victim; the evicted pair continues on
        # the leader's lane, targeted at the victim's alternate subtable.
        victim_slot = self._choose_victim_slot(target, bucket, bucket_keys)
        victim_key = int(st.keys[bucket, victim_slot])
        victim_value = int(st.values[bucket, victim_slot])
        st.keys[bucket, victim_slot] = np.uint64(key)
        st.values[bucket, victim_slot] = np.uint64(value)
        self.tracker.bucket_access()
        self.result.memory_transactions += 1
        self.result.evictions += 1
        if self.depths is not None:
            # The victim continues on this lane one eviction deeper.
            self.depths[leader] += 1
        if self.san.enabled:
            self.san.record_access(self.ctx.warp_id, "write", "bucket",
                                   lock_id, site=_SITE_PHASE2)
        self.arbiter.release(lock_id, warp=self.ctx.warp_id)

        alternate = int(self.table.pair_hash.alternate_table(
            np.asarray([victim_key], dtype=np.uint64),
            np.asarray([target], dtype=np.int64))[0])
        self.keys[leader] = victim_key
        self.values[leader] = victim_value
        self.targets[leader] = alternate
        self.carrying[leader] = True

    def _finish_lane(self, leader: int, lock_id: int) -> None:
        """Release the lock and retire the leader lane's completed op."""
        self.arbiter.release(lock_id, warp=self.ctx.warp_id)
        self.ctx.active[leader] = False
        self.result.completed_ops += 1
        if self.depths is not None:
            self.prof.observe_chain(self.depths[leader])
        self._next_start_lane = (leader + 1) % self.ctx.width

    def _update_in_alternate(self, key: int, value: int, target: int,
                             stale: bool) -> bool:
        """Update ``key`` in the pair's other subtable if stored there.

        One extra coalesced read per leader op that misses its target
        bucket — the same both-bucket probe the vectorized path's
        update-existing pass performs.  The value write is lock-free,
        matching the vectorized path and the delete kernel.  A
        ``stale`` (evicted-victim) pair that finds its key stored
        reports the hit without writing: the stored copy is newer.
        """
        alternate = int(self.table.pair_hash.alternate_table(
            np.asarray([key], dtype=np.uint64),
            np.asarray([target], dtype=np.int64))[0])
        st = self.table.subtables[alternate]
        bucket = int(self.table.bucket_for(
            alternate, np.asarray([key], dtype=np.uint64))[0])
        self.tracker.bucket_access()
        self.result.memory_transactions += 1
        alt_lock = self._lock_id(alternate, bucket)
        if self.san.enabled:
            # Protocol-sanctioned lock-free read: the probe holds only
            # its *own* bucket's lock ("probe" kind, exempt).
            self.san.record_access(self.ctx.warp_id, "probe", "bucket",
                                   alt_lock, site=_SITE_ALT)
        slot = self._ballot_first_slot(st.keys[bucket] == np.uint64(key),
                                       st.bucket_capacity)
        if slot < 0:
            return False
        if stale:
            return True
        st.values[bucket, slot] = np.uint64(value)
        self.tracker.bucket_access()
        self.result.memory_transactions += 1
        if self.san.enabled:
            # Single-word value update, intentionally lock-free (matches
            # the vectorized path): "atomic" kind, ordered by definition.
            self.san.record_access(self.ctx.warp_id, "atomic", "value",
                                   alt_lock, site=_SITE_ALT)
        return True

    def _choose_victim_slot(self, target: int, bucket: int,
                            bucket_keys: np.ndarray) -> int:
        """Rotate the victim slot deterministically (matches the core)."""
        del bucket_keys
        cap = self.table.subtables[target].bucket_capacity
        slot = (self.table._victim_counter + bucket) % cap
        self.table._victim_counter += 1
        return slot

    @staticmethod
    def _lock_id(table_idx: int, bucket: int) -> int:
        """Globally unique lock id for (subtable, bucket)."""
        return (table_idx << 40) | bucket


def _run_insert(table, keys, values, voter: bool, engine: str = "warp",
                codes=None, first=None, second=None) -> KernelRunResult:
    from repro.core.table import encode_keys
    from repro.kernels.engine import (kernel_span, record_kernel_counters,
                                      resolve_engine)

    resolve_engine(engine)
    values = np.asarray(values, dtype=np.uint64)
    if codes is None:
        codes = encode_keys(np.asarray(keys, dtype=np.uint64))
    if first is None or second is None:
        first, second = table.pair_hash.tables_for(codes)
    # Routing happens once, before engine dispatch, so both engines see
    # byte-identical targets (the router is a pure function of the key
    # and the table's current sizes/loads).
    targets = table._router.choose(codes, first, second,
                                   table.subtable_sizes(),
                                   table.subtable_loads())
    faults = getattr(table, "faults", None)
    faulty = faults is not None and faults.enabled
    prof = getattr(table, "profiler", NULL_PROFILER)
    if prof.enabled:
        prof.begin_kernel("insert", len(codes))
    try:
        with kernel_span(table, "insert", len(codes), engine) as span:
            if engine == "cohort":
                from repro.gpusim.cohort import cohort_insert

                # Fault plans run natively in the SoA path: rounds
                # whose consult window cannot fire stay vectorized,
                # and the rest replay the reference arbitration walk
                # (see cohort._phase_one_fault_walk).
                result = cohort_insert(table, codes, values, targets,
                                       voter=voter,
                                       faults=faults if faulty else None)
                if span is not None and result.hazard_rounds:
                    span.args["hazard_rounds"] = result.hazard_rounds
                    span.args["hazard_lanes"] = result.hazard_lanes
            else:
                result = _run_insert_warps(table, codes, values, targets,
                                           voter, faults)
    except BaseException:
        if prof.enabled:
            prof.end_kernel()
        raise
    if prof.enabled:
        prof.end_kernel(dataclasses.asdict(result))
    record_kernel_counters(table, result)
    return result


def _run_insert_warps(table, codes, values, targets, voter: bool,
                      faults,
                      max_rounds_per_op: int = 4096) -> KernelRunResult:
    """Reference engine: one `_InsertWarp` object per warp, stepped."""
    san = getattr(table, "sanitizer", NULL_SANITIZER)
    prof = getattr(table, "profiler", NULL_PROFILER)
    arbiter = LockArbiter(faults=faults, sanitizer=san, profiler=prof)
    tracker = MemoryTracker(sanitizer=san if san.enabled else None)
    result = KernelRunResult()
    warps = []
    width = 32
    for start in range(0, len(codes), width):
        stop = min(start + width, len(codes))
        warps.append(_InsertWarp(
            warp_id=len(warps), table=table, keys=codes[start:stop],
            values=values[start:stop], targets=targets[start:stop],
            arbiter=arbiter, tracker=tracker, result=result, voter=voter,
            max_rounds_per_op=max_rounds_per_op))
    scheduler = RoundScheduler(warps, sanitizer=san)
    if san.enabled:
        san.begin_kernel("insert", locking=True, table=table)
    before_round = None
    if prof.enabled:
        def before_round(_round_index):
            # Occupancy snapshot at the round boundary: resident warps,
            # live lanes, and warps holding a lock across the phases.
            # Both engines see identical values here because storage and
            # counters conform at every round boundary.
            active_warps = active_lanes = locked_warps = 0
            for warp in warps:
                if warp.finished():
                    continue
                active_warps += 1
                active_lanes += int(warp.ctx.active.sum())
                if warp._locked is not None:
                    locked_warps += 1
            prof.record_round(active_warps, active_lanes, locked_warps,
                              evictions=result.evictions,
                              completed=result.completed_ops)
    try:
        if arbiter.faults.enabled:
            # The insert kernel holds locks across rounds (two-phase), so
            # it never calls end_round(); injected stalls still must age.
            result.rounds = scheduler.run(
                before_round=before_round,
                after_round=lambda _i: arbiter.tick())
        else:
            result.rounds = scheduler.run(before_round=before_round)
        if san.enabled:
            # Normal completion: the round loop drains every lane, so
            # a live lane here is a divergent exit (synccheck).
            san.on_kernel_exit(
                sum(int(warp.ctx.active.sum()) for warp in warps),
                site=_SITE_EXIT)
    except BaseException:
        # Release-on-exception: a CapacityError (stall exhaustion) or a
        # non-convergence abort leaves other warps mid-critical-section;
        # their bucket locks must be cleared on the way out or the lock
        # table is wedged for every later kernel on this arbiter.
        for warp in warps:
            warp.unwind_locks()
        raise
    finally:
        if san.enabled:
            san.end_kernel()
    result.lock_acquisitions = arbiter.acquisitions
    result.lock_conflicts = arbiter.conflicts
    return result


def run_voter_insert_kernel(table, keys, values, engine: str = "warp", *,
                            codes=None, first=None,
                            second=None) -> KernelRunResult:
    """Insert a batch via Algorithm 1 (voter coordination).

    Mutates ``table``'s storage directly; intended for fresh keys on a
    table with enough headroom (no resizing happens inside a kernel,
    matching the paper where resizing is its own kernel).
    ``engine="cohort"`` executes the same program on the
    structure-of-arrays engine with bit-identical storage and counters.
    """
    return _run_insert(table, keys, values, voter=True, engine=engine,
                       codes=codes, first=first, second=second)


def run_spin_insert_kernel(table, keys, values, engine: str = "warp", *,
                           codes=None, first=None,
                           second=None) -> KernelRunResult:
    """Ablation: warp-centric insert that spins on the same lock.

    Identical to the voter kernel except a lock failure retries the same
    leader (and therefore the same bucket) next round.
    """
    return _run_insert(table, keys, values, voter=False, engine=engine,
                       codes=codes, first=first, second=second)
