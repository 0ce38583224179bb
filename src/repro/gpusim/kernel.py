"""Kernel launch abstraction and round-synchronous warp scheduling.

A GPU executes a kernel as a grid of warps; warps progress independently
but contend on shared structures.  The simulator models a kernel as a
collection of *warp programs* stepped in **device rounds**: in each round
every unfinished warp executes one step.  Contended resources (bucket
locks) are arbitrated per round: all requests are collected first, then
one winner per resource is granted — a legal and adversarial
interleaving that exercises the same races real hardware does.

:class:`Occupancy` models how many warps are simultaneously resident,
which the cost model uses to convert per-warp work into wall-clock time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import InvalidConfigError
from repro.faults import NO_FAULTS
from repro.gpusim.device import DeviceSpec, GTX_1080
from repro.sanitizer import NULL_SANITIZER
from repro.telemetry.profiler import NULL_PROFILER
from repro.telemetry.tracer import NULL_TRACER

_SITE_ACQUIRE = "repro/gpusim/kernel.py:LockArbiter.try_acquire"
_SITE_RELEASE = "repro/gpusim/kernel.py:LockArbiter.release"


@dataclass(frozen=True)
class Occupancy:
    """Resident-warp calculation for a kernel launch.

    ``registers_per_thread`` and ``shared_bytes_per_block`` limit how
    many warps fit on an SM (the "Control Resource Usage" guideline of
    Section II-B).  The defaults describe the paper's lean hash kernels,
    which are memory-bound and run at high occupancy.
    """

    device: DeviceSpec = GTX_1080
    registers_per_thread: int = 32
    shared_bytes_per_block: int = 0
    threads_per_block: int = 256

    #: Pascal per-SM register file (32K 32-bit registers * 2 banks).
    REGISTERS_PER_SM: int = 65536
    #: Pascal per-SM shared memory.
    SHARED_BYTES_PER_SM: int = 98304

    def warps_per_sm(self) -> int:
        """Resident warps per SM under register/shared/architectural limits."""
        if self.threads_per_block % self.device.warp_size:
            raise InvalidConfigError(
                "threads_per_block must be a multiple of the warp size"
            )
        by_registers = self.REGISTERS_PER_SM // max(
            1, self.registers_per_thread * self.device.warp_size)
        blocks_by_shared = (self.SHARED_BYTES_PER_SM //
                            max(1, self.shared_bytes_per_block)
                            if self.shared_bytes_per_block else 10 ** 9)
        warps_per_block = self.threads_per_block // self.device.warp_size
        by_shared = blocks_by_shared * warps_per_block
        return max(1, min(self.device.max_warps_per_sm, by_registers, by_shared))

    def resident_warps(self) -> int:
        """Device-wide concurrently resident warps."""
        return self.warps_per_sm() * self.device.num_sms


#: Concurrent warps per batched operation in the paper's regime: the
#: GTX 1080 keeps ~1280 warps resident while a batch holds 1e6 ops, so
#: roughly one op in 780 executes concurrently with a given op.  Scaled
#: (smaller) batches keep this ratio so contention statistics match the
#: full-size system instead of exploding when a small table meets the
#: full resident-warp count.
REFERENCE_CONCURRENCY = 1280.0 / 1_000_000.0


@functools.lru_cache(maxsize=None)
def _resident_warps(device: DeviceSpec) -> int:
    """Default-launch resident warps of ``device`` (a pure function)."""
    return Occupancy(device=device).resident_warps()


def estimate_lock_conflicts(num_ops: int, num_buckets: int,
                            resident_warps: int | None = None,
                            device: DeviceSpec = GTX_1080) -> int:
    """Expected same-round lock collisions for a batched kernel.

    A batch of ``num_ops`` operations executes as waves of concurrently
    resident warps; within one wave, two operations targeting the same
    bucket collide on its lock (birthday estimate ``W * (W - 1) /
    (2 * B)`` per wave).  Operations in *different* waves never contend,
    which is why conflicts scale with occupancy and bucket count, not
    with batch size squared.  The wave size is the smaller of the
    device's resident-warp limit and the batch-proportional concurrency
    of the paper's regime (see :data:`REFERENCE_CONCURRENCY`).
    """
    if num_ops <= 1 or num_buckets <= 0:
        return 0
    if resident_warps is None:
        resident_warps = min(
            _resident_warps(device),
            max(1, round(num_ops * REFERENCE_CONCURRENCY)))
    wave = max(1, min(num_ops, resident_warps))
    full_waves, remainder = divmod(num_ops, wave)
    collisions = (full_waves * wave * (wave - 1)
                  + remainder * (remainder - 1)) / (2.0 * num_buckets)
    return int(round(collisions))


class RoundScheduler:
    """Steps a set of warp programs in device rounds.

    A *warp program* is any object with ``finished() -> bool`` and
    ``step(round_index) -> None``.  Arbitration between warps is the
    caller's business (see :class:`LockArbiter`); the scheduler only
    provides the bulk-synchronous round structure and counts rounds.
    """

    def __init__(self, warps: Iterable, max_rounds: int = 1_000_000,
                 seed: int = 0, tracer=None, sanitizer=None) -> None:
        self.warps = list(warps)
        self.max_rounds = max_rounds
        self.rounds_executed = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.sanitizer = (sanitizer if sanitizer is not None
                          else NULL_SANITIZER)
        self._rng = __import__("numpy").random.default_rng(seed)

    def run(self, before_round: Callable[[int], None] | None = None,
            after_round: Callable[[int], None] | None = None) -> int:
        """Run every warp to completion; returns rounds executed.

        Warps step in a freshly shuffled order each round: real hardware
        gives no warp a standing priority, and a fixed order would let
        warp 0 win every lock race.
        """
        with self.tracer.span("kernel.run", "kernel", warps=len(self.warps)):
            round_index = self._run_rounds(before_round, after_round)
        self.rounds_executed = round_index
        return round_index

    def _run_rounds(self, before_round, after_round) -> int:
        tracer = self.tracer
        round_index = 0
        while any(not w.finished() for w in self.warps):
            if round_index >= self.max_rounds:
                raise RuntimeError(
                    f"kernel did not converge within {self.max_rounds} rounds"
                )
            if self.sanitizer.enabled:
                self.sanitizer.begin_round(round_index)
            if before_round is not None:
                before_round(round_index)
            if tracer.enabled:
                tracer.instant("kernel.round", "kernel", index=round_index,
                               active=sum(1 for w in self.warps
                                          if not w.finished()))
            order = self._rng.permutation(len(self.warps))
            for idx in order:
                warp = self.warps[idx]
                if not warp.finished():
                    warp.step(round_index)
            if after_round is not None:
                after_round(round_index)
            round_index += 1
        return round_index


class LockArbiter:
    """Per-round mutual exclusion over integer resource ids.

    Models the paper's bucket locks: within one device round many warp
    leaders may issue ``atomicCAS(&lock, 0, 1)`` on the same bucket; the
    memory subsystem serializes them and exactly one sees ``0``.  The
    arbiter grants the first requester of each resource per round and
    counts the failed attempts (the spinning the voter scheme avoids).
    """

    def __init__(self, tracer=None, faults=None, sanitizer=None,
                 profiler=None) -> None:
        self._held: set[int] = set()
        #: Resources camped on by an injected stalled holder, mapped to
        #: the device rounds the stall has left (aged by :meth:`tick`).
        self._stalled: dict[int, int] = {}
        self.acquisitions = 0
        self.conflicts = 0
        #: Acquisitions denied by an injected ``lock.acquire`` fault.
        self.injected_failures = 0
        #: Stalled-holder faults injected (``lock.stall``).
        self.injected_stalls = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults if faults is not None else NO_FAULTS
        self.sanitizer = (sanitizer if sanitizer is not None
                          else NULL_SANITIZER)
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    def try_acquire(self, resource: int, warp: int = -1) -> bool:
        """Attempt to lock ``resource``; False means revote/spin.

        ``warp`` identifies the acquiring warp for the sanitizer's
        lockcheck pass; callers without warp identity may omit it.
        """
        if self._stalled and resource in self._stalled:
            # A stalled holder (injected fault) is camping on the lock.
            self.conflicts += 1
            if self.profiler.enabled:
                self.profiler.lock_conflict(resource)
            if self.tracer.enabled:
                self.tracer.instant("lock.retry", "lock", resource=resource,
                                    stalled=True)
            return False
        if resource in self._held:
            self.conflicts += 1
            if self.profiler.enabled:
                self.profiler.lock_conflict(resource)
            if self.tracer.enabled:
                self.tracer.instant("lock.retry", "lock", resource=resource)
            return False
        if self.faults.enabled:
            fault = self.faults.fire("lock.acquire")
            if fault is not None:
                # The CAS lost to a competitor the simulator did not
                # model — the caller must revote, like any conflict.
                self.conflicts += 1
                self.injected_failures += 1
                if self.profiler.enabled:
                    self.profiler.lock_conflict(resource)
                if self.sanitizer.enabled:
                    # Intentional: the acquisition never happened, so
                    # there is nothing for lockcheck to pair.
                    self.sanitizer.note_injected("lock.acquire")
                if self.tracer.enabled:
                    self.tracer.instant("fault.inject", "fault",
                                        site="lock.acquire",
                                        resource=resource)
                return False
            fault = self.faults.fire("lock.stall")
            if fault is not None:
                # A phantom holder wins the lock and stalls on it for
                # ``param`` device rounds; everyone (including this
                # warp) must revote until the stall expires.
                self._stalled[resource] = max(1, fault.param)
                self.conflicts += 1
                self.injected_stalls += 1
                if self.profiler.enabled:
                    self.profiler.lock_conflict(resource)
                if self.sanitizer.enabled:
                    # Intentional: the phantom holder is not a tracked
                    # warp, so it cannot be reported as a leak.
                    self.sanitizer.note_injected("lock.stall")
                if self.tracer.enabled:
                    self.tracer.instant("fault.inject", "fault",
                                        site="lock.stall", resource=resource,
                                        rounds=max(1, fault.param))
                return False
        self._held.add(resource)
        self.acquisitions += 1
        if self.profiler.enabled:
            self.profiler.lock_grant(resource)
        if self.sanitizer.enabled:
            self.sanitizer.on_lock_acquire(warp, resource,
                                           site=_SITE_ACQUIRE)
        if self.tracer.enabled:
            self.tracer.instant("lock.acquire", "lock", resource=resource)
        return True

    def release(self, resource: int, warp: int = -1,
                unwind: bool = False) -> None:
        """Unlock ``resource`` (atomicExch(&lock, 0)).

        ``unwind=True`` marks a release performed while propagating an
        exception out of a kernel: the sanitizer accounts it separately
        instead of pairing it against a normal acquire.
        """
        self._held.discard(resource)
        if self.sanitizer.enabled:
            if unwind:
                self.sanitizer.on_unwind_release(warp, resource,
                                                 site=_SITE_RELEASE)
            else:
                self.sanitizer.on_lock_release(warp, resource,
                                               site=_SITE_RELEASE)

    def tick(self) -> None:
        """Age injected lock-holder stalls by one device round.

        Kernels that hold locks across rounds (the two-phase insert
        kernel) call this from their ``after_round`` hook; kernels that
        call :meth:`end_round` get it for free.
        """
        if not self._stalled:
            return
        for resource in list(self._stalled):
            remaining = self._stalled[resource] - 1
            if remaining <= 0:
                del self._stalled[resource]
            else:
                self._stalled[resource] = remaining

    def end_round(self) -> None:
        """Release every lock at the round boundary.

        A device round models one iteration of every warp's Algorithm-1
        loop executing concurrently: locks acquired during the round are
        held against all other warps of that round (producing conflicts)
        and the matching ``atomicExch`` unlocks land at the iteration
        end, i.e. here.  Stalled holders do *not* release — that is the
        fault being modelled — but their stalls age by one round.
        """
        self._held.clear()
        if self.sanitizer.enabled:
            self.sanitizer.on_round_release()
        self.tick()
