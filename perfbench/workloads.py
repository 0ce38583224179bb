"""The benchmark's four workloads: inputs, set-up and execution.

Every workload is a closed loop: one caller submits a batch, waits for
its results, then submits the next.  A workload generates all of its
inputs from the seed before the timed phase, as one *pass*: a fixed,
deterministic list of batches.  The timed phase repeats the pass (each
pass leaves the table in an equivalent state), so the simulated-clock
metrics, which are taken from the first pass, repeat exactly for a
seed while the host clock measures as many passes as the run length
allows.

A batch is a tuple of :class:`Call` objects, each one call into the
public batched API (``insert`` / ``find`` / ``delete`` /
``execute_mixed``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from perfbench.oracle import OP_DELETE, OP_FIND, OP_INSERT, Reference

#: Largest key the generators draw (keys stay far below ``MAX_KEY``).
KEY_CEILING = 1 << 62


@dataclass(frozen=True)
class Call:
    """One call into the batched API."""

    kind: str  # "insert" | "find" | "delete" | "mixed"
    keys: np.ndarray
    values: np.ndarray | None = None
    #: Op codes of a ``"mixed"`` call, aligned with ``keys``.
    ops: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.keys)

    def kind_counts(self) -> dict[str, int]:
        """Operations per kind (``insert`` / ``find`` / ``delete``)."""
        if self.kind != "mixed":
            return {self.kind: len(self.keys)}
        counts = np.bincount(self.ops, minlength=3)
        return {"insert": int(counts[OP_INSERT]),
                "find": int(counts[OP_FIND]),
                "delete": int(counts[OP_DELETE])}


@dataclass
class Inputs:
    """Everything a run needs, generated from the seed before timing."""

    batches: list[tuple[Call, ...]]
    #: Every key any batch or the preload can touch.
    universe: np.ndarray
    preload_keys: np.ndarray
    preload_values: np.ndarray
    #: Table configuration, when the workload fixes one.
    config: object = None

    @property
    def ops_per_pass(self) -> int:
        return sum(len(call) for batch in self.batches for call in batch)


def unique_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct random keys in ``[1, KEY_CEILING)``, shuffled."""
    keys = np.unique(rng.integers(1, KEY_CEILING, count + count // 16 + 16,
                                  dtype=np.uint64))
    return rng.permutation(keys)[:count]


def random_values(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(1, KEY_CEILING, count, dtype=np.uint64)


def scaled(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(base * scale)))


class Workload:
    """Base class; subclasses fill in generation and set-up."""

    name = ""
    why = ""
    #: Kernel engine for ``execute_mixed`` calls (``None`` = host path).
    engine: str | None = None

    def generate(self, seed: int, scale: float) -> Inputs:
        raise NotImplementedError

    def build(self, inputs: Inputs):
        """Construct the table and preload it (the timed set-up)."""
        raise NotImplementedError

    def kernel_costs(self):
        """Per-op compute costs the cost model charges this table."""
        from repro.baselines import DyCuckooAdapter

        return DyCuckooAdapter.KERNEL_COSTS

    def execute(self, table, call: Call):
        """Submit one call and return its result (``None`` for insert)."""
        if call.kind == "insert":
            return table.insert(call.keys, call.values)
        if call.kind == "find":
            return table.find(call.keys)
        if call.kind == "delete":
            return table.delete(call.keys)
        return table.execute_mixed(call.ops, call.keys, call.values,
                                   engine=self.engine)

    @staticmethod
    def tables(table) -> list:
        """The DyCuckoo tables behind ``table`` (one, or one per shard)."""
        return list(getattr(table, "shards", [table]))


def check_call(reference: Reference, call: Call, idx: np.ndarray,
               result) -> int:
    """Apply ``call`` (keys at positions ``idx``) to the reference;
    return the number of mismatching results."""
    if call.kind == "insert":
        reference.insert(idx, call.values)
        return 0
    if call.kind == "find":
        values, found = result
        return reference.find_mismatches(idx, values, found)
    if call.kind == "delete":
        return reference.delete(idx, result)
    return reference.mixed(call.ops, idx, call.values, result.values,
                           result.found, result.removed)


class DynamicChurn(Workload):
    """Section VI dynamic protocol from the minimum geometry."""

    name = "dynamic_churn"
    why = ("paper's grow-then-shrink protocol from minimum geometry: "
           "eviction rounds, hashing, placement and resize migration")
    KEYS = 500_000
    #: Grow-then-shrink cycles per pass, each over its own keys.  Long
    #: eviction chains near beta make one cycle's cost vary by seed, so
    #: a pass holds two independent cycles for that cost to average.
    #: Smaller cycles would hide the chains (they grow with the table).
    CYCLES = 2
    INSERTS_PER_BATCH = 5_000
    RATIO_R = 0.2

    def generate(self, seed: int, scale: float) -> Inputs:
        from repro.workloads import DynamicWorkload

        rng = np.random.default_rng(seed)
        n = scaled(self.KEYS, scale, floor=1_000 * self.CYCLES)
        universe = unique_keys(rng, n)
        batches = []
        for keys in np.array_split(universe, self.CYCLES):
            protocol = DynamicWorkload(
                keys, random_values(rng, len(keys)),
                scaled(self.INSERTS_PER_BATCH, scale, floor=10),
                ratio_r=self.RATIO_R, find_factor=1.0,
                seed=int(rng.integers(1 << 31)))
            # Replay presence to find the keys the protocol leaves
            # behind; a final drain batch deletes them, so every cycle
            # ends with an empty table at the minimum geometry.
            live = Reference(keys)
            for batch in protocol.batches():
                calls = []
                for op in batch.operations:
                    calls.append(Call(op.kind, op.keys, op.values))
                    if op.kind == "insert":
                        live.insert(live.index(op.keys), op.values)
                    elif op.kind == "delete":
                        live.discard(live.index(op.keys))
                batches.append(tuple(calls))
            batches.append((Call("delete",
                                 rng.permutation(live.keys[live.present])),))
        empty = np.zeros(0, dtype=np.uint64)
        return Inputs(batches, universe, empty, empty)

    def build(self, inputs: Inputs):
        from repro import DyCuckooConfig, DyCuckooTable

        return DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                            min_buckets=8))


class YcsbBZipf(Workload):
    """YCSB-B on a preloaded table, as homogeneous find/insert calls."""

    name = "ycsb_b_zipf"
    why = ("1M preloaded records, 95% read zipfian: probe-bound with no "
           "evictions or resizes")
    RECORDS = 1_000_000
    OPS_PER_BATCH = 50_000
    BATCHES_PER_PASS = 20
    #: Generator instances per pass, each with its own scrambled hot
    #: set.  Which hot keys sit in their second bucket moves the probe
    #: cost; four hot sets per pass cut that seed-to-seed swing of the
    #: simulated clock from ~13% to ~4%.
    HOT_SETS = 4
    MIX = "B"

    def _segments(self, seed: int, scale: float) -> list:
        from repro.workloads.ycsb import CORE_WORKLOADS, YcsbWorkload

        per_batch = scaled(self.OPS_PER_BATCH, scale, floor=100)
        per_segment = self.BATCHES_PER_PASS // self.HOT_SETS
        # Every instance draws from the same record keys 1..N.
        return [YcsbWorkload(CORE_WORKLOADS[self.MIX],
                             num_records=scaled(self.RECORDS, scale,
                                                floor=1_000),
                             num_operations=per_batch * per_segment,
                             batch_size=per_batch, zipf_exponent=0.99,
                             seed=seed * self.HOT_SETS + j)
                for j in range(self.HOT_SETS)]

    def _run_batches(self, seed: int, scale: float):
        """``(load phase, run-phase batches)`` over all hot sets."""
        segments = self._segments(seed, scale)
        batches = [batch for segment in segments
                   for batch in segment.run_phase()]
        return segments[0].load_phase(), batches

    def generate(self, seed: int, scale: float) -> Inputs:
        load, run = self._run_batches(seed, scale)
        batches = [tuple(Call(op.kind, op.keys, op.values)
                         for op in batch.operations) for batch in run]
        return Inputs(batches, load.keys, load.keys, load.values)

    def build(self, inputs: Inputs):
        from repro import DyCuckooTable

        table = DyCuckooTable()
        table.insert(inputs.preload_keys, inputs.preload_values)
        return table


class CohortMixed(Workload):
    """Run-structured mixed batches through the cohort kernel engine."""

    name = "cohort_mixed"
    why = ("run-structured 40/40/20 insert/find/delete batches through "
           "execute_mixed on the cohort engine, pre-sized at 0.65-0.8 fill")
    engine = "cohort"
    BUCKETS = 1024          # per subtable: 4 x 1024 x 32 = 131072 slots
    KEYSPACE_PER_SLOT = 1.08
    #: Run lengths, cycled over the runs of a pass.  Eleven lengths
    #: against ten-run blocks give every kind the whole range, and the
    #: same batch sizes for every seed, so the seed only draws keys.
    RUN_LENGTHS = tuple(range(1_000, 4_001, 300))
    RUNS_PER_BATCH = 2
    BLOCKS_PER_PASS = 10
    #: Run kinds of one block of five batches (two runs each): 40/40/20
    #: by run count, and the same batch mix in every block, so batch
    #: times form the same mixture for every seed.  No two adjacent runs
    #: share a kind, so every batch executes as exactly two runs.
    BLOCK = (OP_INSERT, OP_FIND, OP_INSERT, OP_DELETE, OP_FIND,
             OP_INSERT, OP_FIND, OP_DELETE, OP_INSERT, OP_FIND)

    def _config(self, scale: float):
        from repro import DyCuckooConfig

        buckets = 1 << max(3, round(math.log2(self.BUCKETS * scale)))
        return DyCuckooConfig(initial_buckets=buckets, auto_resize=False)

    def generate(self, seed: int, scale: float) -> Inputs:
        rng = np.random.default_rng(seed)
        config = self._config(scale)
        slots = config.num_tables * config.initial_buckets \
            * config.bucket_capacity
        space = unique_keys(rng, int(slots * self.KEYSPACE_PER_SLOT))
        # Inserts and deletes draw uniformly from the keyspace, so the
        # live share settles at insert/(insert+delete) = 2/3 of it:
        # about 0.72 fill.  Preload that steady state.
        preload = space[rng.random(len(space)) < 2 / 3]
        kinds = np.tile(self.BLOCK, self.BLOCKS_PER_PASS)
        lengths = np.resize([scaled(n, scale) for n in self.RUN_LENGTHS],
                            len(kinds))
        batches = []
        for first in range(0, len(kinds), self.RUNS_PER_BATCH):
            runs = range(first, first + self.RUNS_PER_BATCH)
            ops = np.concatenate([np.full(lengths[r], kinds[r],
                                          dtype=np.int64) for r in runs])
            keys = space[rng.integers(0, len(space), len(ops))]
            batches.append((Call("mixed", keys,
                                 random_values(rng, len(ops)), ops),))
        return Inputs(batches, space, preload,
                      random_values(rng, len(preload)), config)

    def build(self, inputs: Inputs):
        from repro import DyCuckooTable

        table = DyCuckooTable(inputs.config)
        table.insert(inputs.preload_keys, inputs.preload_values)
        return table


class ShardedYcsbA(YcsbBZipf):
    """YCSB-A through ``ShardedDyCuckoo.execute_mixed`` (default executor)."""

    name = "sharded_ycsb_a"
    why = ("4 shards, 1M preloaded records, 50/50 read/update zipfian in "
           "100k-op execute_mixed batches: scatter/gather and updates")
    OPS_PER_BATCH = 100_000
    MIX = "A"
    NUM_SHARDS = 4

    def generate(self, seed: int, scale: float) -> Inputs:
        load, run = self._run_batches(seed, scale)
        batches = []
        for batch in run:
            code = {"find": OP_FIND, "insert": OP_INSERT}
            ops = np.concatenate([np.full(len(op), code[op.kind],
                                          dtype=np.int64)
                                  for op in batch.operations])
            keys = np.concatenate([op.keys for op in batch.operations])
            values = np.concatenate([
                op.values if op.values is not None
                else np.zeros(len(op), dtype=np.uint64)
                for op in batch.operations])
            batches.append((Call("mixed", keys, values, ops),))
        return Inputs(batches, load.keys, load.keys, load.values)

    def build(self, inputs: Inputs):
        from repro import ShardedDyCuckoo

        table = ShardedDyCuckoo(num_shards=self.NUM_SHARDS)
        table.insert(inputs.preload_keys, inputs.preload_values)
        return table

    def kernel_costs(self):
        from repro import ShardedDyCuckoo

        return ShardedDyCuckoo.KERNEL_COSTS


WORKLOADS = {w.name: w for w in (DynamicChurn(), YcsbBZipf(), CohortMixed(),
                                 ShardedYcsbA())}
