"""Golden identity pin for the host insert path.

The host path's eviction rounds are an implementation detail that must
not move any observable: table contents (down to the slot each entry
sits in), ``TableStats``, the victim-choice counter, the telemetry
event stream and metrics, and the deep-profiler snapshot.  Each
scenario below drives one family of insert paths and compares SHA-256
digests of those observables with values recorded from the reference
implementation:

* ``grow_shrink`` — growth and shrink cycles with incremental epochs,
  migrate-on-access splits and a small per-batch drain budget;
* ``trickle_spill`` — narrow [alpha, beta] band and tiny buckets, so
  downsize migration slices spill residuals with the shrinking
  subtable excluded (the ``stall_to_stash`` spill path);
* ``oneshot_spill`` — manual synchronous downsizes whose residual
  spill runs with ``excluded=`` set and no stash fallback;
* ``stash_faults`` — a fault plan firing ``insert.evict`` and aborting
  upsizes, so keys park in the stash and later drain back.

Each scenario also runs without instruments; its contents and counters
must equal the instrumented run's (the zero-overhead contract).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.config import DyCuckooConfig
from repro.core.table import DyCuckooTable
from repro.errors import ResizeError
from repro.faults import FaultPlan
from repro.telemetry import Profiler, Telemetry


def _keys(count, seed):
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(1, 1 << 62, count * 2,
                                  dtype=np.int64))[:count].astype(np.uint64)


def _grow_shrink(table):
    keys = _keys(4000, 1)
    outputs = []
    for cycle in range(2):
        for index, start in enumerate(range(0, len(keys), 100)):
            if index % 4 == 3:
                # A bound-driven style lazy epoch: the next batch meets
                # full unmigrated buckets and splits them on access.
                table._resizer.open_upsize_epoch()
            batch = keys[start:start + 100]
            # Re-insert a slice of stored keys: the update pass.
            again = keys[max(0, start - 30):start]
            table.insert(np.concatenate([batch, again]),
                         np.concatenate([batch, again]) * np.uint64(cycle + 3))
            outputs.append(table.find(keys[:start + 100:7]))
        for start in range(0, len(keys), 200):
            outputs.append(table.delete(keys[start:start + 200]))
    return outputs


def _trickle_spill(table):
    keys = _keys(1500, 2)
    outputs = []
    for cycle in range(3):
        for start in range(0, len(keys), 150):
            batch = keys[start:start + 150]
            table.insert(batch, batch + np.uint64(cycle))
        for start in range(0, len(keys), 150):
            outputs.append(table.delete(keys[start:start + 150]))
            outputs.append(table.find(keys[::11]))
    return outputs


def _oneshot_spill(table):
    keys = _keys(48, 4)
    table.insert(keys, keys * np.uint64(5))
    outputs = []
    for _ in range(6):
        try:
            table.downsize()
        except ResizeError as exc:
            outputs.append(str(exc))
        outputs.append(table.find(keys))
    return outputs


def _stash_faults(table):
    table.set_fault_plan(FaultPlan(seed=3, rates={
        "insert.evict": 0.4, "resize.abort.trigger": 0.6}))
    keys = _keys(3000, 3)
    outputs = []
    for start in range(0, len(keys), 200):
        batch = keys[start:start + 200]
        table.insert(batch, batch ^ np.uint64(0xFF))
        outputs.append(table.find(keys[:start + 200:5]))
    for start in range(0, len(keys), 400):
        outputs.append(table.delete(keys[start:start + 400:2]))
    return outputs


SCENARIOS = {
    "grow_shrink": (
        dict(initial_buckets=8, min_buckets=8, bucket_capacity=8,
             migration_budget=2, seed=11),
        _grow_shrink),
    "trickle_spill": (
        dict(initial_buckets=8, min_buckets=4, bucket_capacity=4,
             alpha=0.45, beta=0.55, migration_budget=1, seed=12),
        _trickle_spill),
    "oneshot_spill": (
        dict(initial_buckets=8, min_buckets=2, bucket_capacity=2,
             auto_resize=False, seed=13),
        _oneshot_spill),
    "stash_faults": (
        dict(initial_buckets=16, min_buckets=8, bucket_capacity=8,
             stash_capacity=4096, seed=14),
        _stash_faults),
}

#: Digests recorded from the reference (per-subtable loop) insert path.
GOLDEN = {
    "grow_shrink": (
        "f6b71b969ad085b25a819b907115ad53d1ae9a60bc7ae15c40b9fd9b0bca2f3d",
        "32b8ba339837e4007148f623f2b786dae1766166aaa82d43c30c5843e7bcaffe"),
    "oneshot_spill": (
        "19e51db6777675fd752ae5746b09d9549c5ea019f796d4e4c76647e9e84075d4",
        "b3f8aea4f9a8308835a5e6ebc5cb061bcc738a8ec47bd2ec1a6e3dc66b6f53cc"),
    "stash_faults": (
        "54f5c09fb691fb9134271ed2fbdb3751065c91669f810179576796de77004289",
        "e45f98dbf90f72e4206fae9673a60746e3543f0de5c3a23f559cfd060535ee5e"),
    "trickle_spill": (
        "d301c984540f97569fc68114da637db55c8f96bc51593638a859a77e61d0719c",
        "5f658bad7dda73a29350ee9beceace69ee19da59a6f897279eb72fee15105cf8"),
}


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"unserializable {type(obj)!r}")


def _digest(obj) -> str:
    blob = json.dumps(obj, default=_plain, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _state(table, outputs):
    subtables = []
    for st in table.subtables:
        mig = st.migration
        subtables.append({
            "n_buckets": st.n_buckets, "size": st.size,
            "keys": hashlib.sha256(st.keys.tobytes()).hexdigest(),
            "values": hashlib.sha256(st.values.tobytes()).hexdigest(),
            "migration": None if mig is None else [
                mig.kind, mig.old_n, mig.new_n, mig.pending,
                mig.migrated.tolist()],
        })
    stash_codes, stash_values = table.stash.export_entries()
    return {
        "subtables": subtables,
        "stash": [stash_codes.tolist(), stash_values.tolist()],
        "stats": table.stats.snapshot(),
        "victim_counter": table._victim_counter,
        "outputs": [out if isinstance(out, str) else list(out)
                    if isinstance(out, tuple) else out for out in outputs],
    }


def _streams(telemetry, profiler):
    events = [[e.name, e.category, e.phase, e.ts_us, e.dur_us, e.depth,
               e.args] for e in telemetry.tracer.events]
    return {"events": events, "metrics": telemetry.metrics.to_dict(),
            "profiler": profiler.snapshot()}


def run_scenario(name):
    """Return ``(state_digest, stream_digest, bare_state_digest, table,
    telemetry)`` for one scenario."""
    config, drive = SCENARIOS[name]
    bare = DyCuckooTable(DyCuckooConfig(**config))
    bare_state = _digest(_state(bare, drive(bare)))
    table = DyCuckooTable(DyCuckooConfig(**config))
    telemetry = table.set_telemetry(Telemetry())
    profiler = table.set_profiler(Profiler())
    outputs = drive(table)
    return (_digest(_state(table, outputs)),
            _digest(_streams(telemetry, profiler)), bare_state, table,
            telemetry)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_insert_path_matches_golden_digests(name):
    state, streams, bare_state, table, _tel = run_scenario(name)
    table.validate()
    assert bare_state == state, "instruments perturbed the table"
    assert (state, streams) == GOLDEN[name]


def test_scenarios_reach_their_paths():
    """Each scenario exercises the path it is there to pin."""
    *_, grow, grow_tel = run_scenario("grow_shrink")
    reasons = {e.args.get("reason") for e in grow_tel.tracer.instants(
        "resize.migrate")}
    assert "access" in reasons and "budget" in reasons
    assert grow.stats.downsizes and grow.stats.evictions
    *_, trickle, _ = run_scenario("trickle_spill")
    assert trickle.stats.residuals and trickle.stats.downsizes
    *_, oneshot, _ = run_scenario("oneshot_spill")
    assert oneshot.stats.residuals and oneshot.stats.downsizes
    *_, stashed, stash_tel = run_scenario("stash_faults")
    assert stashed.faults.invocations().get("insert.evict")
    assert stash_tel.tracer.instants("fault.inject")
    assert stashed.stats.stash_pushes and stashed.stats.stash_drained
