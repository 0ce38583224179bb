"""Benchmark harness: runs a workload, checks it, prints its metrics.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0``
sets the workload up three times (reporting the median set-up time),
then repeats its pass in a closed loop until ``S`` seconds of host time
and at least :data:`MIN_BATCHES` batches are measured, and prints every
end-to-end metric.  ``--trace 1`` instead runs one untraced pass, one
pass under per-layer spans and one with ``Telemetry()`` attached, and
prints the per-layer metrics.  ``--workload all`` runs every workload,
each in its own process, one after another.

Host times are divided by the machine-speed factor of
:class:`SpeedProbe`, a fixed synthetic job timed after every batch, so
the host metrics hold steady while the shared machine's speed drifts.
Every result is checked against :class:`perfbench.oracle.Reference`
outside the timed region; the table is validated and its full contents
compared with the reference after the last pass.  Any mismatch or
raised error makes the run exit non-zero.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> ``{"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench.oracle import Reference
from perfbench.tracing import LAYERS, LAZY_MODULES, SpanRecorder
from perfbench.workloads import WORKLOADS, Workload, check_call

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = Path(__file__).resolve().parent / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Batches whose probes normalize one batch's time: wide enough to
#: outvote a single probe's jitter, narrow enough (well under a second)
#: to follow the machine's speed.
PROBE_WINDOW = 11
#: Half-width, as a share of the samples, of the rank window a
#: reported percentile averages over.
QUANTILE_WINDOW = 0.025
#: Speed probes taken before and after each set-up repeat.
SETUP_PROBES = 5
#: Fewest batches a timed phase measures, so that the p95 batch time
#: has at least ten samples beyond it.
MIN_BATCHES = 200

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "host_mops": ("Mops/s", "higher"),
    "host_batch_ms_p50": ("ms", "lower"),
    "host_batch_ms_p95": ("ms", "lower"),
    "sim_mops": ("Mops/s", "higher"),
    "sim_batch_us_p95": ("us", "lower"),
    "bytes_per_entry": ("B/entry", "lower"),
    "setup_s": ("s", "lower"),
    "host_peak_rss_mb": ("MB", "lower"),
    "op_success_rate": ("ratio", "higher"),
}

_SELF_S = [(f"{layer}.self_s", "s") for layer in LAYERS]

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = dict(_SELF_S + [
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("telemetry.overhead_ratio", "ratio"),
    ("core.hashing.keys_per_op", "keys/op"),
    ("core.subtable.place_round.self_s", "s"),
    ("core.subtable.update_existing.self_s", "s"),
    ("core.subtable.lookup.self_s", "s"),
    ("core.subtable.erase.self_s", "s"),
    ("core.subtable.place_useful_ratio", "ratio"),
    ("core.subtable.rows_per_op", "rows/op"),
    ("core.table.insert.self_s", "s"),
    ("core.table.find.self_s", "s"),
    ("core.table.delete.self_s", "s"),
    ("core.resize.pairs_migrated", "count"),
    ("core.resize.resizes", "count"),
    ("core.resize.theta_out_of_band_batches", "count"),
    ("core.batch_ops.runs_per_kop", "runs/kop"),
    ("gpusim.cohort.rounds_per_kop", "rounds/kop"),
    ("gpusim.cohort.useful_vote_ratio", "ratio"),
    ("gpusim.cohort.lock_conflict_ratio", "ratio"),
    ("shard.imbalance", "ratio"),
    ("sim.bucket_reads_per_op", "reads/op"),
    ("sim.bucket_writes_per_op", "writes/op"),
    ("sim.lock_conflicts_per_op", "count/op"),
    ("sim.chain_hops_per_op", "hops/op"),
    ("sim.evictions_per_op", "count/op"),
    ("sim.eviction_rounds", "count"),
    ("sim.rehashed_entries_per_op", "count/op"),
])


class SpeedProbe:
    """Fixed synthetic work, timed between batches to track machine speed.

    Gathers and compares 32-slot uint64 rows from a 16 MiB array and
    sorts a small key array: the same kinds of numpy work as a bucket
    probe and a batch dedupe, independent of the program under test.
    On a shared 2-vCPU machine the speed of such work drifts by +-25%
    over tens of seconds; host times are divided by :meth:`factor`, the
    probe's median time over the same interval relative to
    :data:`REFERENCE_S`, so the host metrics read in seconds of a
    machine running the probe in exactly ``REFERENCE_S``.
    """

    #: Probe time on the 2-vCPU container the benchmark was sized on.
    REFERENCE_S = 0.004

    def __init__(self) -> None:
        rng = np.random.default_rng(0x5EED)
        self.rows = rng.integers(1, 1 << 62, (1 << 16, 32), dtype=np.uint64)
        self.index = rng.integers(0, len(self.rows), 8192)
        self.codes = self.rows[self.index, 7]
        self.keys = rng.integers(1, 1 << 62, 8192, dtype=np.uint64)

    def __call__(self) -> float:
        start = perf_counter()
        match = self.rows[self.index] == self.codes[:, None]
        match.any(axis=1)
        match.argmax(axis=1)
        np.unique(self.keys)
        return perf_counter() - start

    def factor(self, samples) -> float:
        """Machine slowness over ``samples`` relative to the reference."""
        return statistics.median(samples) / self.REFERENCE_S


class RunAborted(Exception):
    """A call raised; the table no longer matches the reference."""


@dataclass
class PassResult:
    """Measurements of one pass over the workload's batches."""

    host_s: list[float] = field(default_factory=list)
    sim_s: list[float] = field(default_factory=list)
    bytes_per_entry: list[float] = field(default_factory=list)
    ops: int = 0
    #: Cost-model inputs summed over the pass (``TableStats`` names).
    counters: dict[str, int] = field(default_factory=dict)
    #: Upsizes plus downsizes, from the tables' own statistics.
    resizes: int = 0
    theta_out_of_band: int = 0
    #: Speed-probe time after each batch (see :class:`SpeedProbe`).
    probe_s: list[float] = field(default_factory=list)

    @property
    def host_total(self) -> float:
        return sum(self.host_s)

    def normalized_host_s(self, probe: SpeedProbe) -> list[float]:
        """Batch times, each divided by the machine-speed factor of the
        probes taken after the :data:`PROBE_WINDOW` nearest batches."""
        half = PROBE_WINDOW // 2
        return [t / probe.factor(self.probe_s[max(0, i - half):i + half + 1])
                for i, t in enumerate(self.host_s)]


def _kernel_counters(results) -> dict[str, int]:
    """Map summed ``KernelRunResult``s onto cost-model counter names."""
    totals = {"bucket_reads": 0, "eviction_rounds": 0,
              "lock_acquisitions": 0, "lock_conflicts": 0, "evictions": 0}
    for result in results:
        kernel = result.kernel
        if kernel is None:
            continue
        totals["bucket_reads"] += kernel.memory_transactions
        totals["eviction_rounds"] += kernel.rounds
        totals["lock_acquisitions"] += kernel.lock_acquisitions
        totals["lock_conflicts"] += kernel.lock_conflicts
        totals["evictions"] += kernel.evictions
    return totals


class Runner:
    """Executes passes over one table and checks every result."""

    def __init__(self, workload: Workload, inputs, table,
                 reference: Reference, probe: SpeedProbe) -> None:
        from benchmarks.common import SCALE
        from repro.gpusim.metrics import CostModel

        self.workload = workload
        self.inputs = inputs
        self.table = table
        self.reference = reference
        self.cost_model = CostModel(overhead_scale=SCALE)
        self.costs = workload.kernel_costs()
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Reference positions of every call's keys, by call identity.
        self._positions = {id(call): reference.index(call.keys)
                           for batch in inputs.batches for call in batch}

    def _compute_ns(self, batch) -> float:
        per_kind = {"insert": self.costs.insert_ns,
                    "find": self.costs.find_ns,
                    "delete": self.costs.delete_ns}
        total = weighted = 0
        for call in batch:
            for kind, count in call.kind_counts().items():
                total += count
                weighted += count * per_kind[kind]
        return weighted / total if total else self.costs.find_ns

    def run_pass(self, recorder: SpanRecorder | None = None) -> PassResult:
        workload, table = self.workload, self.table
        tables = workload.tables(table)
        out = PassResult()
        counters: dict[str, int] = {}
        for index, batch in enumerate(self.inputs.batches):
            before = table.stats.snapshot()
            if recorder is not None:
                recorder.batch = index
            results = []
            start = perf_counter()
            try:
                for call in batch:
                    results.append(workload.execute(table, call))
            except Exception:
                # Boundary of the run: report the failure, then stop,
                # because the table no longer matches the reference.
                self.errors.append(traceback.format_exc())
                lost = sum(len(call) for call in batch[len(results):])
                self.attempted += lost
                self.failed += lost
                raise RunAborted(self.errors[-1]) from None
            out.host_s.append(perf_counter() - start)
            delta = table.stats.delta(before)
            out.resizes += delta["upsizes"] + delta["downsizes"]
            if workload.engine is not None:
                delta = _kernel_counters(results)
                launches = sum(result.runs for result in results)
            elif batch[0].kind == "mixed":
                launches = sum(result.runs for result in results)
            else:
                launches = len(batch)
            ops = sum(len(call) for call in batch)
            out.ops += ops
            out.sim_s.append(self.cost_model.batch_seconds(
                delta, ops, self._compute_ns(batch),
                kernel_launches=launches))
            for name, value in delta.items():
                counters[name] = counters.get(name, 0) + value
            for call, result in zip(batch, results):
                self.attempted += len(call)
                self.failed += check_call(self.reference, call,
                                          self._positions[id(call)], result)
            footprint = table.memory_footprint()
            if footprint.live_entries:
                out.bytes_per_entry.append(footprint.total_bytes
                                           / footprint.live_entries)
            if any(not (t.config.alpha <= t.load_factor <= t.config.beta)
                   for t in tables):
                out.theta_out_of_band += 1
            out.probe_s.append(self.probe())
        out.counters = counters
        return out

    def final_check(self) -> None:
        """Validate the table and compare its contents with the model."""
        try:
            self.table.validate()
        except AssertionError as exc:
            self.errors.append(f"validate() failed: {exc}")
        keys, values = self.table.items()
        wrong = self.reference.contents_mismatches(keys, values)
        if wrong:
            self.errors.append(f"table contents differ from the reference "
                               f"in {wrong} entries")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def _context(workload: Workload, args, inputs) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "git_commit": commit,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "ops_per_pass": inputs.ops_per_pass,
            "batches_per_pass": len(inputs.batches)}


def _percentile(values, q: float) -> float:
    """Mean of the order statistics within :data:`QUANTILE_WINDOW` of
    the ranks around the ``q``-th percentile.

    On smooth data this is the sample percentile.  Where the batch
    times split into modes it stays steady, where the sample percentile
    jumps across the gap: dynamic_churn's growth and shrink batches
    (about 30 ms and 13 ms) each make up half of its batches.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    centre = q / 100 * (len(ordered) - 1)
    half = max(1, round(QUANTILE_WINDOW * len(ordered)))
    low = max(0, int(np.floor(centre)) - half)
    high = min(len(ordered), int(np.ceil(centre)) + half + 1)
    return float(ordered[low:high].mean())


def end_to_end_metrics(passes: list[PassResult], setup_times: list[float],
                       runner: Runner) -> dict[str, float]:
    """End-to-end metrics; host times are speed-normalized."""
    host = [t for p in passes for t in p.normalized_host_s(runner.probe)]
    ops = sum(p.ops for p in passes)
    first = passes[0]
    return {
        "host_mops": ops / sum(host) / 1e6,
        "host_batch_ms_p50": _percentile(host, 50) * 1e3,
        "host_batch_ms_p95": _percentile(host, 95) * 1e3,
        # The simulated clock is deterministic: read it from the first
        # pass, which every run of a seed executes identically.
        "sim_mops": first.ops / sum(first.sim_s) / 1e6,
        "sim_batch_us_p95": _percentile(first.sim_s, 95) * 1e6,
        "bytes_per_entry": float(np.mean(first.bytes_per_entry)),
        "setup_s": statistics.median(setup_times),
        "host_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_success_rate": 1.0 - runner.failed / max(1, runner.attempted),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(recorder: SpanRecorder, plain: PassResult,
                      traced: PassResult, telemetry: PassResult,
                      num_shards: int, probe: SpeedProbe
                      ) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of the traced pass.

    Self times are raw host seconds of the traced pass, so they add up
    with ``trace.unattributed_s`` to ``trace.wall_s``; the overhead
    ratios compare speed-normalized pass times.
    """
    summary = recorder.summary()
    functions = summary["functions"]

    def fn(name: str) -> dict:
        return functions.get(name, {"self_s": 0.0, "items": 0, "extra": {}})

    def extra(names, key: str) -> int:
        return sum(fn(name)["extra"].get(key, 0) for name in names)

    ops = traced.ops
    kops = ops / 1000
    wall = traced.host_total
    metrics = {f"{layer}.self_s": self_s
               for layer, self_s in summary["layers"].items()}
    place = fn("core.subtable.place_round")
    rows = extra(["core.subtable.place_round"], "rows") + sum(
        fn(f"core.subtable.{name}")["items"]
        for name in ("lookup", "update_existing", "erase", "bucket_keys"))
    cohort = [f"gpusim.cohort.cohort_{op}"
              for op in ("find", "delete", "insert")]
    lock_attempts = (extra(cohort, "lock_acquisitions")
                     + extra(cohort, "lock_conflicts"))
    counters = traced.counters
    metrics.update({
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(summary["layers"].values()),
        "trace.overhead_ratio": _ratio(
            sum(traced.normalized_host_s(probe)),
            sum(plain.normalized_host_s(probe))),
        "telemetry.overhead_ratio": _ratio(
            sum(telemetry.normalized_host_s(probe)),
            sum(plain.normalized_host_s(probe))),
        "core.hashing.keys_per_op": _ratio(
            recorder.layer_items("core.hashing"), ops),
        "core.subtable.place_round.self_s": place["self_s"],
        "core.subtable.update_existing.self_s":
            fn("core.subtable.update_existing")["self_s"],
        "core.subtable.lookup.self_s": fn("core.subtable.lookup")["self_s"],
        "core.subtable.erase.self_s": fn("core.subtable.erase")["self_s"],
        "core.subtable.place_useful_ratio": _ratio(
            place["extra"].get("useful", 0), place["items"]),
        "core.subtable.rows_per_op": _ratio(rows, ops),
        "core.table.insert.self_s": fn("core.table.insert")["self_s"],
        "core.table.find.self_s": fn("core.table.find")["self_s"],
        "core.table.delete.self_s": fn("core.table.delete")["self_s"],
        "core.resize.pairs_migrated": extra(
            ["core.resize.drain_migration", "core.resize.migrate_on_access",
             "core.resize.finalize_migration"], "pairs"),
        "core.resize.resizes": traced.resizes,
        "core.resize.theta_out_of_band_batches": traced.theta_out_of_band,
        "core.batch_ops.runs_per_kop": _ratio(
            extra(["core.batch_ops.execute_mixed"], "runs"), kops),
        "gpusim.cohort.rounds_per_kop": _ratio(extra(cohort, "rounds"), kops),
        "gpusim.cohort.useful_vote_ratio": _ratio(
            extra(["gpusim.cohort.cohort_insert"], "completed"),
            extra(["gpusim.cohort.cohort_insert"], "votes")),
        "gpusim.cohort.lock_conflict_ratio": _ratio(
            extra(cohort, "lock_conflicts"), lock_attempts),
        "shard.imbalance": recorder.shard_imbalance(num_shards),
    })
    for name in ("bucket_reads", "bucket_writes", "lock_conflicts",
                 "chain_hops", "evictions", "rehashed_entries"):
        metrics[f"sim.{name}_per_op"] = _ratio(counters.get(name, 0), ops)
    metrics["sim.eviction_rounds"] = counters.get("eviction_rounds", 0)
    return metrics, summary


def _set_up(workload: Workload, seed: int, scale: float, repeats: int,
            probe: SpeedProbe):
    """Generate inputs and build the table ``repeats`` times; keep the last.

    Returns ``(inputs, table, raw seconds, normalized seconds)`` per
    repeat.  Each repeat starts afresh, so the timing covers the
    program's input generators, table construction and preload; probes
    just before and after it give its machine-speed factor.
    """
    raw, normalized = [], []
    inputs = table = None
    for _ in range(repeats):
        inputs = table = None
        gc.collect()
        samples = [probe() for _ in range(SETUP_PROBES)]
        start = perf_counter()
        inputs = workload.generate(seed, scale)
        table = workload.build(inputs)
        raw.append(perf_counter() - start)
        samples += [probe() for _ in range(SETUP_PROBES)]
        normalized.append(raw[-1] / probe.factor(samples))
    return inputs, table, raw, normalized


def run_workload(args) -> tuple[dict, bool]:
    """Run one workload; returns ``(result line, correct)``."""
    from repro import Telemetry

    workload = WORKLOADS[args.workload]
    for module in LAZY_MODULES:
        importlib.import_module(module)
    repeats = 1 if args.trace else SETUP_REPEATS
    probe = SpeedProbe()
    inputs, table, setup_raw, setup_times = _set_up(
        workload, args.seed, args.scale, repeats, probe)
    reference = Reference(inputs.universe,
                          any_duplicate=workload.engine is not None)
    reference.insert(reference.index(inputs.preload_keys),
                     inputs.preload_values)
    runner = Runner(workload, inputs, table, reference, probe)
    context = _context(workload, args, inputs)
    artifact: dict = {"context": context}
    out_dir = Path(args.out)
    stem = f"{workload.name}-seed{args.seed}"
    metrics: dict[str, float] = {}
    passes: list[PassResult] = []
    try:
        if args.trace:
            plain = runner.run_pass()
            recorder = SpanRecorder()
            with recorder.patched():
                traced = runner.run_pass(recorder)
            table.set_telemetry(Telemetry())
            try:
                with_telemetry = runner.run_pass()
            finally:
                table.set_telemetry(None)
            passes = [plain, traced, with_telemetry]
            metrics, summary = per_layer_metrics(
                recorder, plain, traced, with_telemetry,
                len(workload.tables(table)), probe)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{stem}.layers.json").write_text(json.dumps({
                "context": context, "metrics": metrics,
                "layers": summary["layers"],
                "functions": summary["functions"]}, indent=1))
            recorder.write_chrome_trace(out_dir / f"{stem}.trace.json")
            units = PER_LAYER
        else:
            host = 0.0
            while (not passes or host < args.seconds
                   or sum(len(p.host_s) for p in passes) < MIN_BATCHES):
                passes.append(runner.run_pass())
                host += passes[-1].host_total
            metrics = end_to_end_metrics(passes, setup_times, runner)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        runner.final_check()
    except RunAborted:
        units = {}
    context.update({"passes": len(passes),
                    "ops_measured": sum(p.ops for p in passes),
                    "batches_measured": sum(len(p.host_s) for p in passes),
                    "pass_host_s": [p.host_total for p in passes],
                    "pass_sim_s": [sum(p.sim_s) for p in passes],
                    "pass_probe_s": [statistics.median(p.probe_s)
                                     for p in passes],
                    "setup_s_samples": setup_times,
                    "setup_s_raw_samples": setup_raw})
    if passes and not args.trace:
        raw_host = [t for p in passes for t in p.host_s]
        context["raw_host"] = {
            "host_mops": context["ops_measured"] / sum(raw_host) / 1e6,
            "host_batch_ms_p50": _percentile(raw_host, 50) * 1e3,
            "host_batch_ms_p95": _percentile(raw_host, 95) * 1e3,
            "setup_s": statistics.median(setup_raw)}
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    artifact.update(result)
    artifact["errors"] = runner.errors
    artifact["op_error_rate"] = runner.failed / max(1, runner.attempted)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "traced" if args.trace else "result"
    (out_dir / f"{stem}.{suffix}.json").write_text(
        json.dumps(artifact, indent=1))
    return result, runner.correct


def _print_result(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:15s} {name:40s} {metric['value']:.6g} "
              f"{metric['unit']}")
    rate = result["failed"] / max(1, result["attempted"])
    print(f"{workload:15s} {'op_error_rate':40s} {rate:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve().parent
                                   / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), "--out", str(args.out)]
        child = subprocess.run(cmd, capture_output=True, text=True,
                               cwd=ROOT)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            sys.stderr.write(child.stderr)
        if not lines:
            continue
        result = json.loads(lines[-1])
        _print_result(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds the timed phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size factor (smoke runs use ~0.01)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for result, layer and trace files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, correct = run_workload(args)
    _print_result(args.workload, result)
    print(json.dumps(result))
    return 0 if correct else 1
