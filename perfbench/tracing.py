"""Per-layer host-time tracing, applied from outside the program.

:class:`SpanRecorder` wraps the public functions of each layer module
with ``perf_counter`` spans.  A module-level function is replaced in
every ``repro`` module that binds it, which is where its callers look
it up (for example ``repro.core.table.first_occurrence_mask`` and
``repro.shard.sharded._execute_mixed``); a method is replaced on its
class.  Nothing under ``src/`` changes, and :meth:`SpanRecorder.patched`
restores every original on exit.

Each span keeps its name, layer, start, end, parent span, the batch id
the harness set, an item count taken at the same boundary (keys hashed,
bucket rows gathered, ops submitted) and a few counters read from the
call's result.  Self time is a span's duration minus its direct
children's, so the layers' self times plus the unattributed remainder
add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Modules the program imports lazily; loaded before patching, so every
#: binding exists to be found, and before timing, so no pass pays for
#: the import.
LAZY_MODULES = ("repro.core.table", "repro.core.batch_ops",
                "repro.shard.sharded", "repro.kernels", "repro.gpusim.cohort")


def _first_len(args, kwargs, out):
    return len(args[1])


def _zero(args, kwargs, out):
    return 0


def _codes_len(args, kwargs, out):
    codes = kwargs.get("codes")
    return len(codes if codes is not None else args[1])


def _bucket_for_len(args, kwargs, out):
    return len(out)


def _encoded_batch_len(args, kwargs, out):
    return len(args[0].codes)


def _arg0_len(args, kwargs, out):
    return len(args[0])


def _place_round_extra(args, kwargs, out):
    updated, placed, _full_leader = out
    n_updated = int(updated.sum())
    return {"useful": n_updated + int(placed.sum()),
            "rows": len(updated) - n_updated}


def _pairs_extra(args, kwargs, out):
    return {"pairs": int(out)}


def _runs_extra(args, kwargs, out):
    return {"runs": int(out.runs)}


def _kernel_extra(args, kwargs, out):
    result = out[-1] if isinstance(out, tuple) else out
    return {"rounds": result.rounds, "votes": result.votes,
            "completed": result.completed_ops,
            "lock_acquisitions": result.lock_acquisitions,
            "lock_conflicts": result.lock_conflicts}


#: (layer, module, attribute, items, extra).  ``attribute`` is a module
#: function or ``Class.method``; ``items`` counts the work at the span
#: boundary; ``extra`` reads counters from the call's result.
TARGETS = (
    ("core.hashing", "repro.core.hashing", "UniversalHash.raw",
     _first_len, None),
    ("core.hashing", "repro.core.hashing", "UniversalHash.bucket",
     _first_len, None),
    # Masks precomputed hashes into buckets: no key is hashed.
    ("core.hashing", "repro.core.hashing", "UniversalHash.bucket_from_raw",
     _zero, None),
    ("core.hashing", "repro.core.hashing", "PairHash.partition",
     _first_len, None),
    ("core.hashing", "repro.core.hashing", "PairHash.raw_mod",
     _first_len, None),
    ("core.hashing", "repro.core.hashing", "PairHash.tables_for",
     _first_len, None),
    ("core.hashing", "repro.core.hashing", "PairHash.alternate_table",
     _first_len, None),
    ("core.grouping", "repro.core.grouping", "rank_within_group",
     _arg0_len, None),
    ("core.grouping", "repro.core.grouping", "first_occurrence_mask",
     _arg0_len, None),
    ("core.grouping", "repro.core.grouping", "last_occurrence_mask",
     _arg0_len, None),
    ("core.distribution", "repro.core.distribution", "theorem1_weights",
     _zero, None),
    ("core.distribution", "repro.core.distribution", "WeightedRouter.choose",
     _first_len, None),
    # Bucket-row probes: items are rows gathered (one per key).
    ("core.subtable", "repro.core.subtable", "Subtable.lookup",
     _first_len, None),
    ("core.subtable", "repro.core.subtable", "Subtable.update_existing",
     _first_len, None),
    ("core.subtable", "repro.core.subtable", "Subtable.erase",
     _first_len, None),
    ("core.subtable", "repro.core.subtable", "Subtable.bucket_keys",
     _first_len, None),
    ("core.subtable", "repro.core.subtable", "Subtable.place_round",
     _first_len, _place_round_extra),
    ("core.subtable", "repro.core.subtable", "Subtable.swap_slot",
     _zero, None),
    ("core.subtable", "repro.core.subtable",
     "MigrationState.effective_buckets", _zero, None),
    ("core.table", "repro.core.table", "encode_keys", _arg0_len, None),
    ("core.table", "repro.core.table", "DyCuckooTable.insert",
     _first_len, None),
    ("core.table", "repro.core.table", "DyCuckooTable.find",
     _first_len, None),
    ("core.table", "repro.core.table", "DyCuckooTable.delete",
     _first_len, None),
    # The encoded entry points execute_mixed drives: the same work as
    # the public calls, so they carry the same span names.
    ("core.table", "repro.core.table", "DyCuckooTable._insert_encoded",
     _first_len, None),
    ("core.table", "repro.core.table", "DyCuckooTable._find_encoded",
     _first_len, None),
    ("core.table", "repro.core.table", "DyCuckooTable._delete_encoded",
     _first_len, None),
    ("core.table", "repro.core.table", "DyCuckooTable.execute_mixed",
     _first_len, None),
    ("core.table", "repro.core.table", "DyCuckooTable.bucket_for",
     _bucket_for_len, None),
    ("core.resize", "repro.core.resize", "ResizeController.enforce_bounds",
     _zero, None),
    ("core.resize", "repro.core.resize",
     "ResizeController.upsize_for_insert_failure", _zero, None),
    ("core.resize", "repro.core.resize",
     "ResizeController.upsize_under_pressure", _zero, None),
    ("core.resize", "repro.core.resize", "ResizeController.drain_migration",
     _zero, _pairs_extra),
    ("core.resize", "repro.core.resize",
     "ResizeController.migrate_on_access", _zero, _pairs_extra),
    ("core.resize", "repro.core.resize",
     "ResizeController.finalize_migration", _zero, _pairs_extra),
    ("core.batch_ops", "repro.core.batch_ops", "execute_mixed",
     _first_len, _runs_extra),
    ("core.batch_ops", "repro.core.batch_ops", "EncodedBatch.raw",
     _encoded_batch_len, None),
    ("kernels", "repro.kernels.find", "run_find_kernel", _codes_len, None),
    ("kernels", "repro.kernels.delete", "run_delete_kernel",
     _codes_len, None),
    ("kernels", "repro.kernels.insert", "run_voter_insert_kernel",
     _codes_len, None),
    ("gpusim.cohort", "repro.gpusim.cohort", "cohort_find",
     _first_len, _kernel_extra),
    ("gpusim.cohort", "repro.gpusim.cohort", "cohort_delete",
     _first_len, _kernel_extra),
    ("gpusim.cohort", "repro.gpusim.cohort", "cohort_insert",
     _first_len, _kernel_extra),
    ("shard", "repro.shard.sharded", "ShardedDyCuckoo.execute_mixed",
     _first_len, None),
)

#: Every layer, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


def span_name(layer: str, attribute: str) -> str:
    """``core.table.insert`` for ``DyCuckooTable._insert_encoded``."""
    method = attribute.rsplit(".", 1)[-1]
    if method.startswith("_") and method.endswith("_encoded"):
        method = method[1:-len("_encoded")]
    return f"{layer}.{method}"


class Span:
    """One timed call; ``outer`` marks the outermost span of its name."""

    __slots__ = ("name", "layer", "start", "end", "parent", "batch",
                 "items", "extra", "outer")

    def __init__(self, name, layer, parent, batch, outer) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.batch = batch
        self.outer = outer
        self.start = self.end = 0.0
        self.items = 0
        self.extra = None


class SpanRecorder:
    """Collects spans in memory while :meth:`patched` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.batch = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def _wrap(self, fn, name, layer, items, extra):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, self.batch,
                        active[name] == 0)
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                active[name] -= 1
            span.items = items(args, kwargs, out)
            if extra is not None:
                span.extra = extra(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the span wrappers; restore every original on exit."""
        for module in LAZY_MODULES:
            importlib.import_module(module)
        undo = []
        try:
            for layer, module_name, attribute, items, extra in TARGETS:
                module = sys.modules[module_name]
                name = span_name(layer, attribute)
                if "." in attribute:
                    cls_name, method = attribute.split(".")
                    cls = getattr(module, cls_name)
                    raw = inspect.getattr_static(cls, method)
                    fn = (raw.__func__ if isinstance(raw, staticmethod)
                          else raw)
                    wrapped = self._wrap(fn, name, layer, items, extra)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    setattr(cls, method, wrapped)
                    undo.append((cls, method, raw))
                    continue
                fn = getattr(module, attribute)
                wrapped = self._wrap(fn, name, layer, items, extra)
                for mod in list(sys.modules.values()):
                    namespace = getattr(mod, "__dict__", None)
                    if (namespace is None
                            or not getattr(mod, "__name__", "").startswith(
                                "repro")):
                        continue
                    for key, value in list(namespace.items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, fn))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [span.end - span.start - c
                for span, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Per-function and per-layer calls, items and times."""
        selfs = self.self_times()
        functions: dict[str, dict] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        for span, own in zip(self.spans, selfs):
            entry = functions.setdefault(span.name, {
                "layer": span.layer, "calls": 0, "items": 0, "self_s": 0.0,
                "total_s": 0.0, "extra": defaultdict(int)})
            entry["calls"] += 1
            entry["self_s"] += own
            layers[span.layer] += own
            if span.outer:
                # A nested same-name span repeats its parent's work.
                entry["total_s"] += span.end - span.start
                entry["items"] += span.items
                for key, value in (span.extra or {}).items():
                    entry["extra"][key] += value
        for entry in functions.values():
            entry["extra"] = dict(entry["extra"])
        return {"functions": functions, "layers": layers}

    def layer_items(self, layer: str) -> int:
        """Items counted at the outermost spans of ``layer`` only."""
        within = [False] * len(self.spans)
        total = 0
        for i, span in enumerate(self.spans):
            nested = span.parent >= 0 and within[span.parent]
            within[i] = nested or span.layer == layer
            if span.layer == layer and not nested:
                total += span.items
        return total

    def shard_imbalance(self, num_shards: int) -> float:
        """Mean over sharded batches of (largest shard's ops / mean)."""
        per_parent: dict[int, list[int]] = defaultdict(list)
        for span in self.spans:
            if (span.name == "core.batch_ops.execute_mixed"
                    and span.parent >= 0
                    and self.spans[span.parent].layer == "shard"):
                per_parent[span.parent].append(span.items)
        ratios = [max(items) * num_shards / sum(items)
                  for items in per_parent.values() if sum(items)]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-event ``X`` records."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [{"name": span.name, "cat": span.layer, "ph": "X",
                   "ts": (span.start - origin) * 1e6,
                   "dur": (span.end - span.start) * 1e6,
                   "pid": 1, "tid": 1,
                   "args": {"batch": span.batch, "items": span.items}}
                  for span in self.spans]
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
