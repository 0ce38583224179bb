"""Independent key -> value reference used to check every benchmark output.

The reference is a dense numpy model over the workload's key universe
(known up front, because every workload generates its inputs before the
timed phase).  Callers translate keys to positions once with
:meth:`Reference.index` and pass the positions to every other method,
so a pass that repeats pays for the lookup only once.  It shares no
code with :mod:`repro`: batch semantics are re-derived here from the
documented contract of the batched API.

* ``insert`` is an upsert; duplicate keys in one call resolve to the
  *last* occurrence.
* ``find`` returns ``(values, found)``; values matter only where found.
* ``delete`` returns a removed mask; among duplicate keys in one call
  only the *first* occurrence can observe (and remove) the entry.
* A mixed batch executes its maximal same-kind runs in program order.

The kernel engines (``execute_mixed(engine="cohort")``) document a
weaker rule for duplicate inserts in one run: exactly one copy
survives, holding the value of *one of* the duplicates.  A reference
built with ``any_duplicate=True`` checks that rule instead: it accepts
any of the duplicates' values, and the first value a FIND observes
becomes the key's exact value from then on.
"""

from __future__ import annotations

import numpy as np

#: Operation codes of the mixed-batch interface (``repro.core.batch_ops``).
OP_INSERT, OP_FIND, OP_DELETE = 0, 1, 2


class OutsideUniverseError(KeyError):
    """A key the workload never generated reached the reference."""


class Reference:
    """Dense uint64 -> uint64 map over a fixed, known key universe."""

    def __init__(self, universe, any_duplicate: bool = False) -> None:
        self.keys = np.unique(np.asarray(universe, dtype=np.uint64))
        self.values = np.zeros(len(self.keys), dtype=np.uint64)
        self.present = np.zeros(len(self.keys), dtype=bool)
        self.any_duplicate = any_duplicate
        #: Key index -> values a duplicated insert may have left.
        self.choices: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return int(self.present.sum())

    def index(self, keys) -> np.ndarray:
        """Positions of ``keys`` in the universe."""
        keys = np.asarray(keys, dtype=np.uint64)
        idx = np.searchsorted(self.keys, keys)
        if len(keys) and (int(idx.max()) >= len(self.keys)
                          or bool(np.any(self.keys[idx] != keys))):
            raise OutsideUniverseError("key outside the reference universe")
        return idx

    def _forget_choices(self, idx: np.ndarray) -> None:
        if self.choices:
            pending = np.fromiter(self.choices, dtype=np.int64)
            for slot in pending[np.isin(pending, idx)]:
                del self.choices[int(slot)]

    def insert(self, idx: np.ndarray, values) -> None:
        """Apply an upsert batch (last occurrence wins)."""
        values = np.asarray(values, dtype=np.uint64)
        slots, first_from_end, counts = np.unique(
            idx[::-1], return_index=True, return_counts=True)
        self.values[slots] = values[len(idx) - 1 - first_from_end]
        self.present[slots] = True
        self._forget_choices(slots)
        if self.any_duplicate and bool(np.any(counts > 1)):
            duplicated = np.isin(idx, slots[counts > 1])
            for slot, value in zip(idx[duplicated], values[duplicated]):
                self.choices.setdefault(int(slot), set()).add(int(value))

    def discard(self, idx: np.ndarray) -> None:
        """Remove keys without checking a result."""
        self.present[idx] = False
        self._forget_choices(idx)

    def _allowed(self, slot: int, value: int) -> bool:
        return value in self.choices.get(slot, ())

    def find_mismatches(self, idx: np.ndarray, values, found) -> int:
        """Number of FIND results that disagree with the reference."""
        expected_found = self.present[idx]
        bad = np.asarray(found, dtype=bool) != expected_found
        values = np.asarray(values, dtype=np.uint64)
        bad |= expected_found & (values != self.values[idx])
        for pos in np.flatnonzero(bad & expected_found):
            slot, value = int(idx[pos]), int(values[pos])
            if not found[pos]:
                continue
            if value == int(self.values[slot]):
                # Resolved by an earlier duplicate FIND of this call.
                bad[pos] = False
            elif self._allowed(slot, value):
                # One of a duplicated insert's values: it is now exact.
                self.values[slot] = value
                del self.choices[slot]
                bad[pos] = False
        return int(bad.sum())

    def delete(self, idx: np.ndarray, removed) -> int:
        """Apply a delete batch; returns how many removed flags disagree."""
        _, first = np.unique(idx, return_index=True)
        expected = np.zeros(len(idx), dtype=bool)
        expected[first] = self.present[idx[first]]
        self.present[idx] = False
        self._forget_choices(idx)
        return int((np.asarray(removed, dtype=bool) != expected).sum())

    def mixed(self, op_codes, idx: np.ndarray, values, out_values,
              out_found, out_removed) -> int:
        """Apply a mixed batch run by run; returns mismatching results."""
        op_codes = np.asarray(op_codes)
        bounds = np.concatenate(
            [[0], np.flatnonzero(np.diff(op_codes)) + 1, [len(op_codes)]])
        bad = 0
        for start, stop in zip(bounds[:-1], bounds[1:]):
            run = slice(int(start), int(stop))
            kind = int(op_codes[start])
            if kind == OP_INSERT:
                self.insert(idx[run], values[run])
            elif kind == OP_FIND:
                bad += self.find_mismatches(idx[run], out_values[run],
                                            out_found[run])
            else:
                bad += self.delete(idx[run], out_removed[run])
        return bad

    def contents_mismatches(self, keys, values) -> int:
        """Entries by which a table's full contents differ from the model.

        Counts keys missing from the table, keys the table holds but the
        model does not (or holds twice), and keys with a wrong value.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        duplicates = int(len(keys) - len(np.unique(keys)))
        live = np.flatnonzero(self.present)
        common, in_table, in_model = np.intersect1d(
            keys, self.keys[live], assume_unique=False, return_indices=True)
        extra = len(np.unique(keys)) - len(common)
        missing = len(live) - len(common)
        differs = np.flatnonzero(values[in_table]
                                 != self.values[live[in_model]])
        wrong = sum(not self._allowed(int(live[in_model[pos]]),
                                      int(values[in_table[pos]]))
                    for pos in differs)
        return duplicates + extra + missing + wrong
