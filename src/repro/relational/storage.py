"""Local secondary storage for the multi-database access engine.

The paper notes that "for the management of dictionary information and in
order to handle large results or large sets of temporary data, the
multi-database access engine uses two local secondary storages".  The
dictionary is the engine's catalog (:class:`repro.engine.catalog.Catalog`);
this module simulates the other one, a **temporary store** holding
intermediate results (wrapper answers, staged join inputs) with simple
accounting of how many rows/bytes were spilled — the accounting is what the
cost model and the benchmarks read.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import CounterSet
from repro.relational.query import Database
from repro.relational.relation import Relation


#: Use of one storage area: (field, kind, exported series, help).
STORAGE_COUNTERS = (
    ("tables_created", "sum", None, ""),
    ("tables_dropped", "sum", None, ""),
    ("rows_written", "sum", None, ""),
    ("rows_read", "sum", None, ""),
    ("bytes_written", "sum", None, ""),
    ("peak_tables", "peak", None, ""),
)


def _estimate_row_bytes(relation: Relation) -> int:
    """A rough per-row byte estimate used only for the simulated accounting."""
    if not relation.rows:
        return 0
    sample = relation.rows[0]
    total = 0
    for value in sample:
        if value is None:
            total += 1
        elif isinstance(value, bool):
            total += 1
        elif isinstance(value, int):
            total += 8
        elif isinstance(value, float):
            total += 8
        else:
            total += len(str(value))
    return total


class TemporaryStore:
    """Named temporary relations with usage accounting.

    The store behaves like a small heap of spill files: a caller stages a
    relation it owns under a handle name and releases its handles when done.
    The execution stream uses it to stage wrapper results before local
    joins: one :meth:`stage` per staged input, one :meth:`release` per
    statement, which returns that statement's own usage.
    """

    def __init__(self, name: str = "temp"):
        self.name = name
        self._database = Database(name)
        self._counter = itertools.count(1)
        self.statistics = CounterSet(STORAGE_COUNTERS)
        #: lower-cased handle -> (rows, bytes) booked when it was staged.
        self._booked: Dict[str, Tuple[int, int]] = {}
        # Concurrent statements (server sessions) stage into one shared
        # store.  Handle assignment must be atomic: an unguarded
        # has_table/register pair lets two threads claim the same label and
        # silently read each other's staged rows.
        self._lock = threading.Lock()

    def stage(self, relation: Relation,
              label: Optional[str] = None) -> Tuple[str, Relation]:
        """Register ``relation`` itself under a fresh handle: ``(handle,
        relation)``, renamed to the handle.

        The caller hands over a relation it owns — its rows are a private
        materialization nothing else mutates — so nothing is copied and
        nothing is read back; the write and the read the caller is about to
        make are booked together.
        """
        rows = len(relation)
        nbytes = _estimate_row_bytes(relation) * rows
        with self._lock:
            handle = label or f"tmp_{next(self._counter)}"
            if self._database.has_table(handle):
                handle = f"{handle}_{next(self._counter)}"
            relation.name = handle
            self._database.register(relation, handle)
            self._booked[handle.lower()] = (rows, nbytes)
            self.statistics.add(
                tables_created=1,
                rows_written=rows,
                bytes_written=nbytes,
                peak_tables=len(self._database.tables),
                rows_read=rows,
            )
        return handle, relation

    def release(self, handles: Sequence[str]) -> Dict[str, int]:
        """Drop the relations staged under ``handles`` (unknown ones are
        skipped) and return what staging and dropping exactly those booked,
        keyed like :attr:`statistics` (``peak_tables``: how many they were)."""
        tables, booked = self._database.tables, self._booked
        dropped = rows = nbytes = 0
        with self._lock:
            for handle in handles:
                key = handle.lower()  # as the database keys it
                if tables.pop(key, None) is not None:
                    dropped += 1
                    staged_rows, staged_bytes = booked.pop(key)
                    rows += staged_rows
                    nbytes += staged_bytes
            self.statistics.add(tables_dropped=dropped)
        return {"tables_created": dropped, "tables_dropped": dropped, "rows_written": rows,
                "rows_read": rows, "bytes_written": nbytes, "peak_tables": dropped}

    def has(self, handle: str) -> bool:
        return self._database.has_table(handle)

    @property
    def handles(self) -> List[str]:
        return self._database.table_names

    def clear(self) -> None:
        self.release(list(self._database.tables))

