"""Local secondary storage for the multi-database access engine.

The paper notes that "for the management of dictionary information and in
order to handle large results or large sets of temporary data, the
multi-database access engine uses two local secondary storages".  The
dictionary is the engine's catalog (:class:`repro.engine.catalog.Catalog`);
this module simulates the other one, a **temporary store** booking
intermediate results (wrapper answers, staged join inputs): how many
rows/bytes were staged — the accounting is what the reports and the
benchmarks read.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import CounterSet
from repro.relational.budget import estimate_row_bytes
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


class TemporaryStore:
    """Bookings of named temporary relations, with usage accounting.

    The store behaves like a small heap of spill files: a caller stages a
    relation it owns under a handle name, keeps the relation itself, and
    releases its handles when done.
    The execution stream uses it to stage wrapper results before local
    joins: one :meth:`stage` per staged input, one :meth:`release` per
    statement, which returns that statement's own usage.
    """

    def __init__(self, name: str = "temp"):
        self.name = name
        self._counter = itertools.count(1)
        self.statistics = CounterSet(STORAGE_COUNTERS)
        #: handle -> (rows, bytes) booked when it was staged.
        self._booked: Dict[str, Tuple[int, int]] = {}
        # Concurrent statements (server sessions) stage into one shared
        # store.  Handle assignment must be atomic: an unguarded
        # lookup/insert pair lets two threads claim the same label and
        # silently book each other's rows.
        self._lock = threading.Lock()

    def stage(self, relation: Relation, label: Optional[str] = None) -> Tuple[str, int]:
        """Book ``relation`` under a fresh handle, rename it to the handle
        and return ``(handle, bytes booked)``.

        The caller hands over a relation it owns — its rows are a private
        materialization nothing else mutates — so nothing is copied and
        nothing is read back; the write and the read the caller is about to
        make are booked together.  The bytes are a sample-based estimate: the
        first row's :func:`estimate_row_bytes` times the row count.
        """
        rows = relation.rows
        nbytes = estimate_row_bytes(rows[0]) * len(rows) if rows else 0
        with self._lock:
            handle = label or f"tmp_{next(self._counter)}"
            if handle in self._booked:
                handle = f"{handle}_{next(self._counter)}"
            relation.name = handle
            self._booked[handle] = (len(rows), nbytes)
            self.statistics.add(
                tables_created=1,
                rows_written=len(rows),
                bytes_written=nbytes,
                peak_tables=len(self._booked),
                rows_read=len(rows),
            )
        return handle, nbytes

    def release(self, handles: Sequence[str]) -> Dict[str, int]:
        """Drop the bookings of ``handles`` (unknown ones are skipped) and
        return what staging and dropping exactly those booked, keyed like
        :attr:`statistics` (``peak_tables``: how many they were)."""
        booked = self._booked
        dropped = rows = nbytes = 0
        with self._lock:
            for handle in handles:
                booking = booked.pop(handle, None)
                if booking is not None:
                    dropped += 1
                    rows += booking[0]
                    nbytes += booking[1]
            self.statistics.add(tables_dropped=dropped)
        return {"tables_created": dropped, "tables_dropped": dropped, "rows_written": rows,
                "rows_read": rows, "bytes_written": nbytes, "peak_tables": dropped}

    def has(self, handle: str) -> bool:
        return handle in self._booked

    @property
    def handles(self) -> List[str]:
        return sorted(self._booked)

    def clear(self) -> None:
        self.release(list(self._booked))
