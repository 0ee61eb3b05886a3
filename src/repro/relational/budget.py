"""Memory budgets and spill files for the streaming execution core.

The paper's engine "uses two local secondary storages ... to handle large
results or large sets of temporary data"; this module supplies the accounting
half of that contract for the *pipelined* operators.  A :class:`MemoryBudget`
is one shared pool of bytes that every memory-hungry operator of a statement
(`Sort` buffers, `Distinct` seen-sets, `HashJoin` build sides) draws from.
When an operator's reservation would push the pool past its limit the
operator spills — a sorted run to a :class:`SpillFile`, a set of hash
partitions to one :class:`SpillPartitions` — and keeps streaming: execution
never fails on the budget, it degrades to secondary storage deterministically.

Budgets are deliberately approximate: :func:`estimate_row_bytes` charges a
flat per-value estimate (the same scale the temporary store's accounting
uses), not ``sys.getsizeof`` truth.  The point is a *bounded, comparable*
peak-memory figure per statement, not an allocator audit.

All accounting is thread-safe: one statement's operators may run on the
executor's fetch pool threads as well as the consumer's thread.
"""

from __future__ import annotations

import pickle
import tempfile
import threading
from bisect import bisect_right
from collections import deque
from decimal import Decimal
from itertools import accumulate, islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Flat per-row container overhead charged on top of the per-value estimate
#: (tuple header + references), so zero-width rows still cost something.
ROW_OVERHEAD_BYTES = 56

#: How many items one pickled spill frame holds.  Batching keeps the pickle
#: overhead per row small while bounding reader memory to one frame per
#: concurrently open reader — and writer memory, which no budget is charged
#: for, to under one frame's worth of items per spill file or partition once
#: a write returns.  That buffered tail is never written: a read serves it
#: from memory.
SPILL_BATCH_ITEMS = 512


def _estimate_value_bytes(value: Any) -> int:
    """The per-value rule; :func:`estimate_row_bytes` short-cuts exact types."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, Decimal):
        return 16
    if isinstance(value, str):
        return len(value)
    return len(str(value))


#: Exact classes whose estimate does not depend on the value.
_FLAT_VALUE_BYTES = {type(None): 1, bool: 1, int: 8, float: 8, Decimal: 16}


def estimate_row_bytes(row: Sequence[Any]) -> int:
    """A cheap, deterministic byte estimate of one row (tuple of SQL values)."""
    total = ROW_OVERHEAD_BYTES
    flat = _FLAT_VALUE_BYTES.get
    for value in row:
        cls = value.__class__
        nbytes = flat(cls)
        if nbytes is not None:
            total += nbytes
        elif cls is str:
            total += len(value)
        else:
            total += _estimate_value_bytes(value)
    return total


class MemoryBudget:
    """A shared pool of bytes that budget-aware operators reserve against.

    ``limit_bytes=None`` means unbounded: reservations always succeed, but the
    peak is still tracked, so every execution reports a peak-memory figure
    whether or not a limit is configured.

    ``try_reserve`` is the spill trigger: it atomically reserves when the
    reservation fits and refuses (reserving nothing) when it does not — the
    caller then spills, releases what it held, and retries or force-reserves
    via :meth:`reserve` for data that must live somewhere.
    """

    def __init__(self, limit_bytes: Optional[int] = None):
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError(f"memory budget must be positive, got {limit_bytes}")
        self.limit_bytes = limit_bytes
        self._lock = threading.Lock()
        self._used = 0
        self.peak_bytes = 0
        self.spill_count = 0
        self.spilled_rows = 0
        self.spilled_bytes = 0

    # -- accounting -------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def try_reserve(self, nbytes: int) -> bool:
        """Reserve ``nbytes`` if it fits under the limit; False otherwise."""
        with self._lock:
            if self.limit_bytes is not None and self._used + nbytes > self.limit_bytes:
                return False
            self._used += nbytes
            if self._used > self.peak_bytes:
                self.peak_bytes = self._used
            return True

    def reserve_prefix(self, sizes: Sequence[int], start: int = 0) -> Tuple[int, int]:
        """Reserve ``sizes[start:]`` one after the other until one is refused;
        returns ``(count, bytes)`` reserved.

        One lock round trip stands for ``count`` successful ``try_reserve``
        calls and the refused one: the cut, the bytes in use at it and the
        peak are those of a row-at-a-time run, which is what keeps the row an
        operator starts spilling at independent of its batch size."""
        with self._lock:
            count = len(sizes) - start
            if count <= 0:
                return 0, 0
            if self.limit_bytes is None:
                nbytes = sum(islice(sizes, start, None))
            else:
                room = self.limit_bytes - self._used
                if sizes[start] > room:
                    # Refused at once — every row of a batch met while another
                    # operator pins the budget — without summing the batch.
                    return 0, 0
                prefix = list(accumulate(islice(sizes, start, None)))
                count = bisect_right(prefix, room)
                nbytes = prefix[count - 1]
            self._used += nbytes
            if self._used > self.peak_bytes:
                self.peak_bytes = self._used
            return count, nbytes

    def reserve(self, nbytes: int) -> None:
        """Reserve unconditionally (data that must be held regardless)."""
        with self._lock:
            self._used += nbytes
            if self._used > self.peak_bytes:
                self.peak_bytes = self._used

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._used = max(0, self._used - nbytes)

    def record_spill(self, rows: int, nbytes: int) -> None:
        """Note that ``rows`` (~``nbytes``) moved to secondary storage."""
        with self._lock:
            self.spill_count += 1
            self.spilled_rows += rows
            self.spilled_bytes += nbytes

    # -- introspection ----------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "limit_bytes": self.limit_bytes if self.limit_bytes is not None else 0,
                "used_bytes": self._used,
                "peak_bytes": self.peak_bytes,
                "spill_count": self.spill_count,
                "spilled_rows": self.spilled_rows,
                "spilled_bytes": self.spilled_bytes,
            }


class _TempFile:
    """An anonymous temp file and its lifetime: opened by the first frame
    that leaves memory, closed by its owner, once.  A spill whose buffers
    never fill a frame opens no file at all."""

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._file = None
        self._closed = False

    def _opened(self):
        """The file, opened on first use."""
        if self._file is None:
            if self._closed:
                raise ValueError("write to a closed spill file")
            self._file = tempfile.TemporaryFile(prefix=self._prefix)
        return self._file

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:  # pragma: no cover - temp file teardown best-effort
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SpillFile(_TempFile):
    """An anonymous temp file holding a sequence of picklable items.

    Writes are batched (:data:`SPILL_BATCH_ITEMS` per pickle frame) so per-item
    overhead stays small; only a full frame is written.  :meth:`read` streams
    the written frames back in write order, holding at most one in memory,
    then the buffered tail straight from memory.  A spill file is single-pass
    per read: call :meth:`read` again to re-stream from the start.
    """

    def __init__(self, prefix: str = "repro-spill-"):
        super().__init__(prefix)
        self._batch: List[Any] = []
        self._frames = 0
        self.items = 0

    def append(self, item: Any) -> None:
        self._batch.append(item)
        self.items += 1
        if len(self._batch) >= SPILL_BATCH_ITEMS:
            self._flush()

    def extend(self, items: Sequence[Any]) -> None:
        """:meth:`append` every item of a list, a slice at a time: frames end
        at the items they would end at appended one by one."""
        self.items += len(items)
        start = 0
        while start < len(items):
            room = SPILL_BATCH_ITEMS - len(self._batch)
            self._batch.extend(items[start:start + room])
            start += room
            if len(self._batch) >= SPILL_BATCH_ITEMS:
                self._flush()

    def _flush(self) -> None:
        pickle.dump(self._batch, self._opened(), protocol=pickle.HIGHEST_PROTOCOL)
        self._frames += 1
        self._batch = []

    def read(self) -> Iterator[Any]:
        """Yield every item in write order (streams batch by batch)."""
        if self._frames:
            self._file.seek(0)
            for _ in range(self._frames):
                yield from pickle.load(self._file)
        yield from self._batch


class SpillPartitions(_TempFile):
    """``fanout`` item sequences — the hash partitions of one spilled
    operator state — in **one** anonymous temp file.

    Each partition buffers its items; every :data:`SPILL_BATCH_ITEMS` of them
    are written as one pickle frame at the end of the file, its offset
    remembered.  :meth:`read` seeks from frame to frame, so any number of
    readers interleave, then hands over what is still buffered from memory.
    However wide the fan-out, a partition set costs at most one file
    descriptor, and none while no partition has filled a frame.  Write
    everything, then read.
    """

    def __init__(self, fanout: int, prefix: str = "repro-spill-"):
        super().__init__(prefix)
        self._buffers: List[List[Any]] = [[] for _ in range(fanout)]
        self._offsets: List[List[int]] = [[] for _ in range(fanout)]
        self._end = 0

    def scatter(self, indices: Iterable[int], items: Iterable[Any]) -> None:
        """Append each item to the partition its index (paired as by ``zip``)
        names.  Items are routed in one C-level pass; full frames are then
        cut where appending the items one by one would have cut them."""
        buffers = self._buffers
        deque(map(list.append, map(buffers.__getitem__, indices), items), maxlen=0)
        for index, buffer in enumerate(buffers):
            if len(buffer) >= SPILL_BATCH_ITEMS:
                self._flush(index)

    def _flush(self, index: int) -> None:
        """Write partition ``index``'s full frames; the rest stays buffered."""
        buffer = self._buffers[index]
        full = len(buffer) - len(buffer) % SPILL_BATCH_ITEMS
        file = self._opened()
        file.seek(self._end)  # a reader may have moved the position
        offsets = self._offsets[index]
        for start in range(0, full, SPILL_BATCH_ITEMS):
            pickle.dump(buffer[start:start + SPILL_BATCH_ITEMS], file,
                        protocol=pickle.HIGHEST_PROTOCOL)
            offsets.append(self._end)
            self._end = file.tell()
        self._buffers[index] = buffer[full:]

    def read(self, index: int) -> Iterator[List[Any]]:
        """Yield partition ``index`` in write order, a frame (a non-empty
        list of items) at a time: the written frames, then the buffered tail."""
        for offset in self._offsets[index]:
            self._file.seek(offset)
            yield pickle.load(self._file)
        if self._buffers[index]:
            yield self._buffers[index]
