"""One bounded map: the LRU every memo of the mediator is an instance of.

The pipeline's statement, mediation and plan caches, the engine's
source-result cache, the violation scanner's reports, the tracer's buffer,
the wire server's prepared-statement and cursor registries and the
expression compiler's kernel and factory tables all keep at most ``capacity`` entries and retire the least recently used one first.
:class:`BoundedCache` is that policy, its lock and its traffic counters,
written once.  Values must not be None: a None lookup is a miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.obs.metrics import CounterSet

#: Traffic counters of one bounded cache: (field, kind, exported series, help).
CACHE_COUNTERS = (
    ("hits", "sum", None, ""),
    ("misses", "sum", None, ""),
    ("puts", "sum", None, ""),
    ("evictions", "sum", None, ""),
    ("invalidations", "sum", None, ""),
)


class BoundedCache:
    """A thread-safe LRU of at most ``capacity`` entries.

    ``get``/``get_many`` are the counted lookups (each key one hit or one
    miss) and refresh what they find; ``peek`` neither counts nor refreshes.
    Every mutation moves its counters under the cache's lock, so a
    :meth:`snapshot` is one point in time: ``entries`` is always ``puts``
    minus ``evictions`` minus ``invalidations`` for distinct keys.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.statistics = CounterSet(CACHE_COUNTERS)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.statistics.add(misses=1)
            else:
                self._entries.move_to_end(key)
                self.statistics.add(hits=1)
        return value

    def get_many(self, keys: Iterable[Hashable]) -> Dict[Hashable, Any]:
        """The value of each of ``keys`` the cache holds, in ``keys`` order,
        under one lock acquisition and one counter update."""
        found = {}
        with self._lock:
            hits = misses = 0
            for key in keys:
                value = self._entries.get(key)
                if value is None:
                    misses += 1
                else:
                    self._entries.move_to_end(key)
                    found[key] = value
                    hits += 1
            self.statistics.add(hits=hits, misses=misses)
        return found

    def peek(self, key: Hashable) -> Optional[Any]:
        """The value under ``key``, uncounted and left where it is in the LRU."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> List[Any]:
        """Store ``value`` as the most recent entry; returns the values the
        bound evicted to make room, least recent first."""
        with self._lock:
            entries = self._entries
            entries[key] = value
            entries.move_to_end(key)
            evicted = [entries.popitem(last=False)[1]
                       for _ in range(len(entries) - self.capacity)]
            self.statistics.add(puts=1, evictions=len(evicted))
        return evicted

    def setdefault(self, key: Hashable, value: Any) -> Tuple[Any, List[Any]]:
        """First wins: the value already under ``key`` (refreshed, nothing
        counted) or else ``value``, stored as :meth:`put` stores it — and the
        values the bound evicted.  Racing callers of one key all leave with
        the same object."""
        with self._lock:
            entries = self._entries
            kept = entries.get(key)
            if kept is not None:
                entries.move_to_end(key)
                return kept, []
            entries[key] = value
            evicted = [entries.popitem(last=False)[1]
                       for _ in range(len(entries) - self.capacity)]
            self.statistics.add(puts=1, evictions=len(evicted))
        return value, evicted

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove and return the value under ``key`` (None: there is none)."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is not None:
                self.statistics.add(invalidations=1)
        return value

    def drop(self, predicate: Optional[Callable[[Hashable], bool]] = None) -> List[Any]:
        """Remove every entry whose key satisfies ``predicate`` (None: all);
        returns the removed values."""
        with self._lock:
            doomed = [key for key in self._entries
                      if predicate is None or predicate(key)]
            dropped = [self._entries.pop(key) for key in doomed]
            self.statistics.add(invalidations=len(dropped))
        return dropped

    def values(self) -> List[Any]:
        """Every value, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            data = self.statistics.snapshot()
            data["entries"] = len(self._entries)
        data["capacity"] = self.capacity
        return data
