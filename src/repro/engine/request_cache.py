"""Canonical source-request keys and a bounded source-result cache.

The paper's setting makes "execution and communication costs" the dominant
term of a mediated query: every source request is a round trip to an
autonomous system.  Two mechanisms in this module cut those round trips:

* :func:`request_key` canonicalizes a :class:`~repro.engine.plan.SourceRequest`
  into a hashable :class:`RequestKey` (wrapper, relation, request text).  Two
  mediation branches asking the same wrapper for byte-identical pushed-down
  SQL — or for a plain FETCH of the same relation — map to the same key, which
  is what the executor's scheduler deduplicates on.  Per-branch
  ``local_filters`` are deliberately **not** part of the key: they are applied
  locally after the shared fetch, so they never force a second round trip.

* :class:`SourceResultCache` memoizes fetched relations across *statements*:
  a bounded LRU keyed by :class:`RequestKey`, with explicit invalidation per
  wrapper or per relation.  Entries are frozen copies of the fetched rows, so
  later mutations of a source relation do not silently leak into cached
  answers — staleness is only resolved by :meth:`SourceResultCache.invalidate`
  (or eviction), which is the deployment contract: whoever changes a source
  tells the federation.

All cache operations are thread-safe; the executor dispatches fetches on a
thread pool and records hits/misses from worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, NamedTuple, Optional, TYPE_CHECKING

from repro.engine.plan_cache import CACHE_COUNTERS
from repro.obs.metrics import CounterSet
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan imports cost)
    from repro.engine.plan import SourceRequest


class RequestKey(NamedTuple):
    """The canonical identity of one source round trip (a tuple: schedulers
    hash and compare a key a dozen times per request, at C speed)."""

    wrapper: str
    relation: str
    text: str

    def describe(self) -> str:
        return f"{self.wrapper}: {self.text}"


def request_key(request: "SourceRequest") -> RequestKey:
    """Canonicalize a plan's source request for dedup and caching.

    The text component is the rendered pushed-down SQL (the planner builds
    structurally identical ASTs for identical push-downs, so rendering is a
    stable canonical form) or ``FETCH <relation>`` for scan-only sources.
    Wrapper and relation names are case-insensitive throughout the catalog and
    are lowered here for the same reason.
    """
    return RequestKey(
        wrapper=request.wrapper_name.lower(),
        relation=request.relation.lower(),
        text=request.request_text,
    )


class SourceResultCache:
    """Bounded LRU cache of source results, keyed by canonical request.

    ``get``/``put`` are O(1); ``invalidate`` walks the (bounded) key set.  The
    cache stores frozen row copies: a hit returns the rows the source shipped
    when the entry was created, never a live view of the source's relation.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[RequestKey, Relation]" = OrderedDict()
        self._lock = threading.Lock()
        self.statistics = CounterSet(CACHE_COUNTERS)

    # -- access -----------------------------------------------------------------

    def get(self, key: RequestKey) -> Optional[Relation]:
        return self.get_many((key,)).get(key)

    def get_many(self, keys: Iterable[RequestKey]) -> Dict[RequestKey, Relation]:
        """The cached relation of each of ``keys`` the cache holds, in
        ``keys`` order, under one lock acquisition and one counter update.

        Each is a copy: a consumer mutating it must not corrupt the stored
        entry (the frozen-copy contract holds on the way out as well as on
        the way in).  Entries are never mutated, so the copies are made
        outside the lock.  A copy names the entry it was taken from, which
        lives exactly as long as the cache answers its key with these rows.
        """
        with self._lock:
            found = []
            misses = 0
            for key in keys:
                relation = self._entries.get(key)
                if relation is None:
                    misses += 1
                else:
                    self._entries.move_to_end(key)
                    found.append((key, relation))
            self.statistics.add(hits=len(found), misses=misses)
        hits = {}
        for key, relation in found:
            duplicate = hits[key] = self._copy(relation)
            duplicate.origin = relation
        return hits

    def put(self, key: RequestKey, relation: Relation) -> None:
        frozen = self._copy(relation)
        with self._lock:
            self._entries[key] = frozen
            self._entries.move_to_end(key)
            evicted = max(0, len(self._entries) - self.capacity)
            for _ in range(evicted):
                self._entries.popitem(last=False)
            self.statistics.add(puts=1, evictions=evicted)

    @staticmethod
    def _copy(relation: Relation) -> Relation:
        duplicate = Relation(relation.schema, name=relation.name)
        duplicate.rows = list(relation.rows)
        return duplicate

    # -- invalidation --------------------------------------------------------------

    def invalidate(self, wrapper: Optional[str] = None,
                   relation: Optional[str] = None) -> int:
        """Drop entries for one wrapper and/or relation; return the drop count.

        With both arguments ``None`` the whole cache is cleared.  Call this
        whenever a source's data is known to have changed (the federation does
        so automatically when a wrapper is re-registered).
        """
        wrapper_lower = wrapper.lower() if wrapper is not None else None
        relation_lower = relation.lower() if relation is not None else None
        with self._lock:
            doomed = [
                key for key in self._entries
                if (wrapper_lower is None or key.wrapper == wrapper_lower)
                and (relation_lower is None or key.relation == relation_lower)
            ]
            for key in doomed:
                del self._entries[key]
            self.statistics.add(invalidations=len(doomed))
            return len(doomed)

    def clear(self) -> int:
        return self.invalidate()

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: RequestKey) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> Dict[str, int]:
        # Under the lock every counter moves under: one point-in-time copy.
        with self._lock:
            data = self.statistics.snapshot()
            data["entries"] = len(self._entries)
        data["capacity"] = self.capacity
        return data
