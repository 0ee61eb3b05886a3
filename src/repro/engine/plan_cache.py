"""A bounded, versioned cache for compiled query-lifecycle artifacts.

Mediation and planning are compile-once work: for an unchanged catalog and
unchanged context knowledge, the same receiver statement always mediates to
the same branches and plans to the same :class:`~repro.engine.plan.QueryPlan`.
Under the heavy-traffic serving pattern — the same receiver queries arriving
over and over — re-paying conflict detection, abduction and planning per call
is pure overhead, so the query pipeline (:mod:`repro.pipeline`) memoizes both
stages here.

:class:`PlanCacheKey` is the canonical identity of one cached pipeline
product: the statement's AST fingerprint (:mod:`repro.sql.normalize`), the
receiver context it was mediated for, whether mediation ran at all, and the
**generation counters** of the two knowledge stores a cached artifact could
otherwise read stale:

* ``catalog_generation`` — bumped by the catalog on wrapper/relation
  (re)registration and by the engine on source invalidation;
* ``knowledge_generation`` — the :class:`~repro.coin.system.CoinSystem`
  roll-up of domain model, contexts, elevations and conversions.

Because the generations are part of the *key*, invalidation needs no
callbacks: any dictionary or knowledge change makes every previously cached
entry unreachable, and the LRU bound retires it.  :meth:`PlanCache.prune`
exists for housekeeping (dropping unreachable generations eagerly).

:class:`PlanCache` itself is value-agnostic — the pipeline stores
``MediatedPlan`` objects in one instance and ``MediationResult`` objects in
another — and thread-safe, matching the server's concurrent sessions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

from repro.obs.metrics import CounterSet


@dataclass(frozen=True)
class PlanCacheKey:
    """The canonical identity of one cached mediation/planning product."""

    fingerprint: str
    receiver_context: str
    mediate: bool
    catalog_generation: int
    knowledge_generation: int


#: Traffic counters of one bounded cache — this one and the source-result
#: cache share the declaration: (field, kind, exported series, help).
CACHE_COUNTERS = (
    ("hits", "sum", None, ""),
    ("misses", "sum", None, ""),
    ("puts", "sum", None, ""),
    ("evictions", "sum", None, ""),
    ("invalidations", "sum", None, ""),
)


class PlanCache:
    """Bounded LRU of pipeline artifacts keyed by :class:`PlanCacheKey`.

    Generic over values on purpose: the pipeline keeps one instance for
    fully-planned ``MediatedPlan`` objects and one for bare mediation
    results.  All operations are O(1) except :meth:`prune`/:meth:`clear`,
    which walk the (bounded) key set.
    """

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.statistics = CounterSet(CACHE_COUNTERS)

    # -- access -----------------------------------------------------------------

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.statistics.add(misses=1)
                return None
            self._entries.move_to_end(key)
            self.statistics.add(hits=1)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = max(0, len(self._entries) - self.capacity)
            for _ in range(evicted):
                self._entries.popitem(last=False)
            self.statistics.add(puts=1, evictions=evicted)

    # -- invalidation --------------------------------------------------------------

    def prune(self, catalog_generation: Optional[int] = None,
              knowledge_generation: Optional[int] = None) -> int:
        """Drop entries whose generations no longer match the live counters.

        Stale entries are already unreachable (the generations are part of
        the key); pruning just frees their slots eagerly.  Returns the number
        of dropped entries.
        """
        with self._lock:
            doomed = [
                key for key in self._entries
                if isinstance(key, PlanCacheKey) and (
                    (catalog_generation is not None
                     and key.catalog_generation != catalog_generation)
                    or (knowledge_generation is not None
                        and key.knowledge_generation != knowledge_generation)
                )
            ]
            for key in doomed:
                del self._entries[key]
            self.statistics.add(invalidations=len(doomed))
            return len(doomed)

    def clear(self) -> int:
        """Drop everything; returns the number of dropped entries."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.statistics.add(invalidations=count)
            return count

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> Dict[str, int]:
        # Under the lock every counter moves under: one point-in-time copy.
        with self._lock:
            data = self.statistics.snapshot()
            data["entries"] = len(self._entries)
        data["capacity"] = self.capacity
        return data
