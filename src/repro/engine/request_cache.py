"""Canonical source-request keys and a bounded source-result cache.

The paper's setting makes "execution and communication costs" the dominant
term of a mediated query: every source request is a round trip to an
autonomous system.  Two mechanisms in this module cut those round trips:

* :func:`request_key` canonicalizes a :class:`~repro.engine.plan.SourceRequest`
  into a hashable :class:`RequestKey` (wrapper, relation, request text), all
  read off the request's scan (:class:`~repro.relational.algebra.Scan`).  Two
  mediation branches asking the same wrapper for byte-identical pushed-down
  SQL — or for a plain FETCH of the same relation — map to the same key, which
  is what the executor's scheduler deduplicates on.  A transfer's filters
  (``Transfer.filters``) are deliberately **not** part of the key: they are
  applied locally after the shared fetch, so they never force a second round
  trip.

* :class:`SourceResultCache` memoizes fetched relations across *statements*:
  a :class:`~repro.obs.cache.BoundedCache` keyed by :class:`RequestKey`, with
  explicit invalidation per wrapper or per relation.  Entries are frozen
  copies of the fetched rows, so later mutations of a source relation do not
  silently leak into cached answers — staleness is only resolved by
  :meth:`SourceResultCache.invalidate` (or eviction), which is the deployment
  contract: whoever changes a source tells the federation.

All cache operations are thread-safe; the executor dispatches fetches on a
thread pool and records hits/misses from worker threads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, TYPE_CHECKING

from repro.obs.cache import BoundedCache
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

    The text component is the scan's request text: its rendered SQL (equal
    scans render identically, so rendering is a stable canonical form) or
    ``FETCH <relation>`` for a scan whose source is sent no SQL.
    Wrapper and relation names are case-insensitive throughout the catalog and
    are lowered here for the same reason.
    """
    scan = request.transfer.target
    return RequestKey(
        wrapper=request.wrapper_name.lower(),
        relation=scan.relation.lower(),
        text=scan.text,
    )


class SourceResultCache(BoundedCache):
    """Bounded LRU cache of source results, keyed by canonical request.

    What it adds to :class:`~repro.obs.cache.BoundedCache` is the frozen-copy
    policy: an entry is a copy of the rows the source shipped when it was
    created, and a hit hands out a copy of that, never a live view of the
    source's relation nor the stored entry itself.
    """

    def get(self, key: RequestKey) -> Optional[Relation]:
        return self.get_many((key,)).get(key)

    def get_many(self, keys: Iterable[RequestKey]) -> Dict[RequestKey, Relation]:
        """A copy of the cached relation of each of ``keys`` the cache holds,
        in ``keys`` order, under one lock acquisition and one counter update.

        A consumer mutating a copy cannot corrupt the stored entry (the
        frozen-copy contract holds on the way out as well as on the way in).
        Entries are never mutated, so the copies are made outside the lock.
        A copy names the entry it was taken from, which lives exactly as long
        as the cache answers its key with these rows.
        """
        hits = super().get_many(keys)
        for key, relation in hits.items():
            duplicate = hits[key] = self._copy(relation)
            duplicate.origin = relation
        return hits

    def put(self, key: RequestKey, relation: Relation) -> List[Relation]:
        return super().put(key, self._copy(relation))

    @staticmethod
    def _copy(relation: Relation) -> Relation:
        duplicate = Relation(relation.schema, name=relation.name)
        duplicate.rows = list(relation.rows)
        return duplicate

    def invalidate(self, wrapper: Optional[str] = None,
                   relation: Optional[str] = None) -> int:
        """Drop entries for one wrapper and/or relation; return the drop count.

        With both arguments ``None`` the whole cache is cleared.  The engine
        calls this for every signal that a source's data changed, a wrapper
        registration included (``MultiDatabaseEngine.invalidate_source_cache``).
        """
        wrapper_lower = wrapper.lower() if wrapper is not None else None
        relation_lower = relation.lower() if relation is not None else None
        return len(self.drop(
            lambda key: (wrapper_lower is None or key.wrapper == wrapper_lower)
            and (relation_lower is None or key.relation == relation_lower)))

    def clear(self) -> int:
        return self.invalidate()
