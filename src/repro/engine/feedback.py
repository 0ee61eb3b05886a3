"""Runtime cardinality feedback for the adaptive optimizer.

The planner prices plans with textbook default selectivities
(:mod:`repro.engine.cost`).  Those defaults are fine for cold catalogs but
systematically wrong for selective predicates and multi-join branches —
wrong enough that the planner ships whole relations over the wire when a
bound key set would cut the transfer by orders of magnitude.

:class:`CardinalityFeedback` closes the loop.  Every executed statement
reports back, per distinct source request, the *observed* row count keyed
by ``(relation, predicate fingerprint)``, and per join prefix, the observed
intermediate cardinality keyed by an order-insensitive fingerprint of the
joined ``relation|predicate`` set.  The cost model consults these
observations before falling back to defaults, so the next plan for the same
shape is priced from reality.  (A wrapper's latency is not kept here: it is
booked on the wrapper's record, :class:`~repro.engine.resilience.SourceRecord`.)

Three invariants keep feedback safe for the warm-path contracts:

* **Correctness is generation-scoped.**  ``Catalog.bump_generation`` (source
  registration, constraint changes, cache invalidation) clears all recorded
  observations — estimates must never outlive the data they were measured
  on.  The *epoch* is monotonic and survives the clear, so the epoch a
  cached plan was priced under never comes round again.
* **Re-planning is bounded.**  The epoch only advances on a *material*
  estimation error: the observation must differ from the planned estimate by
  at least ``replan_min_rows`` rows *and* by a factor of ``replan_ratio``.
  Tiny demo relations never trip it, so cached plans for small workloads stay
  warm (``warm_plans == 0`` in the benches), while a federated join that was
  mispriced by thousands of rows re-plans on the next statement.
* **Retirement is per key.**  An advance notes which key — a request's
  ``(relation, fingerprint)`` pair or a join prefix's fingerprint string —
  was mis-estimated, and at which epoch.  A plan carries the keys its planner
  looked up, found or not (:meth:`CardinalityFeedback.consulting`), and is
  stale only when one of them was retired after it was priced
  (:meth:`retired_since`): a novel statement's first observation re-prices
  that statement, not every cached plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Collection, Dict, Hashable, Iterator, Optional, Set

from repro.obs.metrics import CounterSet

__all__ = ["CardinalityFeedback"]


#: Running totals of one registry: (field, kind, exported series, help).
FEEDBACK_COUNTERS = (
    ("observations", "sum", "feedback_observations_total",
     "Runtime cardinality observations folded into the feedback store."),
    ("epoch_bumps", "sum", "feedback_epoch_bumps_total",
     "Material estimation errors that invalidated cached plans."),
)


class CardinalityFeedback:
    """Bounded, thread-safe registry of runtime optimizer observations."""

    def __init__(self, capacity: int = 512, replan_ratio: float = 2.0,
                 replan_min_rows: int = 256) -> None:
        if capacity < 1:
            raise ValueError("feedback capacity must be at least 1")
        self.capacity = capacity
        self.replan_ratio = max(1.0, float(replan_ratio))
        self.replan_min_rows = max(0, int(replan_min_rows))
        self._lock = threading.Lock()
        #: key -> its latest observed row count, least recently recorded first.
        self._requests: "OrderedDict[tuple, int]" = OrderedDict()
        self._joins: "OrderedDict[str, int]" = OrderedDict()
        self.epoch = 0
        #: key -> the epoch its material error advanced to, oldest first and
        #: bounded by ``capacity``; plans priced before ``_retired_floor``
        #: predate a retirement no longer listed and count as retired.
        self._retired: Dict[Hashable, int] = {}
        self._retired_floor = 0
        self._consulting = threading.local()
        #: Incremented under ``_lock``, so :meth:`snapshot` is point-in-time.
        self.counters = CounterSet(FEEDBACK_COUNTERS)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, relation: str, fingerprint: str, observed_rows: int,
                       planned_rows: Optional[int] = None) -> None:
        """Record the observed row count of one distinct source request."""
        self._record(self._requests, (relation.lower(), fingerprint), observed_rows,
                     planned_rows)

    def record_join(self, fingerprint: str, observed_rows: int,
                    planned_rows: Optional[int] = None) -> None:
        """Record the observed cardinality of one join prefix."""
        if fingerprint:
            self._record(self._joins, fingerprint, observed_rows, planned_rows)

    def _record(self, store: "OrderedDict[Hashable, int]", key: Hashable,
                observed_rows: int, planned_rows: Optional[int]) -> None:
        """``key``'s row count, now the most recently recorded in ``store``
        (the least recently recorded beyond ``capacity`` are forgotten).

        Only a material estimation error advances the epoch, retiring
        ``key``.  Both an absolute floor and a ratio must be exceeded: the
        floor keeps tiny (demo/bench) workloads from ever re-planning, the
        ratio keeps large-but-accurate estimates stable.
        """
        observed = int(observed_rows)
        with self._lock:
            store[key] = observed
            store.move_to_end(key)
            while len(store) > self.capacity:
                store.popitem(last=False)
            self.counters.add(observations=1)
            if planned_rows is None or abs(observed - int(planned_rows)) < self.replan_min_rows:
                return
            low, high = sorted((max(observed, 1), max(int(planned_rows), 1)))
            if high / low < self.replan_ratio:
                return
            self.epoch += 1
            self._retired.pop(key, None)
            self._retired[key] = self.epoch
            if len(self._retired) > self.capacity:
                self._retired_floor = self._retired.pop(next(iter(self._retired)))
            self.counters.add(epoch_bumps=1)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def request_rows(self, relation: str, fingerprint: str = "") -> Optional[int]:
        key = (relation.lower(), fingerprint)
        consulted = getattr(self._consulting, "keys", None)
        if consulted is not None:
            consulted.add(key)
        with self._lock:
            return self._requests.get(key)

    def join_rows(self, fingerprint: str) -> Optional[int]:
        consulted = getattr(self._consulting, "keys", None)
        if consulted is not None:
            consulted.add(fingerprint)
        with self._lock:
            return self._joins.get(fingerprint)

    @contextmanager
    def consulting(self) -> Iterator[Set[Hashable]]:
        """Collect the keys this thread looks up — found or not — while the
        block plans one statement."""
        keys = self._consulting.keys = set()
        try:
            yield keys
        finally:
            self._consulting.keys = None

    def retired_since(self, keys: Collection[Hashable], epoch: int) -> bool:
        """Whether a material error retired any of ``keys`` after ``epoch``."""
        with self._lock:
            retired = self._retired
            return epoch < self._retired_floor or any(
                retired.get(key, 0) > epoch for key in keys)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all observations (catalog generation bumped).

        Neither the epoch nor the retirements are reset: plans are checked
        against them and the epoch must stay monotonic for the lifetime of
        the catalog.
        """
        with self._lock:
            self._requests.clear()
            self._joins.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "epoch": self.epoch,
                "epoch_bumps": self.counters.epoch_bumps,
                "observations": self.counters.observations,
                "request_entries": len(self._requests),
                "join_entries": len(self._joins),
            }

    def bind_metrics(self, registry) -> None:
        """Attach the counters to a metrics registry; the epoch is state, so
        it is a gauge read at scrape time."""
        registry.attach(self.counters)
        registry.gauge(
            "feedback_epoch",
            "Current cardinality-feedback epoch (material estimation errors so far).",
            function=lambda: self.epoch,
        )
