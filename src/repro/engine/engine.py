"""The multi-database access engine façade.

"The multi-database access engine constitutes a front-end of dictionary and
query services to the multiple wrapped sources."

:class:`MultiDatabaseEngine` bundles the catalog (dictionary services), the
planner (query services: planning and optimization) and the execution
controller, and is the component the mediation server drives: mediated queries
go in, relational answers and execution reports come out.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union as TUnion

from repro.errors import EngineError
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.executor import (
    DEFAULT_MAX_CONCURRENT_REQUESTS,
    EngineResult,
    ExecutionController,
)
from repro.engine.resilience import Deadline, HealthProber, ResiliencePolicy
from repro.engine.plan import QueryPlan
from repro.engine.request_cache import SourceResultCache
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.relational.relation import Relation
from repro.relational.storage import TemporaryStore
from repro.sql.ast import Select, Statement, Union
from repro.sql.parser import parse
from repro.wrappers.wrapper import Wrapper


@dataclass
class EngineStatistics:
    """Aggregate counters over the life of an engine instance.

    Increments go through the ``record_*`` methods, which hold a lock:
    concurrent server sessions execute statements on the same engine, and
    unguarded ``+=`` on these façade counters loses updates.
    """

    statements_executed: int = 0
    plans_built: int = 0
    source_requests: int = 0
    #: Round trips actually issued to sources (after dedup and cache hits).
    source_round_trips: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    rows_transferred: int = 0
    rows_returned: int = 0
    #: Statements served through an explicit cursor, the rows they streamed,
    #: and fetches early-terminated streams cancelled before dispatch.
    streams_opened: int = 0
    rows_streamed: int = 0
    cancelled_fetches: int = 0
    #: Resilience counters folded from per-statement reports: retried
    #: fetches, fetches that failed for good, breaker activity, and branches
    #: dropped by partial-answer degradation.
    source_retries: int = 0
    failed_requests: int = 0
    breaker_trips: int = 0
    breaker_rejections: int = 0
    degraded_branches: int = 0
    #: Adaptive-optimizer counters folded from per-statement reports:
    #: bound requests executed, IN-list batches shipped, key values shipped,
    #: rows actually fetched by bound requests, and rows a whole-relation
    #: fetch would have transferred that the bind join avoided.
    bind_joins: int = 0
    bind_batches: int = 0
    bind_keys_shipped: int = 0
    bind_rows_fetched: int = 0
    bind_rows_avoided: int = 0
    #: Memory accounting folded from per-statement reports: operator spills
    #: to temporary storage, bytes spilled, and the largest per-statement
    #: operator-memory peak observed.
    spill_count: int = 0
    spilled_bytes: int = 0
    peak_memory_bytes: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                  compare=False)

    def record_plan(self) -> None:
        with self._lock:
            self.plans_built += 1

    def record_stream_opened(self) -> None:
        with self._lock:
            self.streams_opened += 1

    def record_execution(self, report) -> None:
        """Fold one execution report's totals into the aggregate counters.

        The report's own lock is taken first (and released before ours, so
        the order stays flat): a late fetch worker or a concurrent monitor
        snapshot may still touch the report while the fold reads it.
        """
        with report.lock:
            source_requests = len(report.requests)
            rows_transferred = sum(
                request.rows_returned for request in report.requests
                if not request.dedup_hit and not request.cache_hit
            )
            source_round_trips = report.distinct_requests - report.cache_hits
            dedup_hits = report.dedup_hits
            cache_hits = report.cache_hits
            rows_returned = report.result_rows
            rows_streamed = report.rows_streamed
            cancelled_fetches = report.cancelled_fetches
            spill_count = report.spill_count
            spilled_bytes = report.spilled_bytes
            peak_memory_bytes = report.peak_memory_bytes
        resilience = report.resilience.snapshot()
        optimizer = report.optimizer
        with self._lock:
            self.statements_executed += 1
            self.source_requests += source_requests
            self.source_round_trips += source_round_trips
            self.dedup_hits += dedup_hits
            self.cache_hits += cache_hits
            self.rows_transferred += rows_transferred
            self.rows_returned += rows_returned
            self.rows_streamed += rows_streamed
            self.cancelled_fetches += cancelled_fetches
            self.source_retries += resilience["retries"]
            self.failed_requests += resilience["failed_requests"]
            self.breaker_trips += resilience["breaker_trips"]
            self.breaker_rejections += resilience["breaker_rejections"]
            self.degraded_branches += len(resilience["degraded_branches"])
            self.bind_joins += optimizer.bind_joins
            self.bind_batches += optimizer.bind_batches
            self.bind_keys_shipped += optimizer.bind_keys_shipped
            self.bind_rows_fetched += optimizer.bind_rows_fetched
            self.bind_rows_avoided += optimizer.bind_rows_avoided
            self.spill_count += spill_count
            self.spilled_bytes += spilled_bytes
            if peak_memory_bytes > self.peak_memory_bytes:
                self.peak_memory_bytes = peak_memory_bytes

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "statements_executed": self.statements_executed,
                "plans_built": self.plans_built,
                "source_requests": self.source_requests,
                "source_round_trips": self.source_round_trips,
                "dedup_hits": self.dedup_hits,
                "cache_hits": self.cache_hits,
                "rows_transferred": self.rows_transferred,
                "rows_returned": self.rows_returned,
                "streams_opened": self.streams_opened,
                "rows_streamed": self.rows_streamed,
                "cancelled_fetches": self.cancelled_fetches,
                "source_retries": self.source_retries,
                "failed_requests": self.failed_requests,
                "breaker_trips": self.breaker_trips,
                "breaker_rejections": self.breaker_rejections,
                "degraded_branches": self.degraded_branches,
                "bind_joins": self.bind_joins,
                "bind_batches": self.bind_batches,
                "bind_keys_shipped": self.bind_keys_shipped,
                "bind_rows_fetched": self.bind_rows_fetched,
                "bind_rows_avoided": self.bind_rows_avoided,
                "spill_count": self.spill_count,
                "spilled_bytes": self.spilled_bytes,
                "peak_memory_bytes": self.peak_memory_bytes,
            }


class MultiDatabaseEngine:
    """Dictionary + query services over a set of wrapped sources."""

    def __init__(self, catalog: Optional[Catalog] = None,
                 cost_model: Optional[CostModel] = None,
                 planner_config: Optional[PlannerConfig] = None,
                 temp_store: Optional[TemporaryStore] = None,
                 request_cache: Optional[SourceResultCache] = None,
                 max_concurrent_requests: int = DEFAULT_MAX_CONCURRENT_REQUESTS,
                 deduplicate_requests: bool = True,
                 memory_budget_bytes: Optional[int] = None,
                 resilience: Optional[ResiliencePolicy] = None):
        self.catalog = catalog if catalog is not None else Catalog()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.planner = QueryPlanner(self.catalog, self.cost_model, planner_config)
        self.controller = ExecutionController(
            self.catalog, temp_store,
            request_cache=request_cache,
            max_concurrent_requests=max_concurrent_requests,
            deduplicate=deduplicate_requests,
            memory_budget_bytes=memory_budget_bytes,
            resilience=resilience,
        )
        self.statistics = EngineStatistics()

    @property
    def request_cache(self) -> Optional[SourceResultCache]:
        return self.controller.request_cache

    # -- registration ------------------------------------------------------------

    def register_wrapper(self, wrapper: Wrapper, estimate_rows: bool = True) -> None:
        """Register a wrapper and catalog its relations."""
        self.catalog.register_wrapper(wrapper, estimate_rows=estimate_rows)
        # A (re)registered wrapper means fresh data behind its name: any
        # memoized results for it are no longer trustworthy — and wrapper-level
        # invalidations (e.g. WebWrapper.invalidate after a site change) must
        # reach this engine's cache too.
        self.invalidate_source_cache(wrapper=wrapper.name)

        # Subscribe via weakref: a long-lived wrapper must not pin every
        # engine it was ever registered to (returning False prunes the
        # listener once this engine is gone).
        engine_ref = weakref.ref(self)

        def _cache_invalidator(name: str) -> bool:
            engine = engine_ref()
            if engine is None:
                return False
            engine.invalidate_source_cache(wrapper=name)
            return True

        wrapper.add_invalidation_listener(_cache_invalidator)

    def invalidate_source_cache(self, wrapper: Optional[str] = None,
                                relation: Optional[str] = None) -> int:
        """Drop memoized source results (all, per wrapper, or per relation).

        Invalidation also advances the catalog generation: it is the signal
        that source data changed, and anything keyed on the generation
        (cached plans, prepared queries) must re-derive rather than trust
        estimates and artifacts from before the change.
        """
        self.catalog.bump_generation()
        if self.controller.request_cache is None:
            return 0
        return self.controller.request_cache.invalidate(wrapper=wrapper, relation=relation)

    # -- dictionary services ----------------------------------------------------------

    def list_sources(self) -> List[str]:
        return self.catalog.list_sources()

    def list_relations(self, source: Optional[str] = None) -> List[str]:
        return self.catalog.list_relations(source)

    def describe_relation(self, relation: str) -> List[Dict[str, object]]:
        return self.catalog.describe_relation(relation)

    # -- query services ------------------------------------------------------------------

    def plan(self, statement: TUnion[str, Statement]) -> QueryPlan:
        """Plan a statement without executing it."""
        parsed = self._parse(statement)
        plan = self.planner.plan(parsed)
        self.statistics.record_plan()
        return plan

    def plan_branches(self, selects: Sequence[Select], union_all: bool = False,
                      statement: Optional[Statement] = None) -> QueryPlan:
        """Plan already-separated SELECT branches (the pipeline's entry point).

        The mediator hands its branch list straight to the planner — no UNION
        re-parse, no re-discovery of branch boundaries — and identical
        requests across branches are shared at plan time.
        """
        plan = self.planner.plan_branches(selects, union_all=union_all,
                                          statement=statement)
        self.statistics.record_plan()
        return plan

    def execute(self, statement: TUnion[str, Statement, QueryPlan],
                timeout_seconds: Optional[float] = None,
                on_source_error: str = "fail",
                deadline: Optional[Deadline] = None) -> EngineResult:
        """Plan (if needed) and execute a statement, returning the full result.

        ``timeout_seconds`` bounds the statement's wall clock (fetch waits,
        retry backoff and finalization all count against it); pass an
        existing ``deadline`` instead to share one bound across several
        executions (the CQA executor does).  ``on_source_error="partial"``
        answers from the surviving branches when a source stays dead.
        """
        stream = self._open(statement, timeout_seconds, on_source_error, deadline)
        try:
            return EngineResult(relation=stream.to_relation(), plan=stream.plan,
                                report=stream.report)
        finally:
            stream.close()

    def execute_stream(self, statement: TUnion[str, Statement, QueryPlan],
                       timeout_seconds: Optional[float] = None,
                       on_source_error: str = "fail",
                       deadline: Optional[Deadline] = None):
        """Plan (if needed) and open a pull-based cursor over the result.

        Returns a :class:`~repro.engine.stream.ResultStream`; the engine's
        aggregate statistics fold the execution report in when the stream
        finishes (exhaustion or :meth:`~repro.engine.stream.ResultStream.close`).
        ``timeout_seconds`` / ``on_source_error`` behave as in
        :meth:`execute`; the deadline also covers streaming finalization,
        so a stalled consumer-side pull fails rather than hangs.
        """
        stream = self._open(statement, timeout_seconds, on_source_error, deadline)
        self.statistics.record_stream_opened()
        return stream

    def _open(self, statement: TUnion[str, Statement, QueryPlan],
              timeout_seconds: Optional[float], on_source_error: str,
              deadline: Optional[Deadline]):
        """Plan (if needed) and open the result stream both entry points use.

        The statistics fold rides the stream's close, so a failed statement
        still books its retries, failed requests and breaker rejections.
        """
        plan = statement if isinstance(statement, QueryPlan) else self.plan(statement)
        if deadline is None:
            deadline = self.controller.resilience.deadline(timeout_seconds)
        stream = self.controller.execute_stream(plan, deadline=deadline,
                                                on_source_error=on_source_error)
        stream.on_close(self.statistics.record_execution)
        return stream

    def source_health(self) -> Dict[str, object]:
        """Breaker states and rolling per-wrapper health statistics."""
        return self.controller.resilience.snapshot()

    def build_health_prober(self, interval_seconds: float = 1.0) -> HealthProber:
        """A prober rediscovering recovered sources without sacrificing queries.

        Each registered wrapper gets a cheap probe (fetching its first
        exported relation) that the prober runs only while the wrapper's
        circuit breaker sits half-open — a probe success closes the breaker
        proactively instead of waiting for the next statement to risk a
        request against it.  Call :meth:`HealthProber.run_once` from a
        control loop or :meth:`HealthProber.start` for a daemon thread.
        """
        prober = HealthProber(self.controller.resilience,
                              interval_seconds=interval_seconds)
        for wrapper in self.catalog.wrappers:
            relations = wrapper.relation_names()
            if not relations:
                continue
            prober.register(
                wrapper.name,
                lambda w=wrapper, r=relations[0]: w.fetch(r),
            )
        return prober

    def query(self, statement: TUnion[str, Statement]) -> Relation:
        """Execute and return only the answer relation."""
        return self.execute(statement).relation

    def explain(self, statement: TUnion[str, Statement]) -> str:
        """A human-readable plan rendering (what the demo UI shows as EXPLAIN)."""
        return self.plan(statement).explain()

    # -- helpers ------------------------------------------------------------------------------

    @staticmethod
    def _parse(statement: TUnion[str, Statement]) -> Statement:
        if isinstance(statement, str):
            statement = parse(statement)
        if not isinstance(statement, (Select, Union)):
            raise EngineError(
                f"the engine executes SELECT/UNION statements, not {type(statement).__name__}"
            )
        return statement
