"""The multi-database access engine façade.

"The multi-database access engine constitutes a front-end of dictionary and
query services to the multiple wrapped sources."

:class:`MultiDatabaseEngine` owns the catalog — the dictionary every schema
read is served from — and the planner (query services: planning and
optimization), and controls the execution of the plans it builds: it holds
what runs them — temporary storage, the request cache, the fetch pool, the
resilience policy — and opens each statement's
:class:`~repro.engine.stream.ResultStream` over them.  It is the component the
mediation server drives: mediated queries go in, relational answers and
execution reports come out.
"""

from __future__ import annotations

import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Sequence, Tuple, Union as TUnion

from repro.errors import EngineError, ExecutionError
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.executor import DEFAULT_MAX_CONCURRENT_REQUESTS, EngineResult
from repro.engine.resilience import HealthProber, ResiliencePolicy
from repro.engine.plan import QueryPlan
from repro.engine.request_cache import SourceResultCache
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.engine.stream import ResultStream
from repro.obs.metrics import CounterSet
from repro.relational.query import QueryProcessor
from repro.relational.relation import Relation
from repro.relational.storage import TemporaryStore
from repro.sql.ast import Select, Statement, Union
from repro.sql.parser import parse
from repro.wrappers.wrapper import Wrapper


#: The engine's aggregate counters: (field, kind, exported series, help).
#: Everything but ``plans_built`` and ``streams_opened`` is folded from the
#: per-statement execution report when its stream closes.
ENGINE_COUNTERS = (
    ("statements_executed", "sum", "engine_statements_total",
     "Statements executed by the engine."),
    ("plans_built", "sum", None, ""),
    ("source_requests", "sum", None, ""),
    ("source_round_trips", "sum", "engine_source_round_trips_total",
     "Source round trips actually issued (after dedup/cache)."),
    ("dedup_hits", "sum", "engine_dedup_hits_total",
     "Plan requests coalesced into an already-scheduled fetch."),
    ("cache_hits", "sum", "engine_cache_hits_total",
     "Source requests answered from the source-result cache."),
    ("rows_transferred", "sum", "engine_rows_transferred_total",
     "Rows shipped from sources over the wire."),
    ("rows_returned", "sum", None, ""),
    ("streams_opened", "sum", None, ""),
    ("rows_streamed", "sum", "engine_rows_streamed_total",
     "Rows pulled through streaming cursors."),
    ("cancelled_fetches", "sum", "engine_cancelled_fetches_total",
     "Fetches cancelled by early stream termination."),
    ("source_retries", "sum", "engine_source_retries_total",
     "Transient source failures that were retried."),
    ("failed_requests", "sum", "engine_failed_requests_total",
     "Source requests that failed for good."),
    ("breaker_trips", "sum", "engine_breaker_trips_total",
     "Circuit-breaker trips across all wrappers."),
    ("breaker_rejections", "sum", "engine_breaker_rejections_total",
     "Fetches rejected fast by an open breaker."),
    ("degraded_branches", "sum", "engine_degraded_branches_total",
     "Branches dropped by partial-answer degradation."),
    ("bind_joins", "sum", "engine_bind_joins_total",
     "Bound requests executed as batched IN-list fetches."),
    ("bind_batches", "sum", None, ""),
    ("bind_keys_shipped", "sum", None, ""),
    ("bind_rows_fetched", "sum", None, ""),
    ("bind_rows_avoided", "sum", "engine_bind_rows_avoided_total",
     "Rows a whole-relation fetch would have shipped that bind joins avoided."),
    ("spill_count", "sum", "memory_spills_total",
     "Operator spills to temporary storage."),
    ("spilled_bytes", "sum", "memory_spilled_bytes_total",
     "Bytes spilled to temporary storage."),
    ("peak_memory_bytes", "peak", "memory_peak_bytes",
     "Largest per-statement operator-memory peak observed."),
    ("join_builds_shared", "sum", "engine_join_builds_shared_total",
     "Hash-join builds answered from the build kept with the cached plan."),
)


class MultiDatabaseEngine:
    """Dictionary + query services over a set of wrapped sources.

    ``max_concurrent_requests`` caps one statement's in-flight fetches
    (1 = one at a time, each still run on the pool and awaited under the
    deadline); it does not size ``fetch_pool``, which every statement
    shares.  ``deduplicate_requests=False`` disables request
    coalescing *and* the cache — every plan request costs its own round
    trip, re-enacting the pre-scheduler behaviour for baselines and
    ablations.
    """

    def __init__(self, planner_config: Optional[PlannerConfig] = None,
                 request_cache: Optional[SourceResultCache] = None,
                 max_concurrent_requests: int = DEFAULT_MAX_CONCURRENT_REQUESTS,
                 deduplicate_requests: bool = True,
                 memory_budget_bytes: Optional[int] = None,
                 resilience: Optional[ResiliencePolicy] = None):
        self.catalog = Catalog()
        #: Retry policy and one record (breaker, health and latency profile)
        #: per wrapper — shared across statements, scans and the planner's
        #: cost model, so what one round trip taught persists for the next.
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        self.planner = QueryPlanner(self.catalog, CostModel(resilience=self.resilience),
                                    config=planner_config)
        self.temp_store = TemporaryStore("engine-temp")
        self.request_cache = request_cache
        self.max_concurrent_requests = max(1, int(max_concurrent_requests))
        #: The worker threads every statement's fetches run on, violation
        #: scans included.  Its size is no setting: a task reuses an idle
        #: worker and starts a thread only when none is idle, so a worker
        #: stuck in a hung wrapper never makes another statement's fetch
        #: wait.  The first dispatch starts the first thread, and idle
        #: workers exit once the pool is collected with the engine.
        self.fetch_pool = ThreadPoolExecutor(max_workers=sys.maxsize,
                                             thread_name_prefix="source-fetch")
        self.deduplicate = deduplicate_requests
        #: Per-statement operator memory budget (None = unbounded).  Sorts,
        #: distincts and hash-join build sides spill to temporary files
        #: rather than exceed it.
        self.memory_budget_bytes = memory_budget_bytes
        #: Runs the (table-less) subqueries of mediator-side expressions.
        self.subquery_executor = QueryProcessor(_reject_unknown_table)._subquery_executor
        self.statistics = CounterSet(ENGINE_COUNTERS)
        #: Per wrapper name, the registered wrapper and this engine's
        #: invalidation listener on it.
        self._subscriptions: Dict[str, Tuple[Wrapper, Callable[[str], bool]]] = {}

    # -- registration ------------------------------------------------------------

    def register_wrapper(self, wrapper: Wrapper, estimate_rows: bool = True) -> None:
        """Register a wrapper and catalog its relations: a source change.

        The name keeps one subscription and one resilience record: a wrapper
        registered again keeps both, a replaced one is no longer heard and
        its breaker goes with it.
        """
        self.catalog.register_wrapper(wrapper, estimate_rows=estimate_rows)
        self.invalidate_source_cache(wrapper=wrapper.name)
        name = wrapper.name.lower()
        held = self._subscriptions.get(name)
        if held is not None:
            if held[0] is wrapper:
                return
            held[0].remove_invalidation_listener(held[1])
            self.resilience.forget(name)
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
        self._subscriptions[name] = (wrapper, _cache_invalidator)

    def invalidate_source_cache(self, wrapper: Optional[str] = None,
                                relation: Optional[str] = None) -> int:
        """Forget what is memoized of the sources' data (all, one wrapper's
        or one relation's); return the request-cache entries dropped.

        Every "source changed" signal ends here: a caller's, a wrapper's
        ``notify_invalidated()``, a registration.  The affected wrappers drop
        their own memo (unnotified), the request cache its entries, and the
        catalog generation advances once, so whatever is keyed on it (plans,
        prepared queries, violation reports, the rate lookup) re-derives.
        """
        for served in self.catalog.wrappers:
            if ((wrapper is None or served.name.lower() == wrapper.lower())
                    and (relation is None or relation.lower()
                         in map(str.lower, served.relation_names()))):
                served.drop_memo()
        self.catalog.bump_generation()
        if self.request_cache is None:
            return 0
        return self.request_cache.invalidate(wrapper=wrapper, relation=relation)

    # -- query services ------------------------------------------------------------------

    def plan(self, statement: TUnion[str, Statement]) -> QueryPlan:
        """Plan a statement without executing it."""
        parsed = self._parse(statement)
        plan = self.planner.plan(parsed)
        self.statistics.add(plans_built=1)
        return plan

    def plan_branches(self, selects: Sequence[Select], union_all: bool = False,
                      statement: Optional[Statement] = None) -> QueryPlan:
        """Plan already-separated SELECT branches (the pipeline's entry point).

        The mediator hands its branch list straight to the planner — no UNION
        re-parse, no re-discovery of branch boundaries — and identical
        requests across branches are shared at plan time.  A ``statement``
        that is a UNION, or a finish over one, decides whether the union keeps
        duplicates; ``union_all`` serves only a call naming no such statement
        (:meth:`~repro.engine.planner.QueryPlanner.plan_branches`).
        """
        plan = self.planner.plan_branches(selects, union_all=union_all,
                                          statement=statement)
        self.statistics.add(plans_built=1)
        return plan

    def execute(self, statement: TUnion[str, Statement, QueryPlan],
                timeout_seconds: Optional[float] = None,
                on_source_error: str = "fail") -> EngineResult:
        """Plan (if needed) and execute a statement, returning the full result.

        ``timeout_seconds`` bounds the statement's wall clock (fetch waits,
        retry backoff and finalization all count against it).
        ``on_source_error="partial"`` answers from the surviving branches
        when a source stays dead.
        """
        stream = self._open(statement, timeout_seconds, on_source_error)
        try:
            rows = stream.fetchall()
            relation = Relation(stream.schema)
            relation.rows = rows
            return EngineResult(relation=relation, plan=stream.plan,
                                report=stream.report)
        finally:
            stream.close()

    def execute_stream(self, statement: TUnion[str, Statement, QueryPlan],
                       timeout_seconds: Optional[float] = None,
                       on_source_error: str = "fail"):
        """Plan (if needed) and open a pull-based cursor over the result.

        Returns a :class:`~repro.engine.stream.ResultStream`; the engine's
        aggregate statistics fold the execution report in when the stream
        finishes (exhaustion or :meth:`~repro.engine.stream.ResultStream.close`).
        ``timeout_seconds`` / ``on_source_error`` behave as in
        :meth:`execute`; the deadline also covers streaming finalization,
        so a stalled consumer-side pull fails rather than hangs.
        """
        stream = self._open(statement, timeout_seconds, on_source_error)
        self.statistics.add(streams_opened=1)
        return stream

    def _open(self, statement: TUnion[str, Statement, QueryPlan],
              timeout_seconds: Optional[float], on_source_error: str):
        """Plan (if needed) and open the result stream both entry points use.

        The statistics fold rides the stream's close, so a failed statement
        still books its retries, failed requests and breaker rejections.
        """
        plan = statement if isinstance(statement, QueryPlan) else self.plan(statement)
        stream = ResultStream(self, plan, self.memory_budget_bytes,
                              self.resilience.deadline(timeout_seconds), on_source_error)
        stream.on_close(self._fold)
        return stream

    def _fold(self, report) -> None:
        """Fold one finished statement's report into the aggregate counters.

        The report's lock is held only while its fields are read (a late
        fetch worker or a monitor snapshot may still touch the report) and is
        released before the counter set's, so the lock order stays flat.
        """
        with report.lock:
            add = dict(
                statements_executed=1,
                source_requests=len(report.requests),
                source_round_trips=report.source_round_trips,
                dedup_hits=report.dedup_hits,
                cache_hits=report.cache_hits,
                rows_transferred=report.rows_transferred,
                rows_returned=report.result_rows,
                rows_streamed=report.rows_streamed,
                cancelled_fetches=report.cancelled_fetches,
                source_retries=report.retries,
                failed_requests=report.failed_requests,
                breaker_trips=report.breaker_trips,
                breaker_rejections=report.breaker_rejections,
                degraded_branches=len(report.degraded_branches),
                bind_joins=report.bind_joins,
                bind_batches=report.bind_batches,
                bind_keys_shipped=report.bind_keys_shipped,
                bind_rows_fetched=report.bind_rows_fetched,
                bind_rows_avoided=report.bind_rows_avoided,
                spill_count=report.spill_count,
                spilled_bytes=report.spilled_bytes,
                peak_memory_bytes=report.peak_memory_bytes,
                join_builds_shared=report.join_builds_shared,
            )
        self.statistics.add(**add)

    def source_health(self) -> Dict[str, object]:
        """Breaker states and rolling per-wrapper health statistics."""
        return self.resilience.snapshot()

    def build_health_prober(self, interval_seconds: float = 1.0) -> HealthProber:
        """A prober rediscovering recovered sources without sacrificing queries.

        Each run probes the wrappers the catalog serves at that moment (a
        fetch of each one's first exported relation), and only those whose
        circuit breaker sits half-open — a probe success closes the breaker
        proactively instead of waiting for the next statement to risk a
        request against it.  Call :meth:`HealthProber.run_once` from a
        control loop or :meth:`HealthProber.start` for a daemon thread.
        """
        return HealthProber(self.resilience, self.catalog.wrappers,
                            interval_seconds=interval_seconds)

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


def _reject_unknown_table(name: str, source: Optional[str]) -> Relation:
    raise ExecutionError(
        f"subqueries over catalog relations (found {name!r}) are not supported "
        "inside the finalization phase"
    )
