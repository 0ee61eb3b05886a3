"""What one plan execution reports: per-request facts, operator statistics,
scheduler, streaming, memory, resilience and optimizer totals.

"Controlling the execution of the resulting query execution plan and executing
the necessary local operations (e.g. joins across sources)."

The engine (:class:`~repro.engine.engine.MultiDatabaseEngine`) controls that
execution: each plan runs as a :class:`~repro.engine.stream.ResultStream`
(its module describes how), which fills an :class:`ExecutionReport` as it
goes.  This module holds the report types and the fetch bookkeeping the
stream records into them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import RequestFailedError
from repro.engine.plan import QueryPlan, SourceRequest
from repro.engine.resilience import ResilienceReport
from repro.relational.operators import PhysicalOperator
from repro.relational.relation import Relation

#: Default bound on concurrently in-flight source requests per statement.
DEFAULT_MAX_CONCURRENT_REQUESTS = 8


@dataclass
class RequestExecution:
    """What actually happened for one source request.

    One entry is recorded per *plan* request (branch × binding), in plan
    order.  When several plan requests share one round trip, the entry that
    first used the shared fetch carries its ``fetch_seconds``; the others are
    marked ``dedup_hit`` (and ``cache_hit`` when the fetch was answered from
    the source-result cache without any round trip at all).
    ``elapsed_seconds`` covers this entry's own work: local filtering and
    staging, plus the shared fetch for the entry that triggered it.
    """

    binding: str
    wrapper_name: str
    request: str
    rows_returned: int
    rows_after_local_filters: int
    elapsed_seconds: float
    branch: int = 0
    dedup_hit: bool = False
    cache_hit: bool = False
    #: Time the fetch spent queued behind the concurrency bound.
    wait_seconds: float = 0.0
    #: Wrapper round-trip time of the shared fetch this entry relied on.
    fetch_seconds: float = 0.0


@dataclass
class OperatorStats:
    """Row/time counters of one local physical operator.

    ``elapsed_seconds`` is cumulative in the EXPLAIN ANALYZE sense: it covers
    the operator *and* everything beneath it in the pipeline, because it is
    measured around the operator's batch production.  Both counters advance
    once per batch, so beneath a LIMIT or an abandoned cursor ``rows_out``
    may include up to one batch of rows the consumer never read.

    ``detail`` is the operator's EXPLAIN text (predicates, keys — ``to_sql``
    renderings); it is rendered from ``source`` when read, which only
    :meth:`snapshot` does, so an execution nobody snapshots never pays for it."""

    branch: int
    operator: str
    source: PhysicalOperator = field(repr=False, compare=False)
    rows_out: int = 0
    elapsed_seconds: float = 0.0

    @property
    def detail(self) -> str:
        return self.source._explain_details()

    def snapshot(self) -> Dict[str, object]:
        return {
            "branch": self.branch,
            "operator": self.operator,
            "detail": self.detail,
            "rows_out": self.rows_out,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


class _InstrumentedOperator(PhysicalOperator):
    """Transparent wrapper counting rows and production time of its child,
    once per batch (two clock reads and one addition each)."""

    _inputs = ("child",)

    def __init__(self, child: PhysicalOperator, stats: OperatorStats):
        self.child = child
        self.stats = stats

    @property
    def operator_name(self) -> str:  # type: ignore[override]
        return self.child.operator_name

    @property
    def children(self):
        return self.child.children

    @property
    def estimated_rows(self) -> int:
        return self.child.estimated_rows

    def explain(self, indent: int = 0) -> str:
        return self.child.explain(indent)

    def batches(self):
        stats = self.stats
        clock = time.perf_counter
        child_batches = self.child.batches()
        try:
            while True:
                started = clock()
                batch = next(child_batches, None)
                stats.elapsed_seconds += clock() - started
                if batch is None:
                    return
                stats.rows_out += len(batch)
                yield batch
        finally:
            child_batches.close()


@dataclass
class OptimizerReport:
    """Adaptive-optimizer outcome of one statement.

    Join orders and estimate provenance come from the plan; the bind-join
    counters are filled in by the stream as bound requests actually ship
    their batched ``IN``-list key sets.
    """

    #: Feedback epoch the executed plan was priced under.
    feedback_epoch: int = 0
    #: Per branch, the binding join order (initial first).
    join_orders: List[List[str]] = field(default_factory=list)
    #: How many plan estimates came from runtime feedback vs defaults
    #: (source requests and join steps combined).
    estimates_from_feedback: int = 0
    estimates_from_defaults: int = 0
    #: Bind-join accounting: bound requests executed, IN-list batches
    #: shipped, key values shipped, rows actually fetched by bound requests,
    #: rows the planner expected an unbound fetch to transfer minus those
    #: fetched (clamped at zero), estimated bytes that saved, and bound
    #: requests skipped entirely because the driver produced no keys.
    bind_joins: int = 0
    bind_batches: int = 0
    bind_keys_shipped: int = 0
    bind_rows_fetched: int = 0
    bind_rows_avoided: int = 0
    bind_bytes_saved: int = 0
    bind_empty_key_skips: int = 0

    def snapshot(self) -> Dict[str, object]:
        return {
            "feedback_epoch": self.feedback_epoch,
            "join_orders": [list(order) for order in self.join_orders],
            "estimates_from_feedback": self.estimates_from_feedback,
            "estimates_from_defaults": self.estimates_from_defaults,
            "bind_joins": self.bind_joins,
            "bind_batches": self.bind_batches,
            "bind_keys_shipped": self.bind_keys_shipped,
            "bind_rows_fetched": self.bind_rows_fetched,
            "bind_rows_avoided": self.bind_rows_avoided,
            "bind_bytes_saved": self.bind_bytes_saved,
            "bind_empty_key_skips": self.bind_empty_key_skips,
        }


@dataclass
class ExecutionReport:
    """Execution trace of one statement: per-request facts plus totals.

    Mutations arrive from several threads — fetch workers append request
    entries while the consumer thread folds streaming/memory totals and a
    server thread may snapshot mid-flight — so the list/dict fields are
    guarded by ``lock``: mutation sites hold it (a ``with report.lock``
    block) and :meth:`snapshot` takes it too, making every snapshot a
    consistent point-in-time copy.
    """

    requests: List[RequestExecution] = field(default_factory=list)
    branch_rows: List[int] = field(default_factory=list)
    result_rows: int = 0
    elapsed_seconds: float = 0.0
    temp_storage: Dict[str, int] = field(default_factory=dict)
    operator_stats: List[OperatorStats] = field(default_factory=list)
    #: Scheduler outcome: how many distinct round trips the plan's requests
    #: collapsed into, and how they were served.
    distinct_requests: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    #: Peak number of this statement's fetches simultaneously in flight.
    max_in_flight: int = 0
    #: Pool submission order (one binding per pending fetch).  When the
    #: catalog's per-wrapper EWMA latency profiles are mature the scheduler
    #: submits the expected-slowest fetch first so the statement's long pole
    #: starts earliest; ``dispatch_policy`` records whether profiles
    #: ("latency") or plan order ("plan") decided it.
    dispatch_order: List[str] = field(default_factory=list)
    dispatch_policy: str = "plan"
    #: Streaming counters: rows actually pulled through the cursor, the wall
    #: clock until the first of them, and fetches a closed/limit-satisfied
    #: stream cancelled before they were ever issued.
    rows_streamed: int = 0
    first_row_seconds: float = 0.0
    cancelled_fetches: int = 0
    #: Memory accounting: the configured operator budget (0 = unbounded), the
    #: observed operator peak, bytes staged in temporary storage, and what
    #: spilled to secondary storage when the budget was exceeded.
    memory_limit_bytes: int = 0
    peak_memory_bytes: int = 0
    staged_bytes: int = 0
    spill_count: int = 0
    spilled_rows: int = 0
    spilled_bytes: int = 0
    #: Hash joins that probed the build their plan template kept from an
    #: earlier execution instead of building (aggregate counter only).
    join_builds_shared: int = 0
    #: Consistent-query-answering outcome, populated only for statements run
    #: under ``consistency="certain"``/``"possible"``: mode, strategy
    #: (rewrite / fallback / clean), keyed relations, repairs enumerated and,
    #: under enumeration, conflict clusters touched, raw row count, and how
    #: many raw rows certainty dropped.
    consistency: Optional[Dict[str, object]] = None
    #: Fault-tolerance outcome: fetch attempts, retries, breaker activity,
    #: degraded branches and deadline headroom (see
    #: :class:`~repro.engine.resilience.ResilienceReport`).
    resilience: ResilienceReport = field(default_factory=ResilienceReport)
    #: Adaptive-optimizer outcome: join orders, estimate provenance and
    #: bind-join transfer accounting.
    optimizer: OptimizerReport = field(default_factory=OptimizerReport)
    #: Trace id of the statement's span tree, when tracing sampled it.
    trace_id: Optional[str] = None
    #: Guards the mutable collections/counters above against concurrent
    #: snapshots (see the class docstring).
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                 compare=False)

    @property
    def rows_transferred(self) -> int:
        """Rows actually shipped from sources: dedup'd and cached request
        entries reused rows that already crossed the wire, so only the entry
        that triggered a real round trip counts its rows."""
        return sum(
            request.rows_returned for request in self.requests
            if not request.dedup_hit and not request.cache_hit
        )

    @property
    def source_round_trips(self) -> int:
        """Round trips actually issued: distinct requests minus cache hits."""
        return self.distinct_requests - self.cache_hits

    def snapshot(self) -> Dict[str, object]:
        with self.lock:
            requests = list(self.requests)
            snapshot: Dict[str, object] = {
                "requests": len(requests),
                "rows_transferred": sum(
                    request.rows_returned for request in requests
                    if not request.dedup_hit and not request.cache_hit
                ),
                "branch_rows": list(self.branch_rows),
                "result_rows": self.result_rows,
                "elapsed_seconds": round(self.elapsed_seconds, 6),
                "temp_storage": dict(self.temp_storage),
                "operators": [stats.snapshot() for stats in self.operator_stats],
                "scheduler": {
                    "distinct_requests": self.distinct_requests,
                    "source_round_trips": self.distinct_requests - self.cache_hits,
                    "dedup_hits": self.dedup_hits,
                    "cache_hits": self.cache_hits,
                    "max_in_flight": self.max_in_flight,
                    "dispatch_order": list(self.dispatch_order),
                    "dispatch_policy": self.dispatch_policy,
                    "wait_seconds": round(
                        sum(request.wait_seconds for request in requests), 6
                    ),
                    "fetch_seconds": round(
                        sum(request.fetch_seconds for request in requests), 6
                    ),
                },
                "streaming": {
                    "rows_streamed": self.rows_streamed,
                    "first_row_seconds": round(self.first_row_seconds, 6),
                    "cancelled_fetches": self.cancelled_fetches,
                },
                "memory": {
                    "limit_bytes": self.memory_limit_bytes,
                    "peak_bytes": self.peak_memory_bytes,
                    "staged_bytes": self.staged_bytes,
                    "spill_count": self.spill_count,
                    "spilled_rows": self.spilled_rows,
                    "spilled_bytes": self.spilled_bytes,
                },
            }
            if self.trace_id is not None:
                snapshot["trace_id"] = self.trace_id
            consistency = (dict(self.consistency)
                           if self.consistency is not None else None)
        # The sub-reports carry their own locks; taking them outside ours
        # keeps the lock order flat (never nested the other way around).
        snapshot["resilience"] = self.resilience.snapshot()
        snapshot["optimizer"] = self.optimizer.snapshot()
        if consistency is not None:
            snapshot["consistency"] = consistency
        return snapshot


@dataclass
class EngineResult:
    """A query answer plus the plan and execution report that produced it."""

    relation: Relation
    plan: QueryPlan
    report: ExecutionReport


class _InFlightGauge:
    """Thread-safe high-water mark of concurrently running fetches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current = 0
        self.peak = 0

    def __enter__(self) -> "_InFlightGauge":
        with self._lock:
            self._current += 1
            if self._current > self.peak:
                self.peak = self._current
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._current -= 1


@dataclass
class _FetchOutcome:
    """The shared result of one distinct source round trip (or cache hit).

    ``frozen`` marks relations that are private copies (the source-result
    cache hands out a fresh copy per hit): their row lists can be staged by
    reference.  Relations straight from a wrapper may be live views of the
    source's table and must be copied once when staged.

    ``error`` is set — and ``relation`` is None — when the fetch failed for
    good (retries exhausted, permanent error, open breaker): a failed
    outcome is never banked into the source-result cache and never updates
    catalog estimates, whether it is consumed by a branch or discovered at
    ``close()`` time.
    """

    relation: Optional[Relation]
    request_text: str
    cache_hit: bool = False
    frozen: bool = False
    fetch_seconds: float = 0.0
    wait_seconds: float = 0.0
    error: Optional[BaseException] = None
    attempts: int = 1


#: Memoized combined error classes: original error type → context-rich type.
_REQUEST_ERROR_TYPES: Dict[type, type] = {}


def request_failed_error(request: SourceRequest,
                         error: BaseException) -> RequestFailedError:
    """The scheduler's terminal fetch error, with full request context.

    The returned error names the wrapper, the relation and the pushed SQL /
    FETCH text, *and* remains an instance of the original error's type
    (``RequestFailedError`` is mixed in as an additional base), so handlers
    catching e.g. :class:`~repro.errors.SourceUnavailableError` keep working
    while gaining the request context in the message.
    """
    message = (
        f"source request failed on wrapper {request.wrapper_name!r} "
        f"(relation {request.relation!r}, request: {request.request_text}): "
        f"{error}"
    )
    base = type(error)
    if issubclass(base, RequestFailedError):
        return base(message)
    combined = _REQUEST_ERROR_TYPES.get(base)
    if combined is None:
        try:
            combined = type(
                f"RequestFailed[{base.__name__}]", (RequestFailedError, base), {}
            )
            combined(message)  # probe: the base must accept a lone message
        except Exception:
            combined = RequestFailedError
        _REQUEST_ERROR_TYPES[base] = combined
    return combined(message)
