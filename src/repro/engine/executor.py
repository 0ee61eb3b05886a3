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


class _InstrumentedOperator(PhysicalOperator):
    """One local physical operator as the execution report lists it.

    Wraps ``child``, a bound operator of branch ``branch``, counting the rows
    and production time of its batches (two clock reads and one addition
    each).  ``elapsed_seconds`` is cumulative in the EXPLAIN ANALYZE sense:
    it covers the operator *and* everything beneath it in the pipeline,
    because it is measured around the operator's batch production.  Both
    counters advance once per batch, so beneath a LIMIT or an abandoned
    cursor ``rows_out`` may include up to one batch of rows the consumer
    never read.

    ``detail`` is the operator's EXPLAIN text (predicates, keys — ``to_sql``
    renderings); it is rendered from ``child`` when read, which only
    :meth:`snapshot` does, so an execution nobody snapshots never pays for it.
    """

    _inputs = ("child",)

    def __init__(self, child: PhysicalOperator, branch: int):
        self.child = child
        self.branch = branch
        self.operator = child.operator_name
        self.rows_out = 0
        self.elapsed_seconds = 0.0

    @property
    def operator_name(self) -> str:  # type: ignore[override]
        return self.operator

    @property
    def children(self):
        return self.child.children

    @property
    def estimated_rows(self) -> int:
        return self.child.estimated_rows

    def explain(self, indent: int = 0) -> str:
        return self.child.explain(indent)

    @property
    def detail(self) -> str:
        return self.child._explain_details()

    def snapshot(self) -> Dict[str, object]:
        return {
            "branch": self.branch,
            "operator": self.operator,
            "detail": self.detail,
            "rows_out": self.rows_out,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    def batches(self):
        clock = time.perf_counter
        child_batches = self.child.batches()
        try:
            while True:
                started = clock()
                batch = next(child_batches, None)
                self.elapsed_seconds += clock() - started
                if batch is None:
                    return
                self.rows_out += len(batch)
                yield batch
        finally:
            child_batches.close()


@dataclass
class ExecutionReport:
    """Execution trace of one statement: per-request facts plus totals.

    Mutations arrive from several threads — fetch workers append request
    entries and count attempts while the consumer thread folds
    streaming/memory totals and a server thread may snapshot mid-flight — so
    the fields are guarded by ``lock``: mutation sites hold it (a ``with
    report.lock`` block) and :meth:`snapshot` renders every block under it,
    making every snapshot a consistent point-in-time copy.
    """

    requests: List[RequestExecution] = field(default_factory=list)
    branch_rows: List[int] = field(default_factory=list)
    result_rows: int = 0
    elapsed_seconds: float = 0.0
    #: What this statement's own staged tables booked, once released.
    temp_storage: Dict[str, int] = field(default_factory=dict)
    #: The instrumented operators, one entry per listed local operator.
    operator_stats: List[_InstrumentedOperator] = field(default_factory=list)
    #: Scheduler outcome: how many distinct round trips the plan's requests
    #: collapsed into, and how they were served.
    distinct_requests: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    #: This statement's fetches in flight right now, and their peak.
    in_flight: int = 0
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
    #: The ``resilience`` block: deadline headroom, fetch attempts, retries,
    #: breaker activity and, under ``on_source_error="partial"``, every branch
    #: dropped with the request and error that killed it (never silently).
    on_source_error: str = "fail"
    timeout_seconds: Optional[float] = None
    deadline_remaining_seconds: Optional[float] = None
    attempts: int = 0
    retries: int = 0
    failed_requests: int = 0
    breaker_trips: int = 0
    breaker_rejections: int = 0
    degraded_branches: List[Dict[str, object]] = field(default_factory=list)
    #: The ``optimizer`` block: the plan's feedback epoch, join orders per
    #: branch and estimate provenance, then what bound requests did as they
    #: shipped their ``IN``-list key sets (rows avoided are the planner's
    #: unbound estimate minus rows fetched, clamped at zero).
    feedback_epoch: int = 0
    join_orders: List[List[str]] = field(default_factory=list)
    estimates_from_feedback: int = 0
    estimates_from_defaults: int = 0
    bind_joins: int = 0
    bind_batches: int = 0
    bind_keys_shipped: int = 0
    bind_rows_fetched: int = 0
    bind_rows_avoided: int = 0
    bind_bytes_saved: int = 0
    bind_empty_key_skips: int = 0
    #: Trace id of the statement's span tree, when tracing sampled it.
    trace_id: Optional[str] = None
    #: Guards every field above (see the class docstring).
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
            requests = self.requests
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
                "operators": [entry.snapshot() for entry in self.operator_stats],
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
            snapshot["resilience"] = {
                "mode": self.on_source_error,
                "timeout_seconds": self.timeout_seconds,
                "deadline_remaining_seconds": (
                    None if self.deadline_remaining_seconds is None
                    else round(self.deadline_remaining_seconds, 6)),
                "attempts": self.attempts,
                "retries": self.retries,
                "failed_requests": self.failed_requests,
                "breaker_trips": self.breaker_trips,
                "breaker_rejections": self.breaker_rejections,
                "degraded_branches": [dict(entry) for entry in self.degraded_branches],
            }
            snapshot["optimizer"] = {
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
            if self.consistency is not None:
                snapshot["consistency"] = dict(self.consistency)
        return snapshot


@dataclass
class EngineResult:
    """A query answer plus the plan and execution report that produced it."""

    relation: Relation
    plan: QueryPlan
    report: ExecutionReport


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
        f"(relation {request.transfer.target.relation!r}, "
        f"request: {request.transfer.target.text}): "
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
