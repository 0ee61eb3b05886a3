"""The streaming execution core: a plan's fetch stage, and a pull-based
cursor over its root operator.

A plan is one tree (:mod:`repro.relational.algebra`); running it is lowering
the tree and pulling ``root.batches()``.  A :class:`ResultStream` does that —
nothing else executes a plan — and owns what the tree does not say: it

* admits the plan's distinct source fetches into its fetch stage — and a
  bind join's IN-list batches once its driver is staged — answering what it
  can from the request cache; the rest run on the engine's shared fetch
  pool, from the statement's own queue, which at most
  ``max_concurrent_requests`` lanes drain under the statement's retries,
  breakers and deadline.  Several fetches pending at open are dispatched
  there and then, expected-slowest first; any other fetch when a branch
  first needs it.  The consumer only ever waits on a fetch's future, under
  the deadline;
* stages and binds branches **lazily**, in plan order: a branch is an input
  of the root operator (:class:`_Branch`) which, on first pull, brings its
  shipped relations across through its template's stages (fitted to the
  catalogued columns, qualified, locally filtered) and copies its operator
  template — lowered once per cached plan from the branch's tree and the
  schemas its requests are catalogued to ship, so the answer's schema is
  known before any fetch — over them, one cheap copy per operator.  Every
  branch finishes through ``Project`` → ``Sort`` → ``Distinct`` → ``Limit``;
  a grouped one has an ``Aggregate`` (which buffers its input) and HAVING's
  ``Filter`` beneath.  A UNION's root is ``UnionAll`` over the branches and,
  unless it is UNION ALL, a ``Distinct`` on exact row equality; a lone
  branch is its own root;
* threads one shared :class:`~repro.relational.budget.MemoryBudget` through
  every memory-hungry operator of a branch and the UNION's ``Distinct``, so
  the statement's operator memory is bounded and spills are observable in
  the execution report (the UNION's own two operators are not listed among
  its operators, but their reservations and spills are in its memory block);
* **terminates early**: a consumer that stops pulling (a satisfied LIMIT, an
  explicit :meth:`close`) cancels queued source fetches, so they never reach
  their wrapper, and drops the staged temporaries mid-query; the lanes
  return their workers to the shared pool once the queue is empty.

Per-execution state — the budget, operator statistics, spill flags, join
watchers, a bind join's IN-lists, degraded branches — lives only in the
stream and its bound operator copies; templates are shared read-only by
concurrent executions.

Rows move in **batches** (plain lists of row tuples, see
:mod:`repro.relational.operators`): the operator pipelines hand batches up,
and the deadline test, the report lock and ``rows_streamed`` are paid once
per batch handed to the consumer.  A fetch that wants fewer rows than a
batch holds leaves the rest in a carried remainder, which later fetches
drain first — ``rows_streamed`` counts rows handed over, never rows waiting
there.

``MultiDatabaseEngine.execute`` drains a stream to re-create the historical
eager behaviour byte for byte: same rows, same order, same report fields —
plus the new streaming and memory counters.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import closing
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import replace
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    SchemaError,
    SourceUnavailableError,
)
from repro.engine.executor import (
    ExecutionReport,
    RequestExecution,
    _FetchOutcome,
    _InstrumentedOperator,
    request_failed_error,
)
from repro.engine.plan import QueryPlan, SourceRequest
from repro.engine.request_cache import RequestKey, request_key
from repro.engine.resilience import Deadline
from repro.obs.trace import current_span
from repro.relational import algebra
from repro.relational.algebra import Stage
from repro.relational.budget import MemoryBudget, estimate_row_bytes
from repro.relational.compile import KernelScope
from repro.relational.operators import Batch, PhysicalOperator, TableScan
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema
from repro.relational.types import sort_key as value_sort_key
from repro.sql.ast import ColumnRef, InList, Literal


def adaptive_timeout_error(wrapper_name: str, request_text: str,
                           adaptive_seconds: Optional[float]) -> SourceUnavailableError:
    """The transient source failure an adaptive-timeout expiry turns into."""
    bound = (
        f"{adaptive_seconds:.3f}s" if adaptive_seconds is not None else "its bound"
    )
    error = SourceUnavailableError(
        f"wrapper {wrapper_name!r} exceeded its adaptive fetch timeout of "
        f"{bound} (rolling p95 × headroom) awaiting {request_text}"
    )
    error.transient = True
    return error


class _SourceFailure(Exception):
    """Internal control flow: one distinct fetch failed for good.

    Carries the request key and its (error-bearing) outcome so the branch
    builder can either degrade the branch (``on_source_error="partial"``) or
    raise the context-rich terminal error (``"fail"``).
    """

    def __init__(self, key: RequestKey, outcome: _FetchOutcome):
        super().__init__(str(outcome.error))
        self.key = key
        self.outcome = outcome


def _cache_hit(relation: Relation, request: SourceRequest) -> _FetchOutcome:
    """The outcome of a fetch the request cache answered (a private copy)."""
    return _FetchOutcome(relation=relation, request_text=request.transfer.target.text,
                         cache_hit=True, frozen=True)


def _catalogued_positions(stage: Stage, request: SourceRequest,
                          shipped: Schema) -> Optional[List[int]]:
    """Where ``shipped`` holds the columns ``stage`` was lowered against:
    None when it lists exactly their names in order, else their positions
    (an extra column is dropped).  A shipment lacking one cannot be staged."""
    catalogued = stage.source.names
    if shipped.names == catalogued:
        return None
    try:
        return [shipped.index_of(name) for name in catalogued]
    except SchemaError:
        raise ExecutionError(
            f"wrapper {request.wrapper_name!r} shipped columns {shipped.names} "
            f"for {request.transfer.target.text}, not the catalogued {catalogued}"
        ) from None


class _Branch(PhysicalOperator):
    """One branch of the plan as an input of the root operator: staged and
    bound on first pull, so a branch the consumer never reaches costs no
    round trip.  One degraded under ``on_source_error="partial"`` yields no
    rows."""

    def __init__(self, stream: "ResultStream", index: int):
        self._stream = stream
        self._index = index

    @property
    def schema(self) -> Schema:
        schema = self._stream._lowered(self._index)[1].schema
        alias = self._stream._union_alias
        return schema if alias is None else schema.with_qualifier(alias)

    def batches(self) -> Iterator[Batch]:
        pipeline = self._stream._build_branch(self._index)
        if pipeline is None:
            return  # degraded: the answer flows on without it
        rows = 0
        with closing(pipeline.batches()) as batches:
            for batch in batches:
                rows += len(batch)
                yield batch
        report = self._stream.report
        with report.lock:
            report.branch_rows.append(rows)


class ResultStream:
    """A pull-based cursor over one plan execution.

    Read it with :meth:`fetchmany` / :meth:`fetchall`; a consumer wanting
    one row at a time is a :class:`~repro.federation.FederationCursor`.  The
    stream closes itself on
    exhaustion; close it explicitly (or use it as a context manager) when
    abandoning it early so outstanding fetches are cancelled and staged
    temporaries released.  ``report`` is filled progressively and finalized
    (elapsed, peaks, temp-storage snapshot) when the stream finishes.

    It runs on ``engine``'s catalog, request cache, fetch pool, temporary
    storage and resilience policy; ``memory_budget_bytes`` bounds its
    operator memory (None = unbounded) — a statement's budget is the
    engine's, a violation scan's the scanner's.
    """

    def __init__(self, engine, plan: QueryPlan,
                 memory_budget_bytes: Optional[int], deadline: Deadline,
                 on_source_error: str = "fail"):
        if not plan.branches:
            raise ExecutionError(
                "cannot execute a plan with no branches: the planner produced "
                "an empty UNION (no SELECT branch to evaluate)"
            )
        template = plan.template
        self.engine = engine
        self.plan = plan
        self.report = ExecutionReport(
            memory_limit_bytes=memory_budget_bytes or 0,
            on_source_error=on_source_error,
            timeout_seconds=deadline.timeout_seconds,
            feedback_epoch=plan.feedback_epoch,
            join_orders=template.join_orders,  # shared; snapshots copy
            estimates_from_feedback=template.estimates_from_feedback,
            estimates_from_defaults=template.estimates_from_defaults,
            consistency=None if plan.consistency is None else dict(plan.consistency),
        )
        self.budget = MemoryBudget(memory_budget_bytes)
        self._deadline = deadline
        self._partial = on_source_error == "partial"

        #: The ambient (execute) span at construction time.  Fetch workers
        #: run on pool threads where the tracing contextvar is absent, so the
        #: parent is captured here and children are created explicitly —
        #: ``Span.child`` is thread-safe, and on the untraced path this is
        #: the no-op ``NULL_SPAN`` whose children cost nothing.
        self._parent_span = current_span()
        #: One "stream" child span covering the cursor's lifetime; finished
        #: (with the finalize counters) in :meth:`close`.
        self._span = self._parent_span.child("stream")

        self._started = time.perf_counter()
        self._closed = False
        self._exhausted = False
        self._first_row_seen = False
        #: The carried remainder: rows of the last batch pulled that no fetch
        #: has handed to the consumer yet, from ``_pending_at`` on.
        self._pending: List[Row] = []
        self._pending_at = 0
        #: Per branch, the lowering this execution stages and binds.
        self._lowerings: List[Optional[Tuple[Tuple[Stage, ...], PhysicalOperator]]] = [
            None] * len(plan.branches)
        self._staged_handles: List[str] = []
        #: Keys already staged at least once (drives dedup_hit bookkeeping).
        self._consumed_keys: set = set()
        #: Keys whose fetch result was consumed (cache put + estimate done).
        self._finalized_keys: set = set()
        self._close_callbacks: List[Callable[[ExecutionReport], None]] = []
        #: (algebra.Join, instrumented operator) pairs whose observed
        #: cardinality feeds the adaptive optimizer when the stream drains to
        #: exhaustion.
        self._join_watchers: List[Tuple[object, _InstrumentedOperator]] = []

        # -- phase 1: admit the distinct fetches, dispatch --------------------
        # A bound request has no final SQL until its driver's key set is
        # known (its key is None): its IN-list batches are admitted when the
        # driver is staged.
        if engine.deduplicate:
            self._keys, distinct = template.keys, template.distinct
        else:
            # Baseline mode: every plan request is its own round trip.
            self._keys = [
                [None if request.bind is not None
                 else self._plan_key(request, branch_index, request_index)
                 for request_index, request in enumerate(branch.requests)]
                for branch_index, branch in enumerate(plan.branches)
            ]
            distinct = {
                key: request
                for keys, branch in zip(self._keys, plan.branches)
                for key, request in zip(keys, branch.requests) if key is not None
            }
        self._cache = engine.request_cache if engine.deduplicate else None
        self._distinct: Dict[RequestKey, SourceRequest] = {}
        self._outcomes: Dict[RequestKey, _FetchOutcome] = {}
        self._futures: Dict[RequestKey, "Future[_FetchOutcome]"] = {}
        #: Dispatched fetches no lane has taken yet, in dispatch order, and
        #: the number of lanes draining them (both guarded by the lock).
        self._queue: Deque[Tuple[RequestKey, "Future[_FetchOutcome]", float]] = deque()
        self._lanes = 0
        self._lanes_lock = threading.Lock()
        pending = self._admit(distinct, template.units - len(distinct))
        if len(pending) > 1 and engine.max_concurrent_requests > 1:
            self._dispatch(self._dispatch_order(pending))
        # Any other fetch is dispatched when a branch first needs it, so a
        # branch a satisfied LIMIT never reaches costs no round trip at all.

        # -- phase 2: the root operator, over branches staged on first use -------
        #: The alias the statement's finish over the union reads it by.
        self._union_alias = None if plan.finish is None else plan.finish.tables[0].alias
        self._branches: Sequence[_Branch] = [
            _Branch(self, index) for index in range(len(plan.branches))]
        #: The root's columns when it finishes the union or enumerates
        #: repairs; either lowering read only the branches' lowered schemas.
        #: (The root itself is not kept: through its branches it points back
        #: here.)
        self._root_schema: Optional[Schema] = None
        if plan.root is plan.branches[0].tree:
            root: PhysicalOperator = self._branches[0]
        else:
            root = algebra.lower(
                plan.root, self._branches,
                KernelScope(engine.subquery_executor, template.kernels), self.budget,
                self.report.consistency)
            if plan.root.__class__ is not algebra.Union:
                self._root_schema = root.schema
        self._batches = root.batches()

    # -- fetching ------------------------------------------------------------------

    def _plan_key(self, request: SourceRequest, branch_index: int,
                  request_index) -> RequestKey:
        if self.engine.deduplicate:
            return request_key(request)
        # Baseline mode: make every plan request its own round trip.
        scan = request.transfer.target
        return RequestKey(
            wrapper=request.wrapper_name.lower(),
            relation=scan.relation.lower(),
            text=f"{scan.text} #branch{branch_index}.{request_index}",
        )

    def _admit(self, requests: Dict[RequestKey, SourceRequest],
               dedup_hits: int) -> List[RequestKey]:
        """Take ``requests`` — distinct, and new to this execution — into the
        fetch stage, ``dedup_hits`` more having coalesced into them or into
        earlier ones; answer those the request cache holds and return the
        keys left to fetch, in order."""
        self._distinct.update(requests)
        cached = (self._cache.get_many(requests)
                  if self._cache is not None and requests else {})
        for key, relation in cached.items():
            self._outcomes[key] = _cache_hit(relation, requests[key])
        report = self.report
        with report.lock:
            report.distinct_requests += len(requests)
            report.dedup_hits += dedup_hits
            report.cache_hits += len(cached)
        return [key for key in requests if key not in cached]

    def _dispatch_order(self, pending: List[RequestKey]) -> List[RequestKey]:
        """Order pool submissions so the expected-slowest fetch starts first.

        With more pending fetches than pool workers, plan order can leave the
        statement's long pole queued behind quick lookups; its latency then
        adds to the tail instead of overlapping it.  Each wrapper record's
        EWMA latency profile (request overhead + per-row transfer, published
        after three successful round trips) gives an expected wall-clock cost
        per fetch; submitting in descending cost keeps the critical path at
        the front of the pool.  Wrappers without a profile cost 0.0 and keep
        plan order behind the profiled ones.
        """
        resilience = self.engine.resilience
        expected: Dict[RequestKey, float] = {}
        profiled = False
        for key in pending:
            request = self._distinct[key]
            cost = 0.0
            profile = resilience.profile(request.wrapper_name)
            if profile is not None:
                profiled = True
                request_seconds, seconds_per_row = profile
                rows = max(int(request.estimated_result_rows or 0), 1)
                cost = request_seconds + seconds_per_row * rows
            expected[key] = cost
        if profiled:
            indexed = sorted(range(len(pending)),
                             key=lambda i: (-expected[pending[i]], i))
            pending = [pending[i] for i in indexed]
            self.report.dispatch_policy = "latency"
        self.report.dispatch_order = [
            self._distinct[key].transfer.binding for key in pending
        ]
        return pending

    def _dispatch(self, keys: List[RequestKey]) -> None:
        """Queue ``keys`` for fetching, in order, and start the lanes that
        drain the queue on the engine's fetch pool: never more than
        ``max_concurrent_requests`` at once, whatever else the pool runs."""
        queued_at = time.perf_counter()
        with self._lanes_lock:
            for key in keys:
                future = self._futures[key] = Future()
                self._queue.append((key, future, queued_at))
            lanes = min(len(self._queue),
                        self.engine.max_concurrent_requests - self._lanes)
            self._lanes += lanes
        for _ in range(lanes):
            self.engine.fetch_pool.submit(self._lane)

    def _lane(self) -> None:
        """Fetch the statement's queued requests one after another until the
        queue is empty; a fetch :meth:`close` cancelled is skipped unstarted."""
        while True:
            with self._lanes_lock:
                if not self._queue:
                    self._lanes -= 1
                    return
                key, future, queued_at = self._queue.popleft()
            if not future.set_running_or_notify_cancel():
                continue
            try:
                outcome = self._fetch(key, queued_at)
            except Exception as error:  # defensive: _fetch returns error outcomes
                future.set_exception(error)
            else:
                future.set_result(outcome)

    def _fetch(self, key: RequestKey, queued_at: float) -> _FetchOutcome:
        """One guarded round trip: retries, breaker and deadline applied.

        Never raises: a fetch that fails for good returns an outcome whose
        ``error`` is set (and whose relation is None), so pool futures always
        resolve and ``close()``-time banking can check the fetch outcome.
        """
        request = self._distinct[key]
        transfer = request.transfer
        scan = transfer.target
        wrapper = self.engine.catalog.wrappers.get(request.wrapper_name)

        def attempt():
            if scan.query is not None:
                return wrapper.query(scan.query)
            return wrapper.fetch(scan.relation)

        # Explicit parentage: this may run on a pool thread, where the
        # tracing contextvar does not propagate.  The span is finished on
        # every path out, so a fetch that completes never leaks an open span.
        fetch_span = self._parent_span.child(
            "fetch", wrapper=request.wrapper_name, binding=transfer.binding,
            request=scan.text,
        )
        report = self.report
        with report.lock:
            report.in_flight += 1
            if report.in_flight > report.max_in_flight:
                report.max_in_flight = report.in_flight
        fetch_started = time.perf_counter()
        try:
            fetched, attempts = self.engine.resilience.run_fetch(
                wrapper_name=request.wrapper_name,
                request_text=scan.text,
                fetch=attempt,
                deadline=self._deadline,
                report=report,
                span=fetch_span if fetch_span.recording else None,
            )
        except Exception as error:
            fetch_span.finish(error=error)
            return _FetchOutcome(
                relation=None,
                request_text=scan.text,
                fetch_seconds=time.perf_counter() - fetch_started,
                wait_seconds=fetch_started - queued_at,
                error=error,
            )
        finally:
            with report.lock:
                report.in_flight -= 1
        fetch_elapsed = time.perf_counter() - fetch_started
        fetch_span.annotate(rows=len(fetched), attempts=attempts)
        fetch_span.finish()
        return _FetchOutcome(
            relation=fetched,
            request_text=scan.text,
            fetch_seconds=fetch_elapsed,
            wait_seconds=fetch_started - queued_at,
            attempts=attempts,
        )

    def _outcome(self, key: RequestKey) -> _FetchOutcome:
        """The fetch result for ``key``: dispatched to the pool if this is
        the first need of it, and awaited.

        Raises :class:`DeadlineExceededError` when the statement deadline
        fires first (in the wait, or inside the fetch's retry loop), and
        :class:`_SourceFailure` when the fetch failed for good — the branch
        builder turns the latter into degradation or a terminal error.
        """
        outcome = self._outcomes.get(key)
        if outcome is None:
            future = self._futures.get(key)
            if future is None:
                self._dispatch([key])
                future = self._futures[key]
            request = self._distinct[key]
            text = request.transfer.target.text
            wait = self._deadline.remaining()
            # A wrapper with an earned latency profile gets its own wait
            # bound (p95 × headroom): a habitually-fast source that
            # suddenly stalls is cut loose long before the statement
            # deadline instead of consuming all of it.
            adaptive = None
            if self._deadline.bounded:
                adaptive = self.engine.resilience.source(
                    request.wrapper_name
                ).fetch_timeout()
                if adaptive is not None:
                    wait = adaptive if wait is None else min(wait, adaptive)
            try:
                outcome = future.result(timeout=wait)
            except FutureTimeoutError:
                remaining = self._deadline.remaining()
                if remaining is not None and remaining <= 0:
                    raise DeadlineExceededError(
                        f"statement deadline of "
                        f"{self._deadline.timeout_seconds}s exceeded awaiting "
                        f"{text} from wrapper "
                        f"{request.wrapper_name!r}"
                    ) from None
                # The adaptive bound fired with deadline budget left: a
                # *source* failure (transient — the wrapper may recover),
                # so partial mode can degrade the branch instead of
                # killing the statement.
                error = adaptive_timeout_error(
                    request.wrapper_name, text, adaptive
                )
                outcome = _FetchOutcome(
                    relation=None,
                    request_text=text,
                    error=error,
                )
            self._outcomes[key] = outcome
        self._consume_outcome(key, outcome)
        if outcome.error is not None:
            if isinstance(outcome.error, DeadlineExceededError):
                # A deadline expiry is a statement-level failure, never a
                # degradable source failure.
                raise outcome.error
            raise _SourceFailure(key, outcome)
        return outcome

    def _consume_outcome(self, key: RequestKey, outcome: _FetchOutcome) -> None:
        """One-time bookkeeping per distinct fetch: cache put + feedback.

        A failed fetch is finalized without banking: neither the cache, the
        catalog estimates nor the cardinality feedback may ever see a
        poisoned (failed or partially fetched) result, whether the failure is
        consumed by a branch or discovered while closing.  Limited requests
        (pushed LIMIT) and bind-join batches ship deliberately truncated row
        sets, so they never feed cardinality.  (The round trip's latency was
        booked on the wrapper's record when it succeeded.)
        """
        if key in self._finalized_keys:
            return
        self._finalized_keys.add(key)
        if outcome.error is not None:
            return
        request = self._distinct[key]
        if self._cache is not None and not outcome.cache_hit:
            self._cache.put(key, outcome.relation)
        scan = request.transfer.target
        if request.bind_batch or scan.limit is not None:
            return
        observed = len(outcome.relation)
        # Keep estimates honest for subsequent planning rounds — once per
        # distinct request, so branch fan-out does not skew the estimate.
        # Only an *unfiltered* fetch reflects the relation's base
        # cardinality; filtered counts go to the feedback store instead,
        # keyed by their predicate fingerprint.
        if not scan.conditions:
            self.engine.catalog.update_estimate(scan.relation, max(observed, 1))
        planned = (request.estimated_result_rows
                   if request.estimated_result_rows > 0 else None)
        self.engine.catalog.feedback.record_request(
            scan.relation, scan.fingerprint, observed, planned_rows=planned,
        )

    # -- bind joins ----------------------------------------------------------------

    def _fetch_bound(self, branch_index: int, index: int, request: SourceRequest,
                     driver: Relation, stage: Stage) -> Tuple[_FetchOutcome, bool]:
        """Fetch one bound request — ship the ``driver``'s key set — and
        return its combined outcome and whether any batch was used for the
        first time.

        The driver's staged rows yield the distinct non-NULL values of each
        key column; the first column's values are chunked into ``batch_size``
        ``IN`` lists (the other columns ship their full lists in every batch,
        so batches stay disjoint and their union is the same superset).  A
        batch is the request's scan with its ``IN`` lists appended to the
        scan's conditions.  The batches are admitted like the plan's own
        requests — a repeated statement with an unchanged key set is answered
        from the source-result cache without any round trip — and the rest
        dispatched.
        """
        report = self.report
        spec = request.bind
        transfer = request.transfer
        scan = transfer.target
        with report.lock:
            report.bind_joins += 1

        column_values: List[List[object]] = []
        for driver_column in spec.driver_columns:
            position = driver.schema.index_of(driver_column, spec.driver_binding)
            values = {row[position] for row in driver.rows if row[position] is not None}
            # Sorted for a deterministic (and therefore cacheable) SQL text.
            column_values.append(sorted(values, key=value_sort_key))

        if not driver.rows or any(not values for values in column_values):
            # No keys: the equi join upstream cannot match anything, so the
            # round trip is skipped entirely.
            with report.lock:
                report.bind_empty_key_skips += 1
                report.bind_rows_avoided += spec.estimated_unbound_rows
            return _FetchOutcome(
                relation=Relation(stage.source, name=f"{transfer.binding}_bound"),
                request_text=f"{scan.text} /* bind: empty key set */",
                frozen=True,
            ), True

        qualifier = scan.alias or scan.relation
        batch_size = max(1, spec.batch_size)
        first_values = column_values[0]
        chunks = [first_values[start:start + batch_size]
                  for start in range(0, len(first_values), batch_size)]

        batch_keys: List[RequestKey] = []
        admitted: Dict[RequestKey, SourceRequest] = {}
        keys_shipped = 0
        for batch_number, chunk in enumerate(chunks):
            in_lists = [InList(
                expr=ColumnRef(name=spec.bound_columns[0], table=qualifier),
                items=tuple(Literal(value) for value in chunk),
            )]
            keys_shipped += len(chunk)
            for bound_column, values in zip(spec.bound_columns[1:], column_values[1:]):
                in_lists.append(InList(
                    expr=ColumnRef(name=bound_column, table=qualifier),
                    items=tuple(Literal(value) for value in values),
                ))
                keys_shipped += len(values)
            batch_scan = replace(scan, conditions=(*scan.conditions, *in_lists))
            batch_request = replace(request, transfer=replace(transfer, target=batch_scan),
                                    bind=None, bind_batch=True)
            key = self._plan_key(
                batch_request, branch_index, f"{index}.{batch_number}"
            )
            if key not in self._distinct:
                admitted.setdefault(key, batch_request)
            batch_keys.append(key)
        pending = self._admit(admitted, len(batch_keys) - len(admitted))
        if pending:
            self._dispatch(pending)

        combined_rows: List[Row] = []
        schema: Optional[Schema] = None
        fetch_seconds = 0.0
        wait_seconds = 0.0
        all_cache_hits = True
        any_first = False
        for key in batch_keys:
            outcome = self._outcome(key)
            if key not in self._consumed_keys:
                any_first = True
                fetch_seconds += outcome.fetch_seconds
                wait_seconds += outcome.wait_seconds
            self._consumed_keys.add(key)
            all_cache_hits = all_cache_hits and outcome.cache_hit
            if schema is None:
                schema = outcome.relation.schema
            combined_rows.extend(outcome.relation.rows)

        avoided = max(0, spec.estimated_unbound_rows - len(combined_rows))
        with report.lock:
            report.bind_batches += len(batch_keys)
            report.bind_keys_shipped += keys_shipped
            report.bind_rows_fetched += len(combined_rows)
            report.bind_rows_avoided += avoided
            if combined_rows and avoided:
                report.bind_bytes_saved += (
                    estimate_row_bytes(combined_rows[0]) * avoided
                )

        combined = Relation(schema, name=f"{transfer.binding}_bound")
        combined.rows = combined_rows
        total_keys = sum(len(values) for values in column_values)
        return _FetchOutcome(
            relation=combined,
            request_text=(f"{scan.text} /* bind {len(batch_keys)} "
                          f"batch(es), {total_keys} key(s) */"),
            cache_hit=all_cache_hits,
            frozen=True,
            fetch_seconds=fetch_seconds,
            wait_seconds=wait_seconds,
        ), any_first

    # -- branch pipelines ----------------------------------------------------------

    def _build_branch(self, branch_index: int) -> Optional[PhysicalOperator]:
        """Stage one branch's inputs and bind its lowered template to them.

        Returns None when the branch was degraded: one of its sources failed
        for good and the stream runs under ``on_source_error="partial"`` —
        the drop is recorded in the report's resilience block, and the last
        branch to go takes the statement with it.  In ``"fail"`` mode the
        same failure raises the context-rich terminal error.
        """
        stages, operators = self._lowered(branch_index)
        report = self.report
        staged: Dict[int, Relation] = {}
        try:
            for index in range(len(stages)):
                self._staged(branch_index, index, stages, staged)
        except _SourceFailure as failure:
            failed_request = self._distinct[failure.key]
            if self._partial:
                error = failure.outcome.error
                with report.lock:
                    report.degraded_branches.append({
                        "branch": branch_index,
                        "wrapper": failed_request.wrapper_name,
                        "request": failed_request.transfer.target.text,
                        "error": f"{type(error).__name__}: {error}",
                    })
                    degraded = len(report.degraded_branches)
                # Degraded answers are always kept by the trace sampler.
                self._span.flag("partial")
                self._span.event(
                    "branch_degraded", branch=branch_index,
                    wrapper=failed_request.wrapper_name,
                )
                if degraded == len(self.plan.branches):
                    raise ExecutionError(
                        f"all {len(self.plan.branches)} branches were degraded by "
                        "source failures; no surviving branch can answer the "
                        "statement (on_source_error='partial' requires at least "
                        "one live source)"
                    ) from None
                return None
            raise request_failed_error(
                failed_request, failure.outcome.error
            ) from failure.outcome.error

        instrumented: List[_InstrumentedOperator] = []
        pipeline = self._bind(operators, staged, branch_index, instrumented)
        with report.lock:
            report.operator_stats.extend(instrumented)
        # An unlimited branch drains its joins completely, so the
        # instrumented row count is the true intermediate cardinality —
        # recorded into the feedback store when the stream exhausts.
        for position, join in self.plan.template.branches[branch_index].watched:
            self._join_watchers.append((join, instrumented[position]))
        return pipeline

    def _lowered(self, branch_index: int) -> Tuple[Tuple[Stage, ...], PhysicalOperator]:
        """A branch's stages and operator template, taken from its template
        (or lowered) at most once per execution: the lowering that types the
        answer is the one the branch binds, and a subquery-bearing branch
        folds its subquery once."""
        lowered = self._lowerings[branch_index]
        if lowered is None:
            lowered = self._lowerings[branch_index] = self.plan.template.branches[
                branch_index].lowered(self.engine.catalog, self.engine.subquery_executor)
        return lowered

    def _staged(self, branch_index: int, index: int, stages: Sequence[Stage],
                staged: Dict[int, Relation]) -> Relation:
        """Request ``index`` of a branch, fetched and staged once per
        execution; a bound request stages its driver first."""
        relation = staged.get(index)
        if relation is not None:
            return relation
        request = self.plan.branches[branch_index].requests[index]
        if request.bind is None:
            key = self._keys[branch_index][index]
            outcome = self._outcome(key)
            first_use = key not in self._consumed_keys
            self._consumed_keys.add(key)
        else:
            driver = self._staged(branch_index, request.bind.driver_index, stages, staged)
            outcome, first_use = self._fetch_bound(
                branch_index, index, request, driver, stages[index])
        relation = staged[index] = self._stage(
            stages[index], request, branch_index, outcome, first_use)
        return relation

    def _bind(self, operator: PhysicalOperator, staged: Dict[int, Relation],
              branch_index: int, instrumented: List[_InstrumentedOperator],
              listed: bool = True) -> PhysicalOperator:
        """A copy of template ``operator`` and its inputs over this execution's
        staged relations and budget, instrumented where the report lists it.

        A join's first input is the running pipeline; its other input is a
        bare scan of a staged relation, which the report has never listed.
        (A method, not a closure: a recursive closure is a reference cycle
        that would keep every bound operator and staged row alive until the
        cycle collector runs.)
        """
        if operator.__class__ is TableScan:
            bound = operator.over(staged[operator.leaf])
        else:
            bound = operator.rebind(
                [self._bind(child, staged, branch_index, instrumented, listed=not position)
                 for position, child in enumerate(operator.children)],
                self.budget,
            )
        if not listed:
            return bound
        entry = _InstrumentedOperator(bound, branch_index)
        instrumented.append(entry)
        return entry

    def _stage(self, stage: Stage, request: SourceRequest, branch_index: int,
               outcome: _FetchOutcome, first_use: bool) -> Relation:
        """Phase 2: fit one shared fetch result to the columns its stage was
        lowered against, qualify, locally filter and stage it in temporary
        storage (released when the stream closes)."""
        started = time.perf_counter()
        shipped = outcome.relation
        rows, frozen = shipped.rows, outcome.frozen
        if shipped.schema is not stage.accepted:
            positions = _catalogued_positions(stage, request, shipped.schema)
            if positions is None:
                stage.accepted = shipped.schema
            else:
                rows = [tuple(row[position] for position in positions) for row in rows]
                frozen = True
        handle, staged = self.engine.temp_store.stage(
            stage.relation(rows, frozen), stage.label)
        self._staged_handles.append(handle)
        # A request-cache hit staged by this template is the same rows every
        # time: a hash join above it may keep its build (``HashJoin``).
        staged.origin = outcome.relation.origin
        entry = RequestExecution(
            binding=request.transfer.binding,
            wrapper_name=request.wrapper_name,
            request=outcome.request_text,
            rows_returned=len(outcome.relation),
            rows_after_local_filters=len(staged),
            elapsed_seconds=(time.perf_counter() - started
                             + (outcome.fetch_seconds if first_use else 0.0)),
            branch=branch_index,
            dedup_hit=not first_use,
            cache_hit=outcome.cache_hit and first_use,
            wait_seconds=outcome.wait_seconds if first_use else 0.0,
            # Only the first-use entry carries the shared round trip's time,
            # so summing fetch_seconds over a report never double-counts it.
            fetch_seconds=outcome.fetch_seconds if first_use else 0.0,
        )
        with self.report.lock:
            self.report.requests.append(entry)
            if staged.rows:  # a sample-based estimate: accounting only
                self.report.staged_bytes += estimate_row_bytes(staged.rows[0]) * len(staged.rows)
        return staged

    # -- consumer API ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The answer's schema, known before any fetch: the columns of the
        statement's finish over the union or of its repair enumeration, else
        of branch 0's lowered root."""
        schema = self._root_schema
        return self._lowered(0)[1].schema if schema is None else schema

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def closed(self) -> bool:
        return self._closed

    def _pull(self) -> Optional[Batch]:
        """The next batch of the answer, or None once it is exhausted."""
        try:
            if self._deadline.bounded:
                self._deadline.check("streaming rows to the consumer")
            return next(self._batches)
        except StopIteration:
            self._exhausted = True
            self.close()
            return None
        except BaseException:
            # Mid-stream failure: release resources and cancel outstanding
            # fetches so a broken statement never pins the scheduler.
            self.close()
            raise

    def _take(self, limit: Optional[int]) -> List[Row]:
        """Hand the consumer the next ``limit`` rows (None = all that remain).

        Serves the carried remainder first and pulls further batches only
        while rows are still wanted; the report is updated once per batch
        (or batch part) handed over.
        """
        taken: List[Row] = []
        report = self.report
        while limit is None or len(taken) < limit:
            if self._pending_at >= len(self._pending):
                if self._exhausted:
                    break
                if self._closed:
                    raise ExecutionError("cannot fetch from a closed result stream")
                batch = self._pull()
                if batch is None:
                    break
                self._pending, self._pending_at = batch, 0
            pending, start = self._pending, self._pending_at
            stop = len(pending)
            if limit is not None:
                stop = min(stop, start + limit - len(taken))
            if stop == len(pending):
                part = pending[start:] if start else pending
                self._pending, self._pending_at = [], 0
            else:
                part = pending[start:stop]
                self._pending_at = stop
            with report.lock:
                if not self._first_row_seen:
                    self._first_row_seen = True
                    report.first_row_seconds = time.perf_counter() - self._started
                report.rows_streamed += len(part)
            if taken:
                taken.extend(part)
            else:
                taken = part
        return taken

    def fetchmany(self, size: int = 1) -> List[Row]:
        return self._take(max(0, size))

    def fetchall(self) -> List[Row]:
        return self._take(None)

    # -- lifecycle ----------------------------------------------------------------------

    def on_close(self, callback: Callable[[ExecutionReport], None]) -> None:
        """Run ``callback(report)`` once, when the stream finishes or closes."""
        self._close_callbacks.append(callback)

    def close(self) -> None:
        """Finish the stream: cancel what was never consumed, free resources.

        Idempotent.  Outstanding fetches that already completed are banked
        (cached, estimates updated) since their round trip was paid; queued
        ones are cancelled and counted in ``report.cancelled_fetches``.
        """
        if self._closed:
            return
        self._closed = True
        # Rows still waiting in the carried remainder die with the cursor.
        self._pending, self._pending_at = [], 0
        try:
            self._release()
        finally:
            # Close callbacks carry what rides the statement's end — the
            # statistics fold, spans, the gateway's stream permit — and must
            # run even when releasing resources failed.
            callbacks, self._close_callbacks = self._close_callbacks, []
            for callback in callbacks:
                callback(self.report)

    def _release(self) -> None:
        cancelled = 0
        for key, future in self._futures.items():
            if key in self._finalized_keys:
                continue
            if future.cancel():
                cancelled += 1
            elif future.done():
                try:
                    outcome = future.result()
                except BaseException:
                    continue  # defensive: _fetch returns error outcomes
                self._outcomes[key] = outcome
                # Banking checks the fetch outcome: a completed-but-failed
                # fetch is finalized without touching cache or estimates.
                self._consume_outcome(key, outcome)

        # Close the root's batch generator *explicitly*: it closes the
        # current branch's ``batches()`` generator, which closes its child's,
        # and so on down the operator tree.  Suspended Sort/Distinct/HashJoin
        # generators release their memory-budget reservations in ``finally``
        # blocks, and leaving that to garbage collection makes the budget
        # accounting below — and the "drained after close" invariant the
        # server's registries rely on — nondeterministic.  The branches point
        # back here: dropping them leaves no cycle for the collector.
        self._branches = ()
        if hasattr(self, "_batches"):
            try:
                self._batches.close()
            except ValueError:
                # Closed concurrently with a pull (e.g. a registry eviction
                # racing a fetch): the consumer's own exit path releases.
                pass

        # A fully drained stream pulled every join to completion, so the
        # instrumented row counts are true intermediate cardinalities; an
        # abandoned stream's partial counts must never reach the optimizer.
        if self._exhausted and self._join_watchers:
            feedback = self.engine.catalog.feedback
            for join, entry in self._join_watchers:
                planned = (join.estimated_rows
                           if join.estimated_rows > 0 else None)
                feedback.record_join(
                    join.feedback_key, entry.rows_out, planned_rows=planned
                )

        # Snapshot the helpers before taking the report lock so it never
        # nests inside (or around) theirs.
        remaining = self._deadline.remaining()
        temp_storage = self.engine.temp_store.statistics.snapshot()
        memory = self.budget.snapshot()
        report = self.report
        with report.lock:
            report.deadline_remaining_seconds = remaining
            report.cancelled_fetches += cancelled
            report.result_rows = report.rows_streamed
            report.elapsed_seconds = time.perf_counter() - self._started
            report.temp_storage = temp_storage
            report.peak_memory_bytes = memory["peak_bytes"]
            report.spill_count = memory["spill_count"]
            report.spilled_rows = memory["spilled_rows"]
            report.spilled_bytes = memory["spilled_bytes"]
            report.join_builds_shared = sum(
                entry.child.build_shared for entry in report.operator_stats
                if entry.operator == "HashJoin")

        self._span.annotate(
            rows_streamed=report.rows_streamed,
            cancelled_fetches=report.cancelled_fetches,
            spill_count=report.spill_count,
            exhausted=self._exhausted,
        )
        self._span.finish()

        handles, self._staged_handles = self._staged_handles, []
        if handles:
            self.engine.temp_store.release(handles)

    def __enter__(self) -> "ResultStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - safety net for abandoned streams
        try:
            self.close()
        except Exception:
            pass


class MaterializedStream:
    """A stream-shaped view over already-computed rows.

    An eager answer ran to completion inside ``engine.execute``; this adapter
    lets a :class:`~repro.federation.FederationCursor` hand it over through
    the same fetch surface as a live :class:`ResultStream`.  The rows
    are the finished execution's own, never copied; the cursor owning the
    stream closes it once, when it is drained or abandoned.
    """

    def __init__(self, relation: Relation, report: ExecutionReport,
                 plan: Optional[QueryPlan] = None):
        self.schema = relation.schema
        self.report = report
        self.plan = plan
        self._rows = relation.rows
        self._position = 0
        self._callbacks: List[Callable[[ExecutionReport], None]] = []

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._rows)

    def fetchmany(self, size: int) -> List[Row]:
        start = self._position
        rows = self._rows[start:start + size]
        self._position = start + len(rows)
        return rows

    def fetchall(self) -> List[Row]:
        start, self._position = self._position, len(self._rows)
        return self._rows[start:] if start else self._rows

    def on_close(self, callback: Callable[[ExecutionReport], None]) -> None:
        self._callbacks.append(callback)

    def close(self) -> None:
        for callback in self._callbacks:
            callback(self.report)
