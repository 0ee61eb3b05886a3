"""The top-level façade: a mediated federation of sources.

A :class:`Federation` wires together the pieces a deployment of the prototype
needs — the COIN knowledge system, the wrappers, the multi-database access
engine and the context mediator — and exposes the operation receivers actually
perform: *pose a naive SQL query in my context and get back the correct
answer* (plus, on request, the mediated SQL and an explanation).

Queries flow through the staged :class:`~repro.pipeline.QueryPipeline`:
mediation and planning are compiled once per (statement, receiver context,
catalog/knowledge generation) and memoized, so the warm path of repeated
receiver queries — the dominant serving pattern — performs zero mediation and
zero planning work.  :meth:`Federation.prepare` exposes the same machinery as
an explicit prepared-query handle (mediate+plan once, execute many), which
the server protocol surfaces as ``prepare`` / ``execute_prepared`` /
``close_prepared``.

This is the object the mediation server (:mod:`repro.server`) serves remotely
and the object the examples and benchmarks script against locally.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union as TUnion

from repro.coin.system import CoinSystem
from repro.consistency.constraints import Constraint
from repro.consistency.cqa import DEFAULT_MAX_REPAIRS, ConsistentQueryExecutor
from repro.consistency.violations import ViolationReport, ViolationScanner
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.executor import DEFAULT_MAX_CONCURRENT_REQUESTS, EngineResult
from repro.engine.planner import PlannerConfig
from repro.engine.resilience import ResiliencePolicy
from repro.engine.request_cache import SourceResultCache
from repro.engine.stream import MaterializedStream
from repro.errors import ExecutionError
from repro.mediation.answers import AnswerTransformer, ColumnAnnotation
from repro.mediation.explain import conflict_summary
from repro.mediation.mediator import ContextMediator, MediationResult
from repro.obs import Observability
from repro.obs.trace import NULL_SPAN, current_span, current_tenant, deactivate_span
from repro.options import StatementOptions
from repro.pipeline import MediatedPlan, QueryPipeline
from repro.relational.relation import Relation
from repro.sql.ast import Select
from repro.wrappers.wrapper import Wrapper


@dataclass
class FederationAnswer:
    """Everything returned for one receiver query."""

    relation: Relation
    mediation: MediationResult
    execution: EngineResult
    annotations: List[ColumnAnnotation] = field(default_factory=list)

    @property
    def mediated_sql(self) -> str:
        return self.mediation.sql

    @property
    def records(self) -> List[Dict[str, object]]:
        return self.relation.records()

    def explain(self) -> str:
        return self.mediation.explain()


@dataclass
class ExecutionSummary:
    """What one statement did: answer metadata plus the execution report."""

    row_count: int
    columns: List[str]
    column_labels: List[str]
    mediated_sql: str
    branch_count: int
    conflicts: List[str]
    consistency: str
    tenant: Optional[str]
    elapsed_seconds: float
    #: The engine's execution-report snapshot (scheduler, resilience,
    #: consistency blocks — see ``ExecutionReport.snapshot()``).
    execution: Dict[str, Any] = field(default_factory=dict)
    #: Trace id of the statement's span tree (None when untraced) and its
    #: one-line rendering — ``statement(12.3ms: parse, plan, execute)``.
    trace_id: Optional[str] = None
    trace_summary: Optional[str] = None


class FederationCursor:
    """One statement's answer: the one object that hands its rows over.

    Wraps the engine's stream — a live :class:`~repro.engine.stream.
    ResultStream`, or a :class:`~repro.engine.stream.MaterializedStream` over
    an eager or repair-enumerated answer — with the mediation metadata a
    receiver needs (mediated SQL, conflict explanations, column annotations)
    and what :meth:`Federation.open`, the door every statement opens at,
    records (``root`` span, ``started``).
    Annotations and the description are schema-level, so they are available
    before (and without) draining the result.

    Every row any consumer gets — ``fetchone``/``fetchmany``/``fetchall``,
    ``batches()``, iteration, :meth:`answer` — leaves through one fetch
    method, under one lock: the stream is a generator, and two threads (or a
    wire client's retry) driving it at once would race.  The cursor counts
    what it hands over (``rows_streamed``) and closes itself at exhaustion.
    A cursor closed by exhaustion answers ``[]`` / None; one closed before
    raises :class:`~repro.errors.ExecutionError`, as DB-API cursors do.
    ``close()`` cancels still-outstanding source fetches and releases staged
    temporaries and the statement's fetch-pool slots; what rides the
    stream's close (accounting, spans, a gated open's stream permit) runs
    once.

    Every statement is answered through one of these — :meth:`answer` drains
    it into the materialized :class:`FederationAnswer` eager callers get, the
    wire server registers it as a protocol cursor, QBE renders it.
    """

    def __init__(self, federation: "Federation", prepared: MediatedPlan, stream,
                 options: StatementOptions):
        self.federation = federation
        self.prepared = prepared
        self.stream = stream
        self.options = options
        #: The statement's root span and the ``perf_counter`` reading its
        #: door started at (before any stream permit or queue wait);
        #: ``Federation.open`` sets both.
        self.root = NULL_SPAN
        self.started = 0.0
        #: Rows handed to the consumer so far.
        self.rows_streamed = 0
        self._elapsed: Optional[float] = None
        self._annotations: Optional[List[ColumnAnnotation]] = None
        self._fetch_lock = threading.Lock()
        #: Taken by the first ``close()`` and never released: the stream and
        #: its close callbacks are finished exactly once, whoever closes.
        self._closing = threading.Lock()

    # -- metadata ----------------------------------------------------------------

    @property
    def mediation(self) -> MediationResult:
        return self.prepared.mediation

    @property
    def mediated_sql(self) -> str:
        return self.prepared.mediation.sql

    @property
    def tenant(self) -> Optional[str]:
        return self.options.tenant

    @property
    def trace_id(self) -> Optional[str]:
        return self.root.trace_id

    @property
    def schema(self):
        return self.stream.schema

    @property
    def columns(self) -> List[str]:
        return self.stream.schema.names

    @property
    def description(self) -> List[Tuple]:
        """DB-API style 7-tuples for the result columns."""
        return [
            (attribute.name, attribute.type.value, None, None, None, None, None)
            for attribute in self.stream.schema
        ]

    @property
    def annotations(self) -> List[ColumnAnnotation]:
        """The answer's column annotations: the plan's, in a list of its own."""
        if self._annotations is None:
            schema = self.stream.schema
            names = tuple(schema.names)
            shared = self.prepared.annotations.get(names)
            if shared is None:
                shared = self.prepared.annotations[names] = tuple(
                    self.federation.transformer.annotate(
                        Relation(schema),
                        self.prepared.column_semantics,
                        self.prepared.mediation.receiver_context,
                    ))
            self._annotations = list(shared)
        return self._annotations

    @property
    def report(self):
        return self.stream.report

    @property
    def exhausted(self) -> bool:
        return self.stream.exhausted

    @property
    def closed(self) -> bool:
        return self._closing.locked()

    # -- fetching ----------------------------------------------------------------

    def _fetch(self, size: Optional[int]) -> List[Tuple[Any, ...]]:
        """The next ``size`` rows (None: all that remain) — the one way out."""
        with self._fetch_lock:
            if self._closing.locked():
                if self.stream.exhausted:
                    return []
                raise ExecutionError("cannot fetch from a closed cursor")
            if size == 0:
                return []  # consumes nothing and leaves the cursor open
            try:
                rows = (self.stream.fetchall() if size is None
                        else self.stream.fetchmany(size))
            except BaseException:
                self.close()  # a failed stream has nothing more to give
                raise
            self.rows_streamed += len(rows)
            if size is None or not rows or self.stream.exhausted:
                self.close()
            return rows

    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        rows = self._fetch(1)
        return rows[0] if rows else None

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        """Up to ``size`` rows (None: the statement's ``batch_size``)."""
        return self._fetch(self.options.batch_size if size is None
                           else max(0, size))

    def fetchall(self) -> List[Tuple[Any, ...]]:
        return self._fetch(None)

    def batches(self) -> Iterator[List[Tuple[Any, ...]]]:
        """``batch_size`` rows at a time until the answer is exhausted."""
        return iter(self.fetchmany, [])

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.fetchone, None)

    def answer(self) -> FederationAnswer:
        """Drain the remaining rows into a materialized answer (the drain
        closes the cursor)."""
        relation = Relation(self.schema)
        relation.rows = self._fetch(None)
        return FederationAnswer(
            relation=relation,
            mediation=self.mediation,
            execution=EngineResult(relation=relation, plan=self.stream.plan,
                                   report=self.report),
            annotations=self.annotations,
        )

    def summary(self) -> ExecutionSummary:
        """The statement's summary; the execution report reflects work done
        so far (complete once the cursor is drained or closed)."""
        root = self.root
        elapsed = (self._elapsed if self._elapsed is not None
                   else time.perf_counter() - self.started)
        return ExecutionSummary(
            row_count=self.rows_streamed,
            columns=self.columns,
            column_labels=[annotation.label() for annotation in self.annotations],
            mediated_sql=self.mediated_sql,
            branch_count=self.mediation.branch_count,
            conflicts=conflict_summary(self.mediation),
            consistency=self.options.consistency,
            tenant=self.tenant,
            elapsed_seconds=elapsed,
            execution=self.report.snapshot(),
            trace_id=root.trace_id,
            trace_summary=root.summary() if root.recording else None,
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Cancel outstanding fetches and finish the statement (idempotent)."""
        if not self._closing.acquire(blocking=False):
            return
        self._elapsed = time.perf_counter() - self.started
        self.stream.close()

    def __enter__(self) -> "FederationCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class PreparedQuery:
    """A receiver statement compiled once — mediated and planned — for reuse.

    ``execute()`` revalidates the compiled plan against the federation's
    catalog and knowledge generations: while nothing changed, execution skips
    mediation and planning entirely; after a wrapper (re)registration, source
    invalidation or knowledge change, the statement is transparently
    recompiled, so a prepared query can never read a stale dictionary.
    """

    federation: "Federation"
    plan: MediatedPlan
    #: Consistency mode, deadline and source-failure policy fixed at prepare
    #: time; every execution answers under them.
    options: StatementOptions = StatementOptions()

    @property
    def sql(self) -> str:
        return self.plan.mediation.original_sql

    @property
    def mediated_sql(self) -> str:
        return self.plan.mediation.sql

    @property
    def receiver_context(self) -> str:
        return self.plan.receiver_context

    @property
    def fingerprint(self) -> str:
        return self.plan.fingerprint

    def execute(self, stream: bool = False):
        """Run the statement: a materialized answer, or (``stream=True``) a
        :class:`FederationCursor` pulling rows on demand."""
        cursor = self.federation.open(self, self.options, stream)
        return cursor if stream else cursor.answer()

    def close(self) -> None:
        """Prepared queries hold no external resources; provided for symmetry
        with the server protocol's explicit close."""


class Federation:
    """A mediated federation: knowledge system + wrappers + engine + mediator."""

    def __init__(self, system: CoinSystem, default_receiver_context: Optional[str] = None,
                 planner_config: Optional[PlannerConfig] = None, name: str = "federation",
                 request_cache_size: int = 256,
                 max_concurrent_requests: int = DEFAULT_MAX_CONCURRENT_REQUESTS,
                 plan_cache_size: int = 128,
                 memory_budget_bytes: Optional[int] = None,
                 max_repairs: int = DEFAULT_MAX_REPAIRS,
                 resilience: Optional[ResiliencePolicy] = None,
                 observability: Optional[Observability] = None):
        """Wire up a federation.

        ``request_cache_size`` bounds the source-result cache that lets
        repeated receiver queries skip source round trips entirely (0 disables
        caching — every statement re-fetches).  ``max_concurrent_requests``
        bounds how many source fetches one statement keeps in flight at once
        (1 forces serial dispatch).  ``plan_cache_size`` bounds the mediation
        and plan caches of the query pipeline (0 disables them — every
        statement re-mediates and re-plans).  ``memory_budget_bytes`` bounds
        per-statement operator memory: sorts, distincts and hash-join build
        sides spill to temporary files instead of exceeding it (None =
        unbounded).  ``max_repairs`` bounds the repair enumeration the
        consistent-query-answering fallback may perform before refusing.
        ``resilience`` overrides the engine's fault-tolerance policy (retry
        schedule, breaker thresholds, clock) — the default policy retries
        transient source failures with seeded-jitter backoff and circuit-
        breaks wrappers that keep failing.  ``observability`` is the
        telemetry bundle (tracer + metrics registry + event log); the
        default bundle keeps tracing off (the no-op path) while the metrics
        registry and slow-query log are always live.
        """
        self.name = name
        self.system = system
        self.request_cache = (
            SourceResultCache(request_cache_size) if request_cache_size > 0 else None
        )
        self.engine = MultiDatabaseEngine(
            planner_config=planner_config,
            request_cache=self.request_cache,
            max_concurrent_requests=max_concurrent_requests,
            memory_budget_bytes=memory_budget_bytes,
            resilience=resilience,
        )
        self.mediator = ContextMediator(system, default_receiver_context)
        self.transformer = AnswerTransformer(system)
        self.pipeline = QueryPipeline(self.mediator, self.engine,
                                      plan_cache_size=plan_cache_size)
        self.cqa = ConsistentQueryExecutor(self.engine, max_repairs=max_repairs)
        #: Built lazily on the first scan; shares the engine's request cache
        #: and runs its scan plans under the federation's memory budget.
        #: Creation is lock-guarded: concurrent first scans must agree on
        #: one scanner (and its report cache / counters).
        self._scanner: Optional[ViolationScanner] = None
        self._scanner_budget = memory_budget_bytes
        self._scanner_lock = threading.Lock()
        #: (wrapper, relation) the answer transformer's rate lookup was built
        #: from; consulted on invalidation so conversions never use stale rates.
        self._rate_environment_source: Optional[Tuple[str, str]] = None
        #: Telemetry bundle shared with the serving stack built on this
        #: federation (gateway, server, transports): one scrape sees all.
        self.observability = (
            observability if observability is not None else Observability()
        )
        self._bind_metrics()

    # -- telemetry ---------------------------------------------------------------

    def _bind_metrics(self) -> None:
        """Register this federation's metric series.

        The layers' aggregate counters are attached, not copied: the registry
        renders the exported fields of the same counter sets the
        ``statistics()`` views snapshot.  Only the per-statement event metrics
        (count/errors/latency) are recorded here, inline.
        """
        registry = self.observability.metrics
        self._statements_metric = registry.counter(
            "statements_total", "Receiver statements answered (any mode).")
        self._statement_errors_metric = registry.counter(
            "statement_errors_total", "Receiver statements that raised.")
        self._statement_seconds_metric = registry.histogram(
            "statement_seconds", "Receiver statement wall clock, in seconds.")
        registry.attach(self.engine.statistics)
        registry.attach(self.pipeline.statistics)
        self.engine.catalog.feedback.bind_metrics(registry)
        if self.request_cache is not None:
            registry.gauge(
                "request_cache_entries",
                "Entries currently held by the source-result cache.",
                function=self.request_cache.__len__,
            )
        registry.gauge(
            "memory_budget_bytes",
            "Configured per-statement operator memory budget (0 = unbounded).",
        ).set(float(self.engine.memory_budget_bytes or 0))

    def _account_statement(self, sql_text: str, started: float,
                           tenant: Optional[str] = None,
                           report=None, trace_id: Optional[str] = None,
                           error: Optional[BaseException] = None) -> None:
        """Fold one finished statement into metrics and the slow-query log."""
        elapsed = time.perf_counter() - started
        self._statements_metric.inc()
        if error is not None:
            self._statement_errors_metric.inc()
        self._statement_seconds_metric.observe(elapsed)
        self.observability.log.statement_finished(
            elapsed, sql_text, tenant=tenant, trace_id=trace_id,
            report=report,
            error=f"{type(error).__name__}: {error}" if error is not None else None,
        )

    # -- registration ------------------------------------------------------------

    def register_wrapper(self, wrapper: Wrapper, estimate_rows: bool = True) -> None:
        """Make a wrapped source's relations available to queries."""
        self.engine.register_wrapper(wrapper, estimate_rows=estimate_rows)

    def register_constraint(self, constraint: Constraint) -> Constraint:
        """Declare an integrity constraint over catalogued relations.

        Registration bumps the catalog generation, so cached plans, prepared
        statements and memoized violation reports compiled before the
        declaration transparently recompile/rescan.
        """
        return self.engine.catalog.register_constraint(constraint)

    # -- violation scanning --------------------------------------------------------

    @property
    def scanner(self) -> ViolationScanner:
        with self._scanner_lock:
            if self._scanner is None:
                self._scanner = ViolationScanner(
                    self.engine, memory_budget_bytes=self._scanner_budget
                )
            return self._scanner

    def scan_violations(self, relations: Optional[List[str]] = None,
                        use_cache: bool = True,
                        timeout_seconds: Optional[float] = None) -> ViolationReport:
        """Scan declared constraints for violations (memoized per generation).

        ``timeout_seconds`` bounds the whole scan — every constraint's scan
        plans share one deadline, so a hung source fails the scan instead of
        hanging it.
        """
        return self.scanner.scan(relations, use_cache=use_cache,
                                 timeout_seconds=timeout_seconds)

    # -- cache control -----------------------------------------------------------

    def invalidate_source_cache(self, wrapper: Optional[str] = None,
                                relation: Optional[str] = None) -> int:
        """Drop memoized source results after a source's data changed.

        Sources are autonomous: the federation cannot observe their updates,
        so whoever knows a source changed calls this (all entries, one
        wrapper's, or one relation's).  Returns the number of dropped entries.

        Invalidation also bumps the catalog generation (stale plans become
        unreachable) and, when it covers the ancillary exchange-rate relation,
        resets the answer transformer's rate lookup so subsequent answer
        conversions re-resolve fresh rates.
        """
        dropped = self.engine.invalidate_source_cache(wrapper=wrapper, relation=relation)
        self._maybe_reset_rate_environment(wrapper, relation)
        return dropped

    def _maybe_reset_rate_environment(self, wrapper: Optional[str],
                                      relation: Optional[str]) -> None:
        if self._rate_environment_source is None:
            return
        rate_wrapper, rate_relation = self._rate_environment_source
        if wrapper is not None and wrapper.lower() != rate_wrapper.lower():
            return
        if relation is not None and relation.lower() != rate_relation.lower():
            return
        from repro.coin.conversion import ConversionEnvironment

        self.transformer.environment = ConversionEnvironment()
        self._rate_environment_source = None

    # -- dictionary services -----------------------------------------------------------

    def list_sources(self) -> List[str]:
        return self.engine.list_sources()

    def list_relations(self, source: Optional[str] = None) -> List[str]:
        return self.engine.list_relations(source)

    def describe_relation(self, relation: str) -> List[Dict[str, object]]:
        return self.engine.describe_relation(relation)

    @property
    def receiver_contexts(self) -> List[str]:
        return self.system.contexts.names

    # -- the core operation -----------------------------------------------------------------

    def query(self, sql: TUnion[str, Select], receiver_context: Optional[str] = None,
              mediate: bool = True, stream: bool = False, consistency: str = "raw",
              timeout_seconds: Optional[float] = None,
              on_source_error: str = "fail"):
        """Answer a receiver query.

        With ``mediate=False`` the query is executed verbatim (the "naive"
        answer the paper contrasts against) — a fast path that skips conflict
        detection and abduction entirely; otherwise it is rewritten by the
        context mediator.  Either way the compiled pipeline product is
        memoized, so repeating a statement against an unchanged federation
        costs only execution.

        With ``stream=True`` the answer is a :class:`FederationCursor`
        instead of a materialized :class:`FederationAnswer`: rows are pulled
        with ``fetchmany``/``fetchone``, first rows arrive while slower
        branches are still fetching, and closing the cursor early cancels
        outstanding source round trips.

        ``consistency`` selects how declared key constraints are honoured:
        ``"raw"`` (default) answers over the instances as-is, ``"certain"``
        returns only rows true in *every* repair of the key-violating
        sources, ``"possible"`` rows true in at least one (both use set
        semantics; see PERFORMANCE.md, "Consistency and repairs").

        ``timeout_seconds`` bounds the statement's total wall clock — fetch
        waits, retry backoff and (streaming) finalization all count against
        one deadline.  ``on_source_error="partial"`` degrades instead of
        failing when a source stays dead after retries: the answer comes
        from the surviving branches and every dropped branch is listed in
        the execution report's ``resilience`` block (see PERFORMANCE.md,
        "Fault tolerance and graceful degradation").
        """
        cursor = self.open(sql, StatementOptions(
            receiver_context=receiver_context, mediate=mediate,
            consistency=consistency, timeout_seconds=timeout_seconds,
            on_source_error=on_source_error,
        ), stream)
        return cursor if stream else cursor.answer()

    def prepare(self, sql: TUnion[str, Select], receiver_context: Optional[str] = None,
                mediate: bool = True, consistency: str = "raw",
                timeout_seconds: Optional[float] = None,
                on_source_error: str = "fail") -> PreparedQuery:
        """Compile a receiver statement once for repeated execution."""
        return self.compile(sql, StatementOptions(
            receiver_context=receiver_context, mediate=mediate,
            consistency=consistency, timeout_seconds=timeout_seconds,
            on_source_error=on_source_error,
        ))

    # -- the statement path ------------------------------------------------------------------
    #
    # Every front door (the keyword methods above, the wire server, QBE) hands
    # a validated StatementOptions to these two.

    def compile(self, sql: TUnion[str, Select],
                options: StatementOptions) -> PreparedQuery:
        """Mediate and plan ``sql`` once; executions run under ``options``."""
        plan = self.pipeline.prepare(sql, options.receiver_context,
                                     mediate=options.mediate)
        return PreparedQuery(federation=self, plan=plan, options=options)

    def open(self, statement: TUnion[str, Select, PreparedQuery],
             options: StatementOptions, stream: bool = True, *,
             gateway=None, trace_id: Optional[str] = None,
             **attributes) -> FederationCursor:
        """Answer one statement as a cursor — the one statement door.

        ``statement`` is SQL (text or AST) or a :class:`PreparedQuery`, which
        executes under its own options (``options`` then carries only the
        request's tenant and deadline).  ``stream=False`` executes to
        completion first; :meth:`FederationCursor.answer` is the drain.

        In order: the root span (``trace_id`` adopts a client-minted id,
        ``attributes`` name the door); with a ``gateway``, the stream permit
        of a streaming answer — before admission, so an over-streamed server
        sheds without spending a tenant token or a worker slot — then
        ``gateway.run``, the statement opening under the budget left after
        queueing.  Permit and root ride the cursor's close; a failed or shed
        open releases both before it raises.
        """
        started = time.perf_counter()
        prepared = isinstance(statement, PreparedQuery)
        if prepared:
            sql_text, consistency = statement.sql, statement.options.consistency
        else:
            sql_text = statement if isinstance(statement, str) else str(statement)
            consistency = options.consistency
        root = self.observability.statement_root(
            sql_text, trace_id, tenant=options.tenant, consistency=consistency,
            stream=stream, prepared=prepared, **attributes)
        token = root.activate()
        release = None
        try:
            if gateway is None:
                cursor = self._open(statement, sql_text, options, stream)
            else:
                if stream:
                    release = gateway.acquire_stream(options.tenant)
                cursor = gateway.run(
                    lambda remaining: self._open(
                        statement, sql_text, options.with_timeout(remaining),
                        stream),
                    tenant=options.tenant,
                    timeout_seconds=options.timeout_seconds)
        except BaseException as exc:
            if release is not None:
                release()
            deactivate_span(token)
            root.finish(error=exc)
            raise
        deactivate_span(token)
        if release is not None:
            cursor.stream.on_close(lambda report: release())
        if root.recording:
            # Only at close are the stream and fetch spans complete.
            cursor.stream.on_close(lambda report: root.finish())
        cursor.root, cursor.started = root, started
        return cursor

    def _open(self, statement: TUnion[str, Select, PreparedQuery],
              sql_text: str, options: StatementOptions,
              stream: bool) -> FederationCursor:
        """Compile (or refresh) and execute ``statement``, booked into metrics
        and the slow-query log when its cursor closes, or at once on failure.
        Inside admission: the gateway's tenant, no queue wait."""
        tenant = current_tenant()
        started = time.perf_counter()
        try:
            if isinstance(statement, PreparedQuery):
                plan = statement.plan = self.pipeline.refresh(statement.plan)
                options = statement.options
            else:
                plan = self.pipeline.prepare(statement, options.receiver_context,
                                             mediate=options.mediate)
            cursor = self._execute(plan, options, stream)
        except BaseException as exc:
            self._account_statement(sql_text, started, tenant=tenant,
                                    trace_id=current_span().trace_id, error=exc)
            raise
        cursor.stream.on_close(
            lambda report: self._account_statement(
                sql_text, started, tenant=tenant, report=report.snapshot,
                trace_id=report.trace_id)
        )
        return cursor

    def _execute(self, prepared: MediatedPlan, options: StatementOptions,
                 stream: bool) -> FederationCursor:
        """Run a compiled plan under ``options``; always yields a cursor.

        The plan is the statement's own or, under a consistency mode, the one
        ``cqa.plan`` compiled for it — either runs as a live stream when
        ``stream``, and otherwise to completion inside this call as one
        ``engine.execute`` (fetch + drain), the cursor reading the
        materialized rows.  A statement whose certain/possible answer only
        repair enumeration gives has no plan: it materializes before its
        first row can leave, whatever ``stream`` says.
        """
        consistent = options.consistency != "raw"
        attributes = {"branches": len(prepared.plan.branches)}
        if consistent:
            attributes["consistency"] = options.consistency
        if stream:
            attributes["stream"] = True
        # Activated around the call so the engine captures the span as the
        # parent of its stream/fetch spans.
        span = current_span().child("execute", **attributes)
        token = span.activate()
        result = None
        try:
            plan, block = prepared.plan, None
            if consistent:
                plan, block = self.cqa.plan(prepared, options.consistency)
            if plan is None:
                result = self.cqa.enumerate_repairs(
                    prepared, options.consistency, options.timeout_seconds)
            elif stream:
                rows = self.engine.execute_stream(
                    plan, timeout_seconds=options.timeout_seconds,
                    on_source_error=options.on_source_error)
            else:
                result = self.engine.execute(
                    plan, timeout_seconds=options.timeout_seconds,
                    on_source_error=options.on_source_error)
        except BaseException as exc:
            span.finish(error=exc)
            raise
        finally:
            deactivate_span(token)
        if result is not None:
            rows = MaterializedStream(result.relation, result.report, result.plan)
        if block is not None:
            rows.report.consistency = dict(block)
        if span.recording:
            rows.report.trace_id = span.trace_id
            if result is None:
                # Rows are still being pulled: open until the cursor closes.
                rows.on_close(lambda report: span.finish())
            else:
                span.annotate(rows=len(result.relation))
                span.finish()
        return FederationCursor(self, prepared, rows, options)

    def mediate_only(self, sql: TUnion[str, Select],
                     receiver_context: Optional[str] = None) -> MediationResult:
        """Rewrite a query without executing it (used by the QBE "show SQL" view)."""
        return self.pipeline.mediate(sql, receiver_context)

    def explain_plan(self, sql: TUnion[str, Select],
                     receiver_context: Optional[str] = None) -> str:
        """Mediate, plan, and render the execution plan."""
        return self.pipeline.prepare(sql, receiver_context).plan.explain()

    # -- answer post-processing ------------------------------------------------------------------

    def convert_answer(self, answer: FederationAnswer, to_context: str) -> Relation:
        """Re-express an already-computed answer in another receiver context."""
        self._ensure_rate_environment()
        return self.transformer.transform(
            answer.relation,
            answer.mediation.column_semantics,
            answer.mediation.receiver_context,
            to_context,
        )

    def _ensure_rate_environment(self) -> None:
        """Wire the answer transformer's rate lookup to the ancillary source.

        Value-mode currency conversions consult the same exchange-rate relation
        the mediated queries join against; the lookup is built lazily the first
        time an answer conversion needs it and rebuilt after the rate relation
        is invalidated (see :meth:`invalidate_source_cache`).
        """
        if self.transformer.environment.rate_lookup is not None:
            return
        from repro.mediation.answers import environment_from_relation

        for function in self.system.conversions.currency_functions():
            if not self.engine.catalog.has_relation(function.ancillary_relation):
                continue
            wrapper = self.engine.catalog.wrapper_for(function.ancillary_relation)
            rates = wrapper.fetch(function.ancillary_relation)
            self.transformer.environment = environment_from_relation(
                rates, function.from_column, function.to_column, function.rate_column
            )
            self._rate_environment_source = (wrapper.name, function.ancillary_relation)
            return

    # -- health probing -------------------------------------------------------------------------

    def health_prober(self, interval_seconds: float = 1.0):
        """A background prober for this federation's sources.

        Drives half-open circuit-breaker probes from the engine's
        per-wrapper records so a recovered source is rediscovered
        proactively instead of by sacrificing the next receiver query; see
        :meth:`~repro.engine.engine.MultiDatabaseEngine.build_health_prober`.
        """
        return self.engine.build_health_prober(interval_seconds)

    # -- effort accounting (scalability / extensibility benchmarks) ------------------------------

    def integration_effort(self) -> Dict[str, int]:
        return self.system.integration_effort()

    def statistics(self) -> Dict[str, Dict[str, int]]:
        stats = {
            "mediator": self.mediator.statistics.snapshot(),
            "engine": self.engine.statistics.snapshot(),
            "pipeline": self.pipeline.snapshot(),
            "source_health": self.engine.source_health(),
            "observability": self.observability.snapshot(),
        }
        if self.request_cache is not None:
            stats["request_cache"] = self.request_cache.snapshot()
        if self._scanner is not None:
            stats["violation_scanner"] = self._scanner.snapshot()
        return stats
