"""A process-embedded service facade over the federation + admission gateway.

Applications that live in the same process as the federation do not need the
wire protocol at all — but they *do* need the serving disciplines the wire
transports get for free: admission control, tenant quota accounting, deadline
shedding, and streaming backpressure.  :class:`FederatedQueryService` is that
facade: every statement runs under the :class:`~repro.server.gateway.
AdmissionGateway`, and every streaming result is a :class:`ResultHandle`
holding one of the gateway's bounded stream permits until it is closed or
exhausted — exactly the contract the protocol cursors and chunked HTTP
responses obey.

Shape::

    service = federation.service()                 # or FederatedQueryService(...)
    summary = service.execute("select ...", tenant="acme")
    for row in summary.rows: ...

    with service.submit("select ...", tenant="acme") as handle:
        for batch in handle.batches():             # permit held while open
            consume(batch)
    handle.summary().row_count
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union,
)

from repro.errors import ClientError
from repro.federation import Federation, FederationCursor, PreparedQuery
from repro.mediation.explain import conflict_summary
from repro.obs.trace import deactivate_span
from repro.options import StatementOptions
from repro.server.gateway import AdmissionGateway, GatewayConfig

__all__ = ["ExecutionSummary", "ResultHandle", "FederatedQueryService"]

T = TypeVar("T")


@dataclass
class ExecutionSummary:
    """What one statement did: answer metadata plus the execution report."""

    #: Materialized answer rows (``execute`` only; None for streamed results,
    #: whose rows went through the handle instead).
    rows: Optional[List[Tuple[Any, ...]]]
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


class ResultHandle:
    """A streaming answer holding one gateway stream permit.

    Wraps a :class:`~repro.federation.FederationCursor`; rows are pulled in
    bounded batches (``batches()`` / ``fetchmany`` / iteration), so consumer
    memory holds one batch, and the producer runs under the engine's own
    flow control.  The stream permit — the gateway's backpressure token —
    rides the cursor's close: it is released exactly once, on :meth:`close`
    or when the result is drained.
    """

    def __init__(self, cursor: FederationCursor, trace_root, started: float):
        #: The underlying cursor (what the wire server and QBE hold on to).
        self.cursor = cursor
        self._trace_root = trace_root
        self._started = started
        self._elapsed: Optional[float] = None
        self.rows_streamed = 0
        self.closed = False

    # -- metadata ---------------------------------------------------------------------

    @property
    def tenant(self) -> Optional[str]:
        return self.cursor.options.tenant

    @property
    def trace_id(self) -> Optional[str]:
        return self._trace_root.trace_id

    @property
    def description(self) -> List[Tuple]:
        return self.cursor.description

    @property
    def columns(self) -> List[str]:
        return [attribute.name for attribute in self.cursor.schema]

    @property
    def mediated_sql(self) -> str:
        return self.cursor.mediated_sql

    # -- consuming --------------------------------------------------------------------

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        if self.closed or (size is not None and size <= 0):
            return []  # a zero-row fetch consumes nothing and keeps the handle open
        rows = self.cursor.fetchmany(
            self.cursor.options.batch_size if size is None else size)
        self.rows_streamed += len(rows)
        if not rows or self.cursor.exhausted:
            self.close()
        return rows

    def batches(self) -> Iterator[List[Tuple[Any, ...]]]:
        """Yield result batches until exhaustion; releases the permit after
        the last one."""
        return iter(self.fetchmany, [])

    def fetchall(self) -> List[Tuple[Any, ...]]:
        return [row for batch in self.batches() for row in batch]

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        for batch in self.batches():
            yield from batch

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Cancel outstanding fetches and release the permit (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._elapsed = time.perf_counter() - self._started
        self.cursor.close()

    def __enter__(self) -> "ResultHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def summary(self) -> ExecutionSummary:
        """The statement's summary; the execution report reflects work done
        so far (complete once the handle is drained or closed)."""
        cursor, root = self.cursor, self._trace_root
        elapsed = (self._elapsed if self._elapsed is not None
                   else time.perf_counter() - self._started)
        return ExecutionSummary(
            rows=None,
            row_count=self.rows_streamed,
            columns=self.columns,
            column_labels=[annotation.label()
                           for annotation in cursor.annotations],
            mediated_sql=cursor.mediated_sql,
            branch_count=cursor.mediation.branch_count,
            conflicts=conflict_summary(cursor.mediation),
            consistency=cursor.options.consistency,
            tenant=self.tenant,
            elapsed_seconds=elapsed,
            execution=cursor.report.snapshot(),
            trace_id=root.trace_id,
            trace_summary=root.summary() if root.recording else None,
        )


class FederatedQueryService:
    """The public in-process query surface: gateway-governed, handle-based.

    ``gateway`` may be an existing :class:`AdmissionGateway` (e.g. shared
    with a wire server so both fronts drain one budget), a
    :class:`GatewayConfig`, or None for defaults.
    """

    def __init__(self, federation: Federation,
                 gateway: Union[AdmissionGateway, GatewayConfig, None] = None):
        self.federation = federation
        self.gateway = (gateway if isinstance(gateway, AdmissionGateway)
                        else AdmissionGateway(gateway))

    # -- statements -------------------------------------------------------------------

    def execute(self, sql: str, context: Optional[str] = None,
                tenant: Optional[str] = None, mediate: bool = True,
                consistency: str = "raw",
                timeout_seconds: Optional[float] = None,
                on_source_error: Optional[str] = None) -> ExecutionSummary:
        """Run ``sql`` to completion under admission control."""
        handle = self.open(sql, self._options(
            context=context, tenant=tenant, mediate=mediate,
            consistency=consistency, timeout_seconds=timeout_seconds,
            on_source_error=on_source_error,
        ), stream=False, service="execute")
        rows = handle.fetchall()
        summary = handle.summary()
        summary.rows = rows
        return summary

    def submit(self, sql: str, context: Optional[str] = None,
               tenant: Optional[str] = None, mediate: bool = True,
               consistency: str = "raw",
               timeout_seconds: Optional[float] = None,
               on_source_error: Optional[str] = None,
               batch_size: int = 256) -> ResultHandle:
        """Open a streaming statement; returns a :class:`ResultHandle`.

        The handle's batches flow under the gateway's stream-permit
        backpressure: the permit is claimed *before* any work (an
        over-streamed service sheds the submit, retriable), and held until
        the handle closes.
        """
        return self.open(sql, self._options(
            context=context, tenant=tenant, mediate=mediate,
            consistency=consistency, timeout_seconds=timeout_seconds,
            on_source_error=on_source_error, batch_size=batch_size,
        ), service="submit")

    @staticmethod
    def _options(**keywords: Any) -> StatementOptions:
        """This edge's codec: keywords spelled as on the wire (None = the
        default), a malformed value is the caller's ``ClientError``."""
        return StatementOptions.from_parameters(keywords, ClientError)

    def open(self, statement: Union[str, PreparedQuery],
             options: StatementOptions, stream: bool = True,
             trace_id: Optional[str] = None, **attributes) -> ResultHandle:
        """The one admitted open every serving front goes through.

        In order: the edge's root span (so waits and sheds are part of the
        tree; ``trace_id`` adopts a client-minted id, ``attributes`` name the
        edge), then — for a streaming answer — the stream permit, claimed
        *before* admission so an over-streamed server sheds the open without
        spending a tenant token or a worker slot; then admission, whose
        worker slot covers only opening (an eager statement: executing) the
        cursor under the budget left after queueing.  Permit and root ride
        the cursor's close; a failed open releases both.  A
        :class:`~repro.federation.PreparedQuery` executes under its own
        options — ``options`` then only carries the request's tenant and
        admission deadline.
        """
        started = time.perf_counter()
        prepared = isinstance(statement, PreparedQuery)
        cursor, root, release = self.admit(
            lambda remaining: self.federation.open(
                statement,
                statement.options if prepared
                else options.with_timeout(remaining),
                stream),
            statement.sql if prepared else statement, options.tenant,
            trace_id, options.timeout_seconds, stream, **attributes)
        if release is not None:
            cursor.stream.on_close(lambda report: release())
        if root.recording:
            # The root closes with the cursor: only then are the stream and
            # fetch spans complete.
            cursor.stream.on_close(lambda report: root.finish())
        return ResultHandle(cursor, root, started)

    def admit(self, work: Callable[[Optional[float]], T],
              sql: Optional[str] = None, tenant: Optional[str] = None,
              trace_id: Optional[str] = None,
              timeout_seconds: Optional[float] = None, stream: bool = False,
              **attributes) -> Tuple[T, Any, Optional[Callable[[], None]]]:
        """Root span, stream permit, admission, ``work(remaining budget)`` —
        the only place the serving stack opens a root or enters the gateway.
        Returns ``(result, root, release)``: the root still open (prepare,
        mediate and explain finish it right away), ``release`` giving back
        the stream permit (None without ``stream``); a failure releases both
        before it propagates."""
        root = self.federation.observability.statement_root(
            sql, trace_id, tenant=tenant, **attributes)
        token = root.activate()
        release = None
        try:
            if stream:
                release = self.gateway.acquire_stream(tenant)
            result = self.gateway.run(work, tenant=tenant,
                                      timeout_seconds=timeout_seconds)
        except BaseException as exc:
            if release is not None:
                release()
            deactivate_span(token)
            root.finish(error=exc)
            raise
        deactivate_span(token)
        return result, root, release

    def explain(self, sql: str, context: Optional[str] = None) -> str:
        """The server's plan rendering; when tracing is on, the explain runs
        under its own trace and the rendering ends with a ``-- trace`` line
        (trace id + one-line span summary) naming the buffered tree."""
        plan, root, _release = self.admit(
            lambda remaining: self.federation.explain_plan(sql, context), sql,
            service="explain")
        root.finish()
        if not root.recording:
            return plan
        return f"{plan}\n-- trace {root.trace_id}: {root.summary()}"

    # -- operations -------------------------------------------------------------------

    def drain(self, timeout_seconds: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight statements and open handles."""
        return self.gateway.drain(timeout_seconds)

    def resume(self) -> None:
        self.gateway.resume()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "gateway": self.gateway.snapshot(),
            "observability": self.federation.observability.snapshot(),
        }
