"""A process-embedded service facade over the federation + admission gateway.

Applications that live in the same process as the federation do not need the
wire protocol at all — but they *do* need the serving disciplines the wire
transports get for free: admission control, tenant quota accounting, deadline
shedding, and streaming backpressure.  :class:`FederatedQueryService` is that
facade: every statement runs under the :class:`~repro.server.gateway.
AdmissionGateway`, and every streaming result is a :class:`~repro.federation.
FederationCursor` holding one of the gateway's bounded stream permits until it
is closed or exhausted — exactly the contract the protocol cursors and chunked
HTTP responses obey.

Shape::

    service = federation.service()                 # or FederatedQueryService(...)
    summary = service.execute("select ...", tenant="acme")
    for row in summary.rows: ...

    with service.submit("select ...", tenant="acme") as cursor:
        for batch in cursor.batches():             # permit held while open
            consume(batch)
    cursor.summary().row_count
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar, Union

from repro.errors import ClientError
from repro.federation import (
    ExecutionSummary, Federation, FederationCursor, PreparedQuery,
)
from repro.obs.trace import deactivate_span
from repro.options import StatementOptions
from repro.server.gateway import AdmissionGateway, GatewayConfig

__all__ = ["ExecutionSummary", "FederatedQueryService"]

T = TypeVar("T")


class FederatedQueryService:
    """The public in-process query surface: gateway-governed, cursor-based.

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
        cursor = self.open(sql, self._options(
            context=context, tenant=tenant, mediate=mediate,
            consistency=consistency, timeout_seconds=timeout_seconds,
            on_source_error=on_source_error,
        ), stream=False, service="execute")
        rows = cursor.fetchall()
        summary = cursor.summary()
        summary.rows = rows
        return summary

    def submit(self, sql: str, context: Optional[str] = None,
               tenant: Optional[str] = None, mediate: bool = True,
               consistency: str = "raw",
               timeout_seconds: Optional[float] = None,
               on_source_error: Optional[str] = None,
               batch_size: int = 256) -> FederationCursor:
        """Open a streaming statement; returns its :class:`FederationCursor`.

        The cursor's batches flow under the gateway's stream-permit
        backpressure: the permit is claimed *before* any work (an
        over-streamed service sheds the submit, retriable), and held until
        the cursor closes.
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
             trace_id: Optional[str] = None, **attributes) -> FederationCursor:
        """The one admitted open every serving front goes through.

        In order: the edge's root span (so waits and sheds are part of the
        tree; ``trace_id`` adopts a client-minted id, ``attributes`` name the
        edge), then — for a streaming answer — the stream permit, claimed
        *before* admission so an over-streamed server sheds the open without
        spending a tenant token or a worker slot; then admission, whose
        worker slot covers only opening (an eager statement: executing) the
        cursor under the budget left after queueing.  The cursor carries the
        root and this call's start time; permit and root finish ride its
        close, and a failed open releases both.  A
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
        cursor.root, cursor.started = root, started
        return cursor

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
        """Stop admitting, wait for in-flight statements and open cursors."""
        return self.gateway.drain(timeout_seconds)

    def resume(self) -> None:
        self.gateway.resume()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "gateway": self.gateway.snapshot(),
            "observability": self.federation.observability.snapshot(),
        }
