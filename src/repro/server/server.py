"""The mediation server: the prototype's server-side entry point.

The server owns a :class:`~repro.federation.Federation` and answers protocol
requests arriving over the (simulated) HTTP tunnel: dictionary questions,
mediation-only requests and full query execution.  Clients — the ODBC-like
driver and the HTML QBE front end — never touch the federation directly.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.errors import OverloadError, ProtocolError, ReproError
from repro.federation import Federation, FederationCursor, PreparedQuery
from repro.mediation.explain import conflict_summary
from repro.obs.metrics import CounterSet
from repro.obs.trace import NULL_SPAN, deactivate_span
from repro.options import StatementOptions, parse_batch_size
from repro.server.gateway import AdmissionGateway, GatewayConfig
from repro.server.http import HttpChannel, HttpRequest, HttpResponse
from repro.server.protocol import (
    Request,
    Response,
    relation_to_payload,
    rows_to_payload,
    schema_to_payload,
)
from repro.server.service import FederatedQueryService


#: The server's request counters: (field, kind, exported series, help).
SERVER_COUNTERS = (
    ("requests", "sum", "server_requests_total",
     "Protocol requests the server dispatched."),
    ("queries", "sum", "server_queries_total",
     "Statements the server executed."),
    ("errors", "sum", "server_errors_total",
     "Requests answered with an error."),
    ("requests_shed", "sum", "server_requests_shed_total",
     "Requests shed by admission control."),
    ("prepared_statements", "sum", None, ""),
    ("prepared_executions", "sum", None, ""),
    ("cursors_opened", "sum", None, ""),
    ("cursor_fetches", "sum", "server_cursor_fetches_total",
     "Cursor fetch round trips served."),
    ("rows_streamed", "sum", "server_rows_streamed_total",
     "Rows shipped through cursors and chunked responses."),
)


@dataclass
class _OpenCursor:
    """One server-side streaming cursor plus its validity generations.

    Like prepared statements, cursors are generation-checked: a catalog or
    knowledge change after the cursor opened makes its remaining rows
    untrustworthy (they would mix pre- and post-change data), so the next
    fetch fails and the cursor is discarded.

    ``fetch_lock`` serializes fetches on one handle: the underlying stream
    is a generator, and two clients (or one client's retry) driving it
    concurrently would race with 'generator already executing'.

    The cursor holds one gateway streaming permit for its whole life — the
    backpressure bounding concurrently open streams — released when it
    closes (see ``FederatedQueryService.open``).
    """

    cursor: FederationCursor
    catalog_generation: int
    knowledge_generation: int
    fetch_lock: threading.Lock = field(default_factory=threading.Lock)

    def discard(self) -> None:
        self.cursor.close()


class MediationServer:
    """Dispatches protocol requests against one federation."""

    #: Path under which the tunnel accepts requests (mirrors the prototype's CGI endpoint).
    ENDPOINT = "/coin/api"
    #: Path answering query requests with chunked result batches.
    STREAM_ENDPOINT = "/coin/api/stream"
    #: Path answering ``GET`` with the Prometheus text exposition.
    METRICS_ENDPOINT = "/coin/metrics"

    #: Bound on concurrently open prepared statements (leak protection:
    #: clients that never close are evicted oldest-first).
    MAX_PREPARED_STATEMENTS = 256
    #: Bound on concurrently open cursors; eviction closes the underlying
    #: stream, cancelling its outstanding source fetches.
    MAX_OPEN_CURSORS = 64
    #: Operations that execute or compile statements: these pass through the
    #: admission gateway (quotas, bounded queue, deadline-aware shedding).
    #: Dictionary lookups and cursor fetch/close stay un-gated — they are
    #: cheap, and gating fetches would deadlock draining consumers.
    ADMITTED_OPERATIONS = frozenset({
        "query", "mediate", "explain", "prepare", "execute_prepared",
        "open_cursor",
    })
    #: Admitted operations carrying statement options (consistency, deadline,
    #: source-failure policy): parsed and validated once, before admission.
    STATEMENT_OPERATIONS = frozenset({"query", "prepare", "open_cursor"})
    #: HTTP request header naming the tenant (protocol ``tenant`` parameter
    #: wins when both are present).
    TENANT_HEADER = "X-Coin-Tenant"
    #: HTTP header carrying the trace id — inbound (client-minted, the
    #: envelope's ``trace_id`` wins when both are present) and outbound
    #: (echoed on successful traced responses).
    TRACE_HEADER = "X-Coin-Trace"

    def __init__(self, federation: Federation,
                 gateway: Optional[Union[AdmissionGateway, GatewayConfig]] = None):
        self.federation = federation
        #: The serving core: streaming statements open through its single
        #: admitted open; this server is the wire codec and handle registry.
        self.service = FederatedQueryService(federation, gateway)
        #: The admission gateway every statement-executing request passes.
        self.gateway = self.service.gateway
        self.statistics = CounterSet(SERVER_COUNTERS)
        #: LRU of open prepared statements: executing one refreshes it, so
        #: eviction under pressure removes genuinely idle handles first.
        self._prepared: "OrderedDict[str, PreparedQuery]" = OrderedDict()
        self._prepared_lock = threading.Lock()
        self._statement_ids = itertools.count(1)
        #: LRU of open cursors, mirror of the prepared-statement registry:
        #: lock-guarded, bounded, fetched handles refresh their position.
        self._cursors: "OrderedDict[str, _OpenCursor]" = OrderedDict()
        self._cursor_lock = threading.Lock()
        self._cursor_ids = itertools.count(1)
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Attach the server's and gateway's counters to the federation's
        registry; the open-handle gauges are read at scrape time."""
        registry = self.federation.observability.metrics
        self.gateway.bind_metrics(registry)
        registry.attach(self.statistics)
        registry.gauge(
            "server_open_prepared_statements",
            "Prepared statements currently registered.",
            function=lambda: len(self._prepared),
        )
        registry.gauge(
            "server_open_cursors",
            "Server-side cursors currently open.",
            function=lambda: len(self._cursors),
        )

    # -- transport-level entry points ---------------------------------------------

    def channel(self) -> HttpChannel:
        """A fresh HTTP channel bound to this server (one per client connection)."""
        return HttpChannel(self.handle_http)

    def handle_http(self, request: HttpRequest) -> HttpResponse:
        """Handle one HTTP-tunnelled protocol request.

        Persistence is honoured on the plain endpoints: a keep-alive request
        gets a keep-alive response (HTTP/1.1 clients persist by default), so
        pooled clients reuse one connection across statements.  Chunked
        streaming responses always close — their consumer may abandon the
        stream mid-body, and a closed connection is the only framing-safe
        way out.
        """
        response = self._handle_http(request)
        if request.version.upper() == "HTTP/1.1":
            response.version = "HTTP/1.1"
        if response.chunks is None and request.wants_keep_alive():
            response.headers.setdefault("Connection", "keep-alive")
        else:
            response.headers.setdefault("Connection", "close")
        return response

    def _handle_http(self, request: HttpRequest) -> HttpResponse:
        if request.method == "GET" and request.path == self.METRICS_ENDPOINT:
            return HttpResponse(
                status=200, reason="OK",
                headers={"Content-Type":
                         "text/plain; version=0.0.4; charset=utf-8"},
                body=self.federation.observability.metrics.render(),
            )
        if request.method == "POST" and request.path == self.STREAM_ENDPOINT:
            return self.handle_http_stream(request)
        if request.path != self.ENDPOINT or request.method != "POST":
            return HttpResponse(status=404, reason="Not Found",
                                body=Response.failure("unknown endpoint").to_json())
        try:
            protocol_request = Request.from_json(request.body)
        except ReproError as exc:
            self.statistics.add(errors=1)
            return HttpResponse(status=400, reason="Bad Request",
                                body=Response.failure(str(exc), "protocol").to_json())
        response = self.handle(protocol_request,
                               tenant=self._header_tenant(request),
                               trace_id=self._header_value(request, self.TRACE_HEADER))
        if not response.ok and response.error_kind == "OverloadError":
            return self._overload_http_response(response)
        status, reason = (200, "OK") if response.ok else (422, "Unprocessable Entity")
        http_response = HttpResponse(status=status, reason=reason,
                                     body=response.to_json())
        if response.ok and response.payload.get("trace_id"):
            http_response.headers[self.TRACE_HEADER] = response.payload["trace_id"]
        return http_response

    @classmethod
    def _header_value(cls, request: HttpRequest, header: str) -> Optional[str]:
        wanted = header.lower()
        for name, value in request.headers.items():
            if name.lower() == wanted:
                return value
        return None

    @classmethod
    def _header_tenant(cls, request: HttpRequest) -> Optional[str]:
        return cls._header_value(request, cls.TENANT_HEADER)

    @staticmethod
    def _overload_http_response(response: Response) -> HttpResponse:
        """Shed requests answer 503 + Retry-After: overload is the server's
        state, not the request's fault, and the client should back off."""
        retry_after = response.retry_after_seconds
        header = "1" if retry_after is None else str(max(1, math.ceil(retry_after)))
        return HttpResponse(status=503, reason="Service Unavailable",
                            headers={"Retry-After": header},
                            body=response.to_json())

    def handle_http_stream(self, request: HttpRequest) -> HttpResponse:
        """Answer one query request with chunked result batches.

        The first chunk is the result description (columns, types, mediation
        metadata), each following chunk one batch of rows, and the final
        chunk a summary with the execution report — every chunk its own JSON
        document, framed with genuine ``Transfer-Encoding: chunked`` byte
        framing on the wire.
        """
        try:
            protocol_request = Request.from_json(request.body)
            if protocol_request.operation != "query":
                raise ProtocolError(
                    "the streaming endpoint accepts only 'query' requests"
                )
            parameters = protocol_request.parameters
            sql = parameters.get("sql")
            if not sql:
                raise ProtocolError("'query' requires a 'sql' parameter")
            self.statistics.add(requests=1)
            options = StatementOptions.from_parameters(
                parameters, ProtocolError, tenant=self._header_tenant(request))
            # A worker slot covers only *opening* the stream (mediation,
            # planning, first-batch dispatch); producing the chunks happens
            # on this — the consumer's — thread under a bounded streaming
            # permit, so a slow consumer never pins a worker.  The root span
            # covers the whole exchange: it finishes when the cursor closes.
            handle = self.service.open(
                sql, options, operation="stream",
                trace_id=(protocol_request.trace_id
                          or self._header_value(request, self.TRACE_HEADER)),
            )
            with handle:
                chunks = [json.dumps(self._cursor_header(handle.cursor))]
                chunks.extend(json.dumps({"rows": rows_to_payload(rows)})
                              for rows in handle.batches())
                chunks.append(json.dumps({
                    "done": True,
                    "row_count": handle.rows_streamed,
                    "execution": handle.cursor.report.snapshot(),
                }))
        except ReproError as exc:
            return self._stream_failure(exc)
        self.statistics.add(queries=1, rows_streamed=handle.rows_streamed)
        headers = ({self.TRACE_HEADER: handle.trace_id}
                   if handle.trace_id else {})
        return HttpResponse(status=200, reason="OK", headers=headers,
                            chunks=chunks)

    def _stream_failure(self, exc: ReproError) -> HttpResponse:
        """The chunked endpoint's error mapping: sheds answer 503, malformed
        requests 400, statements that fail 422 with their error kind."""
        if isinstance(exc, OverloadError):
            self.statistics.add(errors=1, requests_shed=1)
            return self._overload_http_response(
                Response.failure(str(exc), "OverloadError",
                                 retry_after_seconds=exc.retry_after_seconds))
        self.statistics.add(errors=1)
        if isinstance(exc, ProtocolError):
            return HttpResponse(status=400, reason="Bad Request",
                                body=Response.failure(str(exc), "protocol").to_json())
        return HttpResponse(status=422, reason="Unprocessable Entity",
                            body=Response.failure(str(exc), type(exc).__name__).to_json())

    # -- protocol-level dispatch ---------------------------------------------------------

    def handle(self, request: Request, tenant: Optional[str] = None,
               trace_id: Optional[str] = None) -> Response:
        """Handle one protocol request object (transport already stripped).

        Statement-executing operations pass the admission gateway first: a
        shed request fails with ``error_kind="OverloadError"`` (and a
        ``retry_after_seconds`` hint) without touching the federation.

        The server is the trace edge: statement-shaped operations open the
        root ``statement`` span here (adopting the client-minted ``trace_id``
        from the envelope or the ``X-Coin-Trace`` header when one arrived),
        so admission, pipeline and execution spans connect into one tree.
        Successful traced responses echo ``trace_id`` — and, once the trace
        is finished and sampled, the span tree itself — in the payload.
        """
        self.statistics.add(requests=1)
        tenant = request.parameters.get("tenant") or tenant
        trace_id = request.trace_id or trace_id
        # ``open_cursor``'s root outlives this request — the service's
        # admitted open owns it and finishes it when the cursor closes.
        root = NULL_SPAN
        if (request.operation in self.ADMITTED_OPERATIONS
                and request.operation != "open_cursor"):
            root = self.federation.observability.statement_root(
                trace_id=trace_id, operation=request.operation, tenant=tenant)
        token = root.activate()
        try:
            response = self._respond(request, tenant, trace_id)
        finally:
            deactivate_span(token)
        if not root.recording:
            return response
        if response.ok:
            response.payload.setdefault("trace_id", root.trace_id)
            root.finish()
            trace = self.federation.observability.tracer.buffer.get(root.trace_id)
            if trace is not None:
                response.payload.setdefault("trace", trace)
        else:
            # Failed requests force-keep their trace; the error detail lives
            # in the response, the span records its kind for the tree.
            root.annotate(error_kind=response.error_kind)
            root.flag("error")
            root.finish()
        return response

    def _respond(self, request: Request, tenant: Optional[str],
                 trace_id: Optional[str]) -> Response:
        """Dispatch under the gateway; map errors to protocol failures.

        Statement options are parsed and validated here, once, before
        admission.  ``query`` executes *now* under its own deadline: the
        admission wait is bounded by it and the handler runs under the
        budget left after queueing (time spent queueing must not count
        against sources that never saw the request); ``prepare`` carries a
        deadline as a statement property for later executions, not a bound
        on compiling it.  ``open_cursor`` is admitted by the service's
        single admitted open instead — after claiming its stream permit.
        """
        operation = request.operation
        try:
            if operation not in self.ADMITTED_OPERATIONS:
                response = self._dispatch(request)
            else:
                options = None
                if operation in self.STATEMENT_OPERATIONS:
                    options = StatementOptions.from_parameters(
                        request.parameters, ProtocolError, tenant=tenant)
                if operation == "open_cursor":
                    response = self._handle_open_cursor(
                        request.parameters, options, trace_id)
                else:
                    response = self.gateway.run(
                        lambda remaining: self._dispatch(
                            request, options and options.with_timeout(remaining)),
                        tenant=tenant,
                        timeout_seconds=(options.timeout_seconds
                                         if operation == "query" else None),
                    )
            if not response.ok:
                self.statistics.add(errors=1)
            return response
        except OverloadError as exc:
            self.statistics.add(errors=1, requests_shed=1)
            return Response.failure(str(exc), "OverloadError",
                                    retry_after_seconds=exc.retry_after_seconds)
        except ReproError as exc:
            self.statistics.add(errors=1)
            return Response.failure(str(exc), type(exc).__name__)
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self.statistics.add(errors=1)
            return Response.failure(f"internal error: {exc}", "internal")

    def _dispatch(self, request: Request,
                  options: Optional[StatementOptions] = None) -> Response:
        """Run the operation's handler (statement handlers take options)."""
        handler = getattr(self, f"_handle_{request.operation}")
        if options is None:
            return handler(request.parameters)
        return handler(request.parameters, options)

    # -- operations ------------------------------------------------------------------------

    def _handle_list_sources(self, parameters: Dict[str, Any]) -> Response:
        return Response.success(sources=self.federation.list_sources())

    def _handle_list_relations(self, parameters: Dict[str, Any]) -> Response:
        source = parameters.get("source")
        return Response.success(relations=self.federation.list_relations(source))

    def _handle_describe(self, parameters: Dict[str, Any]) -> Response:
        relation = parameters.get("relation")
        if not relation:
            return Response.failure("'describe' requires a 'relation' parameter", "protocol")
        return Response.success(
            relation=relation,
            attributes=self.federation.describe_relation(relation),
        )

    def _handle_contexts(self, parameters: Dict[str, Any]) -> Response:
        return Response.success(contexts=self.federation.receiver_contexts)

    @staticmethod
    def _mediation_payload(result) -> Dict[str, Any]:
        """What mediation did, for an answer or a cursor alike."""
        return {
            "mediated_sql": result.mediated_sql,
            "branch_count": result.mediation.branch_count,
            "conflicts": conflict_summary(result.mediation),
            "column_labels": [annotation.label()
                              for annotation in result.annotations],
        }

    def _answer_payload(self, answer) -> Dict[str, Any]:
        """A materialized answer (``query`` / ``execute_prepared``)."""
        return dict(self._mediation_payload(answer),
                    relation=relation_to_payload(answer.relation),
                    execution=answer.execution.report.snapshot())

    def _cursor_header(self, cursor: FederationCursor) -> Dict[str, Any]:
        """A streamed answer's description (``open_cursor`` / first chunk)."""
        return dict(schema_to_payload(cursor.schema),
                    **self._mediation_payload(cursor))

    def _handle_query(self, parameters: Dict[str, Any],
                      options: StatementOptions) -> Response:
        sql = parameters.get("sql")
        if not sql:
            return Response.failure("'query' requires a 'sql' parameter", "protocol")
        answer = self.federation.open(sql, options, stream=False).answer()
        self.statistics.add(queries=1)
        return Response.success(**self._answer_payload(answer))

    def _handle_prepare(self, parameters: Dict[str, Any],
                        options: StatementOptions) -> Response:
        sql = parameters.get("sql")
        if not sql:
            return Response.failure("'prepare' requires a 'sql' parameter", "protocol")
        prepared = self.federation.compile(sql, options)
        statement_id = f"stmt-{next(self._statement_ids)}"
        with self._prepared_lock:
            self._prepared[statement_id] = prepared
            while len(self._prepared) > self.MAX_PREPARED_STATEMENTS:
                self._prepared.popitem(last=False)
        self.statistics.add(prepared_statements=1)
        return Response.success(
            statement_id=statement_id,
            original_sql=prepared.sql,
            mediated_sql=prepared.mediated_sql,
            branch_count=prepared.plan.mediation.branch_count,
            conflicts=conflict_summary(prepared.plan.mediation),
            receiver_context=prepared.receiver_context,
            consistency=options.consistency,
        )

    def _prepared_statement(self, statement_id: str) -> Optional[PreparedQuery]:
        """Look up an open prepared statement, refreshing its LRU position."""
        with self._prepared_lock:
            prepared = self._prepared.get(statement_id)
            if prepared is not None:
                self._prepared.move_to_end(statement_id)
        return prepared

    @staticmethod
    def _unknown_statement(statement_id: str) -> Response:
        return Response.failure(
            f"unknown or closed prepared statement {statement_id!r}", "protocol")

    def _handle_execute_prepared(self, parameters: Dict[str, Any]) -> Response:
        statement_id = parameters.get("statement_id")
        if not statement_id:
            return Response.failure(
                "'execute_prepared' requires a 'statement_id' parameter", "protocol"
            )
        prepared = self._prepared_statement(statement_id)
        if prepared is None:
            return self._unknown_statement(statement_id)
        answer = prepared.execute()
        self.statistics.add(queries=1, prepared_executions=1)
        return Response.success(statement_id=statement_id,
                                **self._answer_payload(answer))

    def _handle_close_prepared(self, parameters: Dict[str, Any]) -> Response:
        statement_id = parameters.get("statement_id")
        if not statement_id:
            return Response.failure(
                "'close_prepared' requires a 'statement_id' parameter", "protocol"
            )
        with self._prepared_lock:
            prepared = self._prepared.pop(statement_id, None)
        if prepared is not None:
            prepared.close()
        return Response.success(statement_id=statement_id, closed=prepared is not None)

    # -- cursors -----------------------------------------------------------------------------

    def _handle_open_cursor(self, parameters: Dict[str, Any],
                            options: StatementOptions,
                            trace_id: Optional[str]) -> Response:
        statement_id = parameters.get("statement_id")
        statement = parameters.get("sql")
        if bool(statement_id) == bool(statement):
            return Response.failure(
                "'open_cursor' requires exactly one of 'sql' or 'statement_id'",
                "protocol",
            )
        if statement_id:
            statement = self._prepared_statement(statement_id)
            if statement is None:
                return self._unknown_statement(statement_id)
        # Permit first, then admission: an over-streamed server sheds the
        # open instead of building a cursor it cannot host.
        handle = self.service.open(statement, options, trace_id=trace_id,
                                   operation="open_cursor")
        cursor = handle.cursor
        try:
            payload = self._cursor_header(cursor)
        except ReproError:
            cursor.close()
            raise
        cursor_id = f"cur-{next(self._cursor_ids)}"
        entry = _OpenCursor(
            cursor=cursor,
            catalog_generation=self.federation.pipeline.catalog_generation,
            knowledge_generation=self.federation.pipeline.knowledge_generation,
        )
        evicted: List[_OpenCursor] = []
        with self._cursor_lock:
            self._cursors[cursor_id] = entry
            while len(self._cursors) > self.MAX_OPEN_CURSORS:
                _key, doomed = self._cursors.popitem(last=False)
                evicted.append(doomed)
        for doomed in evicted:
            doomed.discard()
        self.statistics.add(cursors_opened=1)
        payload.update(
            cursor_id=cursor_id,
            receiver_context=cursor.mediation.receiver_context,
        )
        if handle.trace_id:
            payload["trace_id"] = handle.trace_id
        return Response.success(**payload)

    def _handle_fetch_cursor(self, parameters: Dict[str, Any]) -> Response:
        cursor_id = parameters.get("cursor_id")
        if not cursor_id:
            return Response.failure(
                "'fetch_cursor' requires a 'cursor_id' parameter", "protocol"
            )
        count = parse_batch_size(parameters.get("count"), ProtocolError)
        with self._cursor_lock:
            entry = self._cursors.get(cursor_id)
            if entry is not None:
                self._cursors.move_to_end(cursor_id)
        if entry is None:
            return Response.failure(
                f"unknown or closed cursor {cursor_id!r}", "cursor"
            )
        # Generation check, mirroring prepared statements: a catalog or
        # knowledge change mid-stream would splice pre- and post-change rows
        # into one answer, so the cursor dies instead.
        if (entry.catalog_generation != self.federation.pipeline.catalog_generation
                or entry.knowledge_generation != self.federation.pipeline.knowledge_generation):
            self._discard_cursor(cursor_id)
            return Response.failure(
                f"cursor {cursor_id!r} invalidated by a catalog or knowledge "
                "change; re-issue the query", "cursor"
            )
        try:
            with entry.fetch_lock:
                rows = entry.cursor.fetchmany(count)
                done = entry.cursor.exhausted
        except ReproError:
            # A mid-stream failure poisons the cursor: release its resources
            # and let the error surface to the client.
            self._discard_cursor(cursor_id)
            raise
        self.statistics.add(cursor_fetches=1, rows_streamed=len(rows))
        payload: Dict[str, Any] = {
            "cursor_id": cursor_id,
            "rows": rows_to_payload(rows),
            "done": done,
        }
        if done:
            self._discard_cursor(cursor_id)
            execution = entry.cursor.report.snapshot()
            payload["execution"] = execution
            trace_id = execution.get("trace_id")
            if trace_id:
                # The cursor's close just finished the trace; ship it with
                # the final batch when sampling kept it.
                payload["trace_id"] = trace_id
                trace = self.federation.observability.tracer.buffer.get(trace_id)
                if trace is not None:
                    payload["trace"] = trace
        return Response.success(**payload)

    def _handle_close_cursor(self, parameters: Dict[str, Any]) -> Response:
        cursor_id = parameters.get("cursor_id")
        if not cursor_id:
            return Response.failure(
                "'close_cursor' requires a 'cursor_id' parameter", "protocol"
            )
        closed = self._discard_cursor(cursor_id)
        # Idempotent: closing an unknown/already-closed cursor succeeds.
        return Response.success(cursor_id=cursor_id, closed=closed)

    def _discard_cursor(self, cursor_id: str) -> bool:
        with self._cursor_lock:
            entry = self._cursors.pop(cursor_id, None)
        if entry is None:
            return False
        entry.discard()
        return True

    def _handle_mediate(self, parameters: Dict[str, Any]) -> Response:
        sql = parameters.get("sql")
        if not sql:
            return Response.failure("'mediate' requires a 'sql' parameter", "protocol")
        context = parameters.get("context")
        result = self.federation.mediate_only(sql, context)
        return Response.success(
            original_sql=result.original_sql,
            mediated_sql=result.sql,
            branch_count=result.branch_count,
            conflicts=conflict_summary(result),
            explanation=result.explain(),
        )

    def _handle_explain(self, parameters: Dict[str, Any]) -> Response:
        sql = parameters.get("sql")
        if not sql:
            return Response.failure("'explain' requires a 'sql' parameter", "protocol")
        context = parameters.get("context")
        return Response.success(plan=self.federation.explain_plan(sql, context))

    # -- status and shutdown --------------------------------------------------------------

    def _handle_status(self, parameters: Dict[str, Any]) -> Response:
        return Response.success(**self.snapshot())

    def _handle_metrics(self, parameters: Dict[str, Any]) -> Response:
        registry = self.federation.observability.metrics
        return Response.success(
            metrics=registry.snapshot(),
            exposition=registry.render(),
        )

    def snapshot(self) -> Dict[str, Any]:
        """Server statistics with the ``server_load`` admission block and
        per-source health folded in — what operators watch under overload."""
        snapshot: Dict[str, Any] = self.statistics.snapshot()
        snapshot["server_load"] = self.gateway.snapshot()
        snapshot["source_health"] = self.federation.engine.source_health()
        snapshot["observability"] = self.federation.observability.snapshot()
        with self._prepared_lock:
            snapshot["open_prepared_statements"] = len(self._prepared)
        with self._cursor_lock:
            snapshot["open_cursors"] = len(self._cursors)
        return snapshot

    def shutdown(self, timeout_seconds: Optional[float] = None) -> bool:
        """Gracefully drain: shed new arrivals, let admitted work finish,
        then release every registered handle.  Returns True once idle."""
        self.gateway.begin_drain()
        with self._prepared_lock:
            prepared = list(self._prepared.values())
            self._prepared.clear()
        for statement in prepared:
            statement.close()
        # Registered cursors are discarded *before* awaiting the drain: they
        # hold streaming permits the gateway counts as in-flight work.
        with self._cursor_lock:
            cursors = list(self._cursors.values())
            self._cursors.clear()
        for entry in cursors:
            entry.discard()
        return self.gateway.await_drain(timeout_seconds)
