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
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

from repro.errors import OverloadError, ProtocolError, ReproError
from repro.federation import Federation, FederationCursor
from repro.mediation.explain import conflict_summary
from repro.obs.cache import BoundedCache
from repro.obs.metrics import CounterSet
from repro.options import StatementOptions, parse_batch_size
from repro.server.gateway import AdmissionGateway, GatewayConfig
from repro.server.http import HttpChannel, HttpRequest, HttpResponse, header
from repro.server.protocol import (
    Request,
    Response,
    rows_to_payload,
    schema_to_payload,
)


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


class _Refused(ProtocolError):
    """A request the codec turns away, under a protocol error kind."""

    def __init__(self, message: str, kind: str = "protocol"):
        super().__init__(message)
        self.kind = kind


class HandleRegistry:
    """A bounded LRU of server-side handles, each filed under its owner.

    Prepared statements and cursors each live in one.  A handle is keyed by
    ``(owner, handle id)``: it is visible only to the owner that registered it
    (a transport session; None for the sessionless in-process doors), and
    another owner's id is a plain miss.  Registering past ``capacity`` evicts
    the least recently used handles and *closes* them, so clients that never
    close cannot pin the server.
    """

    def __init__(self, prefix: str, capacity: int):
        self._prefix = prefix
        self._handles = BoundedCache(capacity)
        self._ids = itertools.count(1)

    def register(self, handle: Any, owner: Any = None) -> str:
        handle_id = f"{self._prefix}-{next(self._ids)}"
        for evicted in self._handles.put((owner, handle_id), handle):
            evicted.close()
        return handle_id

    def get(self, handle_id: str, owner: Any = None) -> Any:
        """``owner``'s handle under ``handle_id`` (None: it holds none such),
        moved to the fresh end of the LRU."""
        return self._handles.get((owner, handle_id))

    def discard(self, handle_id: str, owner: Any = None) -> bool:
        """Close and forget one handle; False when ``owner`` holds none such."""
        handle = self._handles.pop((owner, handle_id))
        if handle is not None:
            handle.close()
        return handle is not None

    def release(self, *owners: Any) -> None:
        """Close and forget every handle of ``owners`` (none named: of anyone)."""
        for handle in self._handles.drop(
                lambda key: not owners or key[0] in owners):
            handle.close()

    def __len__(self) -> int:
        return len(self._handles)


class _Call(NamedTuple):
    """One checked protocol request, as its operation's handler sees it."""

    operation: str
    parameters: Dict[str, Any]
    #: Parsed statement options; of an operation without, only the tenant.
    options: StatementOptions
    trace_id: Optional[str]
    #: The transport session (None: a sessionless door), its handles' owner.
    session: Any


class _Operation(NamedTuple):
    """One row of :attr:`MediationServer.OPERATIONS`."""

    #: Translates parameters in and the payload out, nothing more.
    handler: Callable[["MediationServer", _Call], Dict[str, Any]]
    #: Parameters that must be present and non-empty.
    required: Tuple[str, ...] = ()
    #: Executes or compiles a statement: passes the admission gateway.
    #: Dictionary lookups and cursor fetch/close stay un-gated — they are
    #: cheap, and gating fetches would deadlock draining consumers.
    admitted: bool = False
    #: Carries statement options: parsed and validated before admission.
    options: bool = False


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
        #: The admission gateway every statement-executing request passes.
        self.gateway = (gateway if isinstance(gateway, AdmissionGateway)
                        else AdmissionGateway(gateway))
        self.statistics = CounterSet(SERVER_COUNTERS)
        self._statements = HandleRegistry("stmt", self.MAX_PREPARED_STATEMENTS)
        self._cursors = HandleRegistry("cur", self.MAX_OPEN_CURSORS)
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
            function=self._statements.__len__,
        )
        registry.gauge(
            "server_open_cursors",
            "Server-side cursors currently open.",
            function=self._cursors.__len__,
        )

    # -- the HTTP codec ------------------------------------------------------------------

    def channel(self) -> HttpChannel:
        """A fresh HTTP channel bound to this server (one per client connection)."""
        return HttpChannel(self.handle_http)

    def handle_http(self, request: HttpRequest, session: Any = None,
                    decoded: Union[Request, HttpResponse, None] = None) -> HttpResponse:
        """Answer one HTTP-tunnelled request: the one HTTP codec, whichever
        transport carried the bytes.  ``decoded`` is :meth:`decode_http`'s
        result when the caller already has it: the event loop decodes on its
        own thread (it sheds admitted operations before a worker is spent)
        and calls this from its worker pool, so a body is parsed once either
        way.  ``session``: see :meth:`handle`."""
        response = self.decode_http(request) if decoded is None else decoded
        if isinstance(response, Request):
            tenant = header(request.headers, self.TENANT_HEADER)
            trace_id = header(request.headers, self.TRACE_HEADER)
            if request.path == self.STREAM_ENDPOINT:
                response = self._http_stream(response, tenant, trace_id, session)
            else:
                response = self._http_response(
                    self.handle(response, tenant, trace_id, session))
        return self._persist(request, response)

    def decode_http(self, request: HttpRequest) -> Union[Request, HttpResponse]:
        """The protocol request to dispatch, or the response that already
        answers ``request`` (the metrics exposition, 404, 400)."""
        if request.method == "GET" and request.path == self.METRICS_ENDPOINT:
            return HttpResponse(
                headers={"Content-Type":
                         "text/plain; version=0.0.4; charset=utf-8"},
                body=self.federation.observability.metrics.render(),
            )
        if request.method != "POST" or request.path not in (
                self.ENDPOINT, self.STREAM_ENDPOINT):
            return HttpResponse(status=404, reason="Not Found",
                                body=Response.failure("unknown endpoint").to_json())
        try:
            return Request.from_json(request.body)
        except ReproError as exc:
            return self._bad_request(exc)

    def encode_http(self, request: HttpRequest, response: Response) -> HttpResponse:
        """``response`` as the HTTP answer to ``request`` — for a transport
        answering a request it shed before dispatching it."""
        return self._persist(request, self._http_response(response))

    def _http_response(self, response: Response) -> HttpResponse:
        """Status mapping: 200 (echoing a traced statement's trace id), 422
        for a failed request, 503 + Retry-After for a shed one — overload is
        the server's state, not the request's fault: the client backs off."""
        if response.ok:
            trace_id = response.payload.get("trace_id")
            return HttpResponse(
                headers={self.TRACE_HEADER: trace_id} if trace_id else {},
                body=response.to_json())
        if response.error_kind != "OverloadError":
            return HttpResponse(status=422, reason="Unprocessable Entity",
                                body=response.to_json())
        seconds = response.retry_after_seconds
        return HttpResponse(
            status=503, reason="Service Unavailable", body=response.to_json(),
            headers={"Retry-After": "1" if seconds is None
                     else str(max(1, math.ceil(seconds)))})

    def _bad_request(self, exc: ReproError) -> HttpResponse:
        self.statistics.add(errors=1)
        return HttpResponse(status=400, reason="Bad Request",
                            body=Response.failure(str(exc), "protocol").to_json())

    @staticmethod
    def _persist(request: HttpRequest, response: HttpResponse) -> HttpResponse:
        """Persistence is honoured on the plain endpoints: a keep-alive
        request gets a keep-alive response (HTTP/1.1 clients persist by
        default), so pooled clients reuse one connection across statements.
        Chunked streaming responses always close — their consumer may abandon
        the stream mid-body, and a closed connection is the only
        framing-safe way out."""
        if request.version.upper() == "HTTP/1.1":
            response.version = "HTTP/1.1"
        persists = response.chunks is None and request.wants_keep_alive()
        response.headers.setdefault(
            "Connection", "keep-alive" if persists else "close")
        return response

    def _http_stream(self, request: Request, tenant: Optional[str],
                     trace_id: Optional[str], session: Any) -> HttpResponse:
        """The chunked endpoint (see :meth:`_stream`): sheds answer 503,
        malformed requests 400, failed statements 422 with their error kind."""
        try:
            return HttpResponse(**self._perform(
                self.STREAM_OPERATIONS, request, tenant, trace_id, session))
        except ProtocolError as exc:
            return self._bad_request(exc)
        except Exception as exc:
            return self._http_response(self.failure(exc))

    # -- protocol-level dispatch ---------------------------------------------------------

    def handle(self, request: Request, tenant: Optional[str] = None,
               trace_id: Optional[str] = None, session: Any = None) -> Response:
        """Handle one protocol request object (transport already stripped).

        Its :attr:`OPERATIONS` row names what is checked before the handler
        runs.  Statement operations pass admission in ``Federation.open``
        (compiling ones in :meth:`_compile`), which is also the trace edge:
        it opens the root ``statement`` span
        (adopting the client-minted ``trace_id`` of the envelope or the
        ``X-Coin-Trace`` header), so admission, pipeline and execution spans
        connect into one tree.  A shed request fails with
        ``error_kind="OverloadError"`` (and a ``retry_after_seconds`` hint)
        without touching the federation.  Successful traced responses echo
        ``trace_id`` — and, once the trace is finished and sampled, the span
        tree itself — in the payload.

        ``tenant`` is the transport's fallback identity (a header);
        ``session`` the transport session the request arrived on — any object
        with a ``tenant`` attribute (the identity its handshake pinned, or
        None): the request's handles are filed under it, and it sees no
        other owner's.
        """
        try:
            return Response.success(**self._perform(
                self.OPERATIONS, request, tenant, trace_id, session))
        except Exception as exc:
            return self.failure(exc)

    def _perform(self, table: Dict[str, _Operation], request: Request,
                 tenant: Optional[str], trace_id: Optional[str],
                 session: Any) -> Dict[str, Any]:
        """Check ``request`` against its row of ``table``; run the handler."""
        self.statistics.add(requests=1)
        parameters = request.parameters
        operation = table.get(request.operation)
        if operation is None:
            raise _Refused(f"this endpoint has no {request.operation!r} "
                           f"operation; it accepts {', '.join(table)}")
        tenant = self._tenant(parameters, tenant, session)
        for name in operation.required:
            if not parameters.get(name):
                raise _Refused(f"{request.operation!r} requires a "
                               f"{name!r} parameter")
        options = (
            StatementOptions.from_parameters(parameters, ProtocolError,
                                             tenant=tenant)
            if operation.options else StatementOptions(tenant=tenant))
        return operation.handler(self, _Call(
            request.operation, parameters, options,
            request.trace_id or trace_id, session))

    @staticmethod
    def _tenant(parameters: Dict[str, Any], fallback: Optional[str],
                session: Any) -> Optional[str]:
        """Whose request this is: a session's pinned tenant admits no other
        (pooled connections never observe or bill against each other's
        identity); else the ``tenant`` parameter wins over the fallback."""
        named = parameters.get("tenant")
        pinned = session.tenant if session is not None else None
        if pinned is None:
            return named or fallback
        if named is not None and named != pinned:
            raise _Refused(f"request tenant {named!r} does not match the "
                           f"session tenant {pinned!r}")
        return pinned

    def failure(self, exc: BaseException) -> Response:
        """Count ``exc`` and map it to the failure the client sees: a shed
        keeps its back-off hint, a library error its class name."""
        if isinstance(exc, OverloadError):
            self.statistics.add(errors=1, requests_shed=1)
            return Response.failure(str(exc), "OverloadError",
                                    retry_after_seconds=exc.retry_after_seconds)
        self.statistics.add(errors=1)
        if isinstance(exc, ReproError):
            return Response.failure(
                str(exc), getattr(exc, "kind", type(exc).__name__))
        return Response.failure(f"internal error: {exc}", "internal")

    # -- operations ------------------------------------------------------------------------

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

    def _cursor_header(self, cursor: FederationCursor) -> Dict[str, Any]:
        """A streamed answer's description (``open_cursor`` / first chunk)."""
        return dict(schema_to_payload(cursor.schema),
                    **self._mediation_payload(cursor))

    def _traced(self, payload: Dict[str, Any],
                trace_id: Optional[str]) -> Dict[str, Any]:
        """Echo a finished statement's trace id and (if sampled) its tree."""
        if trace_id:
            payload["trace_id"] = trace_id
            trace = self.federation.observability.tracer.buffer.get(trace_id)
            if trace is not None:
                payload["trace"] = trace
        return payload

    def _answer(self, cursor: FederationCursor, **payload: Any) -> Dict[str, Any]:
        """Drain an eager statement's cursor — its last batch closes it,
        finishing the trace — into the materialized answer."""
        rows = cursor.fetchall()
        payload.update(
            self._mediation_payload(cursor),
            relation=dict(schema_to_payload(cursor.schema),
                          rows=rows_to_payload(rows)),
            execution=cursor.report.snapshot())
        self.statistics.add(queries=1)
        return self._traced(payload, cursor.trace_id)

    def _query(self, call: _Call) -> Dict[str, Any]:
        # ``query`` executes *now* under its own deadline: the admission wait
        # is bounded by it and the statement runs under the budget left after
        # queueing (time spent queueing must not count against sources that
        # never saw the request).
        return self._answer(self.federation.open(
            call.parameters["sql"], call.options, stream=False,
            gateway=self.gateway, trace_id=call.trace_id,
            operation=call.operation))

    def _stream(self, call: _Call) -> Dict[str, Any]:
        """The chunked endpoint's ``query``: the first chunk is the result
        description (columns, types, mediation metadata), each following
        chunk one batch of rows, and the final chunk a summary with the
        execution report — every chunk its own JSON document, framed with
        genuine ``Transfer-Encoding: chunked`` byte framing on the wire."""
        # A worker slot covers only *opening* the stream (mediation,
        # planning, first-batch dispatch); producing the chunks happens on
        # this — the consumer's — thread under a bounded streaming permit,
        # so a slow consumer never pins a worker.  The root span covers the
        # whole exchange: it finishes when the cursor closes.
        cursor = self.federation.open(
            call.parameters["sql"], call.options, gateway=self.gateway,
            trace_id=call.trace_id, operation="stream")
        with cursor:
            chunks = [json.dumps(self._cursor_header(cursor))]
            chunks.extend(json.dumps({"rows": rows_to_payload(rows)})
                          for rows in cursor.batches())
            chunks.append(json.dumps({
                "done": True,
                "row_count": cursor.rows_streamed,
                "execution": cursor.report.snapshot(),
            }))
        self.statistics.add(queries=1, rows_streamed=cursor.rows_streamed)
        return {"chunks": chunks,
                "headers": ({self.TRACE_HEADER: cursor.trace_id}
                            if cursor.trace_id else {})}

    def _compile(self, call: _Call, work: Callable[..., Any], *arguments: Any):
        """``prepare`` / ``mediate`` / ``explain``: ``work(sql, *arguments)``
        admitted and traced (nothing executes); returns (result, trace id)."""
        sql, tenant = call.parameters["sql"], call.options.tenant
        with self.federation.observability.statement_root(
                sql, call.trace_id, tenant=tenant,
                operation=call.operation) as root:
            return self.gateway.run(lambda remaining: work(sql, *arguments),
                                    tenant=tenant), root.trace_id

    def _prepare(self, call: _Call) -> Dict[str, Any]:
        # A deadline here is a property of the statement's later executions,
        # not a bound on compiling it.
        prepared, trace_id = self._compile(
            call, self.federation.compile, call.options)
        self.statistics.add(prepared_statements=1)
        return self._traced(dict(
            statement_id=self._statements.register(prepared, call.session),
            original_sql=prepared.sql,
            mediated_sql=prepared.mediated_sql,
            branch_count=prepared.plan.mediation.branch_count,
            conflicts=conflict_summary(prepared.plan.mediation),
            receiver_context=prepared.receiver_context,
            consistency=call.options.consistency,
        ), trace_id)

    def _statement(self, call: _Call):
        """The session's open prepared statement the request names."""
        statement_id = call.parameters["statement_id"]
        prepared = self._statements.get(statement_id, call.session)
        if prepared is None:
            raise _Refused(
                f"unknown or closed prepared statement {statement_id!r}")
        return prepared

    def _execute_prepared(self, call: _Call) -> Dict[str, Any]:
        cursor = self.federation.open(
            self._statement(call), call.options, stream=False,
            gateway=self.gateway, trace_id=call.trace_id,
            operation=call.operation)
        self.statistics.add(prepared_executions=1)
        return self._answer(cursor,
                            statement_id=call.parameters["statement_id"])

    def _mediate(self, call: _Call) -> Dict[str, Any]:
        result, trace_id = self._compile(
            call, self.federation.mediate_only, call.parameters.get("context"))
        return self._traced(dict(
            original_sql=result.original_sql,
            mediated_sql=result.sql,
            branch_count=result.branch_count,
            conflicts=conflict_summary(result),
            explanation=result.explain(),
        ), trace_id)

    def _explain(self, call: _Call) -> Dict[str, Any]:
        plan, trace_id = self._compile(
            call, self.federation.explain_plan, call.parameters.get("context"))
        return self._traced({"plan": plan}, trace_id)

    # -- cursors -----------------------------------------------------------------------------

    def _open_cursor(self, call: _Call) -> Dict[str, Any]:
        statement = call.parameters.get("sql")
        if bool(call.parameters.get("statement_id")) == bool(statement):
            raise _Refused(
                "'open_cursor' requires exactly one of 'sql' or 'statement_id'")
        # Permit first, then admission: an over-streamed server sheds the
        # open instead of building a cursor it cannot host.  The root span
        # outlives this request: it finishes when the cursor closes.
        cursor = self.federation.open(
            statement or self._statement(call), call.options,
            gateway=self.gateway, trace_id=call.trace_id,
            operation=call.operation)
        try:
            payload = self._cursor_header(cursor)
        except ReproError:
            cursor.close()
            raise
        payload.update(
            cursor_id=self._cursors.register(cursor, call.session),
            receiver_context=cursor.mediation.receiver_context,
        )
        self.statistics.add(cursors_opened=1)
        if cursor.trace_id:
            payload["trace_id"] = cursor.trace_id
        return payload

    def _fetch_cursor(self, call: _Call) -> Dict[str, Any]:
        cursor_id = call.parameters["cursor_id"]
        count = parse_batch_size(call.parameters.get("count"), ProtocolError)
        cursor = self._cursors.get(cursor_id, call.session)
        if cursor is None:
            raise _Refused(f"unknown or closed cursor {cursor_id!r}", "cursor")
        key, pipeline = cursor.prepared.key, self.federation.pipeline
        try:
            # Generation check, mirroring prepared statements: a catalog or
            # knowledge change since the plan was compiled would splice pre-
            # and post-change rows into one answer, so the cursor dies instead.
            if (key.catalog_generation != pipeline.catalog_generation
                    or key.knowledge_generation != pipeline.knowledge_generation):
                raise _Refused(
                    f"cursor {cursor_id!r} invalidated by a catalog or "
                    "knowledge change; re-issue the query", "cursor")
            rows = cursor.fetchmany(count)
            done = cursor.closed
        except ReproError:
            # Invalidation or a mid-stream failure poisons the cursor: release
            # its resources and let the error surface to the client.
            self._cursors.discard(cursor_id, call.session)
            raise
        self.statistics.add(cursor_fetches=1, rows_streamed=len(rows))
        payload: Dict[str, Any] = {
            "cursor_id": cursor_id,
            "rows": rows_to_payload(rows),
            "done": done,
        }
        if done:
            # The cursor closed on its last batch, which finished the trace:
            # ship report and (when sampling kept it) tree with that batch.
            self._cursors.discard(cursor_id, call.session)
            execution = cursor.report.snapshot()
            payload["execution"] = execution
            self._traced(payload, execution.get("trace_id"))
        return payload

    @staticmethod
    def _discard(registry: HandleRegistry, call: _Call, key: str) -> Dict[str, Any]:
        # Idempotent: closing an unknown/already-closed handle succeeds.
        handle_id = call.parameters[key]
        return {key: handle_id,
                "closed": registry.discard(handle_id, call.session)}

    def _metrics(self, call: _Call) -> Dict[str, Any]:
        registry = self.federation.observability.metrics
        return {"metrics": registry.snapshot(), "exposition": registry.render()}

    #: The protocol, one row per operation: what :meth:`handle` checks, and
    #: what the event loop counts against the gateway's admission capacity.
    OPERATIONS: Dict[str, _Operation] = {
        "list_sources": _Operation(lambda self, call: {
            "sources": self.federation.list_sources()}),
        "list_relations": _Operation(lambda self, call: {
            "relations": self.federation.list_relations(
                call.parameters.get("source"))}),
        "describe": _Operation(lambda self, call: {
            "relation": call.parameters["relation"],
            "attributes": self.federation.describe_relation(
                call.parameters["relation"])}, ("relation",)),
        "contexts": _Operation(lambda self, call: {
            "contexts": self.federation.receiver_contexts}),
        "query": _Operation(_query, ("sql",), admitted=True, options=True),
        "mediate": _Operation(_mediate, ("sql",), admitted=True),
        "explain": _Operation(_explain, ("sql",), admitted=True),
        "prepare": _Operation(_prepare, ("sql",), admitted=True, options=True),
        "execute_prepared": _Operation(_execute_prepared, ("statement_id",),
                                       admitted=True),
        "close_prepared": _Operation(lambda self, call: self._discard(
            self._statements, call, "statement_id"), ("statement_id",)),
        "open_cursor": _Operation(_open_cursor, admitted=True, options=True),
        "fetch_cursor": _Operation(_fetch_cursor, ("cursor_id",)),
        "close_cursor": _Operation(lambda self, call: self._discard(
            self._cursors, call, "cursor_id"), ("cursor_id",)),
        "status": _Operation(lambda self, call: self.snapshot()),
        "metrics": _Operation(_metrics),
    }
    ADMITTED_OPERATIONS = frozenset(
        name for name, row in OPERATIONS.items() if row.admitted)
    #: What ``STREAM_ENDPOINT`` accepts.
    STREAM_OPERATIONS = {
        "query": _Operation(_stream, ("sql",), admitted=True, options=True)}

    # -- status and shutdown --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Server statistics with the ``server_load`` admission block and
        per-source health folded in — what operators watch under overload."""
        return dict(
            self.statistics.snapshot(),
            server_load=self.gateway.snapshot(),
            source_health=self.federation.engine.source_health(),
            observability=self.federation.observability.snapshot(),
            open_prepared_statements=len(self._statements),
            open_cursors=len(self._cursors))

    def release(self, *sessions: Any) -> None:
        """Close every cursor and prepared statement ``sessions`` still own
        (none named: anyone's): the cursors give back their stream permits
        and temp-store handles as a client close would."""
        self._cursors.release(*sessions)
        self._statements.release(*sessions)

    def shutdown(self, timeout_seconds: Optional[float] = None) -> bool:
        """Gracefully drain: shed new arrivals, let admitted work finish,
        then release every registered handle.  Returns True once idle."""
        self.gateway.begin_drain()
        # Registered cursors are discarded *before* awaiting the drain: they
        # hold streaming permits the gateway counts as in-flight work.
        self.release()
        return self.gateway.await_drain(timeout_seconds)
