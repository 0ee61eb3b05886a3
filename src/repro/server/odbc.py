"""An ODBC-flavoured client driver (DB-API style) over the HTTP tunnel.

The prototype ships "an ODBC driver which gives access to the mediation
services to any Windows95 and WindowsNT ODBC compliant applications such as
Microsoft Excel or Microsoft Access".  The closest purely-Python equivalent is
a driver following the shape of PEP 249 (DB-API 2.0): ``connect()`` returns a
:class:`Connection`, connections produce :class:`Cursor` objects with
``execute`` / ``fetchone`` / ``fetchall`` / ``description``, and everything a
cursor does travels through the same protocol the HTML QBE front end uses.

Extensions beyond DB-API (all optional keyword paths):

* ``cursor.execute(sql, context=...)`` — run the query in another receiver
  context;
* ``cursor.execute(sql, mediate=False)`` — skip mediation (naive answers);
* ``cursor.mediated_sql`` / ``cursor.conflicts`` — inspect what the mediator
  did to the last query;
* ``connection.prepare(sql, ...)`` — compile a statement once server-side;
  the returned :class:`PreparedStatement` executes many times without
  re-mediating or re-planning, and ``close()`` releases the server handle;
* ``connection.catalog()`` helpers for schema discovery;
* ``connect(..., auto_retry=True)`` — bounded client-side retries of
  retriable errors (overload sheds), honouring the server's
  ``retry_after_seconds`` hint with seeded jitter (see :class:`RetryPolicy`);
* ``connection.explain(sql)`` — the server's plan rendering, including
  per-operator estimated rows and their provenance (feedback vs defaults);
* ``connect(async_server=..., transport="native"|"http")`` — bind the
  connection to an event-loop :class:`~repro.server.aio.AsyncMediationServer`
  over a **persistent socket** (native framed protocol or HTTP/1.1
  keep-alive) instead of the per-request string tunnel; many statements ride
  one connection, and :class:`ConnectionPool` leases such connections across
  application threads.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ClientError
from repro.federation import Federation
from repro.obs.metrics import CounterSet
from repro.server.aio import MAGIC, FrameParser, encode_frame
from repro.server.http import (
    CHANNEL_COUNTERS,
    HttpRequest,
    HttpResponse,
    HttpWireParser,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    Request,
    Response,
    relation_from_payload,
)
from repro.server.server import MediationServer

#: DB-API module-level attributes.
apilevel = "2.0"
threadsafety = 0
paramstyle = "pyformat"


@dataclass
class RetryPolicy:
    """How a connection retries retriable (overload-shed) requests.

    An :class:`~repro.errors.OverloadError` shed is always safe to retry —
    nothing executed server-side — and carries ``retry_after_seconds``, which
    the retry loop honours; ``backoff_seconds`` (doubling per attempt, capped
    at ``max_backoff_seconds``) covers sheds without a hint.  Jitter is drawn
    from a seeded generator so retry storms de-synchronize deterministically
    under test.  ``sleep`` is injectable for tests.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    max_backoff_seconds: float = 2.0
    #: Fractional jitter added on top of each delay (0.25 = up to +25%).
    jitter: float = 0.25
    seed: Optional[int] = None
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ClientError(
                f"auto_retry needs at least 1 attempt, got {self.max_attempts}"
            )
        self._random = random.Random(self.seed)

    def delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if retry_after is not None and retry_after > 0:
            base = float(retry_after)
        else:
            base = min(self.backoff_seconds * (2 ** (attempt - 1)),
                       self.max_backoff_seconds)
        return base * (1.0 + self.jitter * self._random.random())


def _retry_policy(auto_retry: Union[bool, int, RetryPolicy, None]) -> Optional[RetryPolicy]:
    if auto_retry is None or auto_retry is False:
        return None
    if auto_retry is True:
        return RetryPolicy()
    if isinstance(auto_retry, RetryPolicy):
        return auto_retry
    if isinstance(auto_retry, int):
        return RetryPolicy(max_attempts=auto_retry)
    raise ClientError(
        f"auto_retry must be a bool, an attempt count or a RetryPolicy, "
        f"got {type(auto_retry).__name__}"
    )


def connect(federation: Optional[Federation] = None, server: Optional[MediationServer] = None,
            context: Optional[str] = None, tenant: Optional[str] = None,
            auto_retry: Union[bool, int, RetryPolicy, None] = False,
            async_server: Optional[Any] = None,
            transport: str = "native") -> "Connection":
    """Open a connection to a mediation server.

    Either an existing :class:`MediationServer` or a :class:`Federation` (from
    which a server is created) must be given — there being no real network,
    "connecting" means binding an HTTP channel to the server in process.
    ``tenant`` names the receiver/session identity the server's admission
    gateway accounts quotas against; every request of this connection
    carries it.  ``auto_retry`` opts the connection into bounded client-side
    retries of retriable errors (overload sheds): ``True`` for the default
    :class:`RetryPolicy`, an integer for a custom attempt bound, or a policy
    instance for full control.

    ``async_server`` binds the connection to an event-loop
    :class:`~repro.server.aio.AsyncMediationServer` instead: the connection
    opens **one persistent socket** (a real OS socket served by the loop)
    and reuses it across statements.  ``transport`` selects the wire
    protocol on that socket — ``"native"`` (length-prefixed COIN/1 frames
    with a session handshake) or ``"http"`` (HTTP/1.1 keep-alive).
    """
    channel = None
    if async_server is not None:
        channels = {"native": NativeProtocolChannel, "http": PooledHttpChannel}
        if transport not in channels:
            raise ClientError(
                f"unknown transport {transport!r}; use 'native' or 'http'")
        server = async_server.server
        channel = channels[transport](async_server.connect_socket, tenant=tenant)
    elif server is None:
        if federation is None:
            raise ClientError("connect() needs a federation or a server")
        server = MediationServer(federation)
    return Connection(server, context, tenant=tenant,
                      retry_policy=_retry_policy(auto_retry), channel=channel)


class Connection:
    """A DB-API style connection bound to one receiver context."""

    #: Operations that execute (or compile) a statement: the driver mints a
    #: trace id for each, carried on the protocol envelope and the
    #: ``X-Coin-Trace`` header, so the server's span tree is named by the
    #: edge that issued the statement.
    TRACED_OPERATIONS = MediationServer.ADMITTED_OPERATIONS

    def __init__(self, server: MediationServer, context: Optional[str] = None,
                 tenant: Optional[str] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 channel: Optional[Any] = None):
        self._server = server
        # The default per-request tunnel, or a persistent socket channel
        # bound to an event-loop server: HTTP channels share ``post``, the
        # native channel carries protocol messages as they are (``call``).
        self._channel = channel if channel is not None else server.channel()
        self.context = context
        self.tenant = tenant
        self.retry_policy = retry_policy
        #: Retriable errors this connection absorbed by retrying.
        self.auto_retries = 0
        self._trace_counter = itertools.count(1)
        #: Trace id of the most recently issued statement (even when the
        #: server runs untraced — the id is minted client-side).
        self.last_trace_id: Optional[str] = None

    # -- DB-API surface -----------------------------------------------------------

    def cursor(self) -> "Cursor":
        self._ensure_open()
        return Cursor(self)

    def close(self) -> None:
        channel, self._channel = self._channel, None
        if channel is not None and hasattr(channel, "close"):
            channel.close()

    def commit(self) -> None:
        """Provided for DB-API compatibility; the prototype is read-only."""
        self._ensure_open()

    def rollback(self) -> None:
        self._ensure_open()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- catalog helpers -------------------------------------------------------------

    def sources(self) -> List[str]:
        return self._call("list_sources")["sources"]

    def relations(self, source: Optional[str] = None) -> List[str]:
        return self._call("list_relations", source=source)["relations"]

    def describe(self, relation: str) -> List[Dict[str, Any]]:
        return self._call("describe", relation=relation)["attributes"]

    def contexts(self) -> List[str]:
        return self._call("contexts")["contexts"]

    # -- prepared statements ----------------------------------------------------------

    def prepare(self, sql: str, context: Optional[str] = None,
                mediate: bool = True,
                consistency: str = "raw",
                timeout_seconds: Optional[float] = None,
                on_source_error: Optional[str] = None) -> "PreparedStatement":
        """Compile a statement once server-side for repeated execution.

        ``consistency`` pins the statement's answer mode (``"raw"``,
        ``"certain"`` or ``"possible"``) for every later execution;
        ``timeout_seconds`` and ``on_source_error`` likewise pin the
        statement's deadline and source-failure policy.
        """
        payload = self._call(
            "prepare",
            sql=sql,
            context=context or self.context,
            mediate=mediate,
            consistency=consistency,
            timeout_seconds=timeout_seconds,
            on_source_error=on_source_error,
        )
        return PreparedStatement(self, payload)

    # -- plumbing ---------------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._channel is None:
            raise ClientError("connection is closed")

    def _call(self, operation: str, **parameters: Any) -> Dict[str, Any]:
        policy = self.retry_policy
        for attempt in itertools.count(1):
            try:
                return self._call_once(operation, parameters)
            except ClientError as error:
                if (policy is None or attempt >= policy.max_attempts
                        or not getattr(error, "retriable", False)):
                    raise
                self.auto_retries += 1
                policy.sleep(policy.delay(attempt, error.retry_after_seconds))

    def _call_once(self, operation: str, parameters: Dict[str, Any]) -> Dict[str, Any]:
        self._ensure_open()
        cleaned = {name: value for name, value in parameters.items() if value is not None}
        if self.tenant is not None:
            cleaned.setdefault("tenant", self.tenant)
        request = Request(operation=operation, parameters=cleaned)
        headers: Optional[Dict[str, str]] = None
        if operation in self.TRACED_OPERATIONS:
            request.trace_id = self.last_trace_id = (
                f"odbc{next(self._trace_counter):04x}"
                f"{random.getrandbits(40):010x}")
            headers = {MediationServer.TRACE_HEADER: request.trace_id}
        if isinstance(self._channel, NativeProtocolChannel):
            response = self._channel.call(request)
        else:
            response = Response.from_json(self._channel.post(
                MediationServer.ENDPOINT, request.to_json(),
                headers=headers).body)
        if not response.ok:
            error = ClientError(f"{response.error_kind}: {response.error}")
            # Structured error metadata so callers can build retry loops
            # without parsing messages: an overload shed is always safe to
            # retry (nothing executed) after ``retry_after_seconds``.
            error.error_kind = response.error_kind
            error.retriable = response.error_kind == "OverloadError"
            error.retry_after_seconds = response.retry_after_seconds
            raise error
        return response.payload

    def explain(self, sql: str, context: Optional[str] = None) -> str:
        """The server's plan rendering for ``sql``: join order, source
        requests, and per-operator estimated rows with their provenance
        (runtime feedback vs textbook defaults)."""
        return self._call("explain", sql=sql, context=context or self.context)["plan"]

    def status(self) -> Dict[str, Any]:
        """Server statistics, including the ``server_load`` block."""
        return self._call("status")

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics registry: structured snapshot plus the
        Prometheus text exposition under the ``exposition`` key."""
        return self._call("metrics")


class Cursor:
    """A DB-API style cursor issuing mediated queries.

    Two execution modes share one fetching surface:

    * the default materialized mode ships the whole result in the ``query``
      response (the historical behaviour);
    * ``execute(sql, stream=True)`` opens a **server-side cursor** instead:
      the response carries only the description, and ``fetchone`` /
      ``fetchmany`` / ``fetchall`` pull row batches over ``fetch_cursor`` on
      demand — first rows arrive while the server is still fetching slower
      sources, and ``close()`` releases the server cursor (cancelling
      outstanding source round trips) without draining it.
    """

    arraysize = 1

    #: Rows pulled per ``fetch_cursor`` round trip in streaming mode.
    DEFAULT_STREAM_BATCH = 128

    def __init__(self, connection: Connection):
        self.connection = connection
        self._rows: List[Tuple[Any, ...]] = []
        self._position = 0
        self.description: Optional[List[Tuple]] = None
        self.rowcount = -1
        #: Mediation metadata of the last execute().
        self.mediated_sql: Optional[str] = None
        self.conflicts: List[str] = []
        self.column_labels: List[str] = []
        #: Execution-report snapshot of the last execute() — materialized mode
        #: fills it from the query response, streaming mode from the final
        #: batch; its ``resilience`` block labels degraded (partial) answers.
        self.execution: Optional[Dict[str, Any]] = None
        #: Trace id of the last execute(), and — when the server traced and
        #: sampled the statement — the finished span tree itself (a nested
        #: dict; streaming mode delivers it with the final batch).
        self.trace_id: Optional[str] = None
        self.trace: Optional[Dict[str, Any]] = None
        #: Streaming state: the open server cursor (None in materialized mode
        #: and once the stream is drained).
        self._cursor_id: Optional[str] = None
        self._batch_size = self.DEFAULT_STREAM_BATCH
        #: Rows already consumed and trimmed from the buffer (streaming mode).
        self._stream_consumed = 0

    # -- execution -----------------------------------------------------------------

    def execute(self, sql: str, parameters: Optional[Dict[str, Any]] = None,
                context: Optional[str] = None, mediate: bool = True,
                stream: bool = False, batch_size: Optional[int] = None,
                consistency: str = "raw",
                timeout_seconds: Optional[float] = None,
                on_source_error: Optional[str] = None) -> "Cursor":
        """Execute a query; ``parameters`` are pyformat-substituted client-side.

        ``consistency="certain"``/``"possible"`` answers under the declared
        integrity constraints instead of over the raw instances; the
        resulting execution report (``query`` responses) carries the
        ``consistency`` block describing what the rewrite/fallback did.
        ``timeout_seconds`` bounds the statement's server-side wall clock
        (expiry raises a ``DeadlineExceededError``-flavoured client error);
        ``on_source_error="partial"`` answers from surviving branches when a
        source stays dead, with the dropped branches recorded in the
        execution report's ``resilience`` block.
        """
        if parameters:
            sql = sql % {name: _quote(value) for name, value in parameters.items()}
        return self._run(
            "query", stream, batch_size,
            sql=sql,
            context=context or self.connection.context,
            mediate=mediate,
            consistency=consistency,
            timeout_seconds=timeout_seconds,
            on_source_error=on_source_error,
        )

    def _run(self, operation: str, stream: bool, batch_size: Optional[int],
             **parameters: Any) -> "Cursor":
        """Issue a statement — materialized under ``operation``, or as a
        server-side cursor over the same parameters — and bind its answer:
        the whole relation, or only the description (execution report and
        finished trace then arrive with the final ``fetch_cursor`` batch)."""
        payload = self.connection._call(
            "open_cursor" if stream else operation, **parameters)
        self._release_stream()
        self._cursor_id = payload.get("cursor_id")
        self._stream_consumed = 0
        self._batch_size = batch_size or self.DEFAULT_STREAM_BATCH
        self._position = 0
        if self._cursor_id is None:
            relation = relation_from_payload(payload["relation"])
            self._rows = [tuple(row) for row in relation.rows]
            self.rowcount = len(self._rows)
            columns = [(attribute.name, attribute.type.value)
                       for attribute in relation.schema]
        else:
            self._rows = []
            self.rowcount = -1
            columns = list(zip(payload["columns"], payload["types"]))
        self.description = [(name, type_name, None, None, None, None, None)
                            for name, type_name in columns]
        self.mediated_sql = payload.get("mediated_sql")
        self.conflicts = payload.get("conflicts", [])
        self.column_labels = payload.get("column_labels", [])
        self.execution = payload.get("execution")
        self.trace_id = payload.get("trace_id")
        self.trace = payload.get("trace")
        return self

    def executemany(self, sql: str, seq_of_parameters: Sequence[Dict[str, Any]]) -> "Cursor":
        for parameters in seq_of_parameters:
            self.execute(sql, parameters)
        return self

    # -- fetching --------------------------------------------------------------------

    def _buffered(self) -> int:
        return len(self._rows) - self._position

    def _fill(self, needed: Optional[int]) -> None:
        """Pull server batches until ``needed`` rows are buffered (None = all).

        The consumed prefix is trimmed before each pull, so client memory in
        streaming mode is bounded by the unconsumed tail (typically one
        batch), not the full result — the point of streaming in the first
        place.
        """
        while self._cursor_id is not None and (
                needed is None or self._buffered() < needed):
            if self._position:
                self._stream_consumed += self._position
                del self._rows[: self._position]
                self._position = 0
            count = self._batch_size
            if needed is not None:
                count = max(count, needed - self._buffered())
            payload = self.connection._call(
                "fetch_cursor", cursor_id=self._cursor_id, count=count
            )
            self._rows.extend(tuple(row) for row in payload.get("rows", []))
            if payload.get("done"):
                # The server discards exhausted cursors itself.
                self._cursor_id = None
                self.rowcount = self._stream_consumed + len(self._rows)
                self.execution = payload.get("execution")
                self.trace_id = payload.get("trace_id") or self.trace_id
                self.trace = payload.get("trace")

    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        count = size if size is not None else self.arraysize
        self._fill(count)
        rows = self._rows[self._position : self._position + count]
        self._position += len(rows)
        return rows

    def fetchall(self) -> List[Tuple[Any, ...]]:
        self._fill(None)
        rows = self._rows[self._position :]
        self._position = len(self._rows)
        return rows

    def close(self) -> None:
        """Release buffered rows and any open server cursor (idempotent)."""
        self._release_stream()
        self._rows = []
        self.description = None

    def _release_stream(self) -> None:
        if self._cursor_id is None:
            return
        cursor_id, self._cursor_id = self._cursor_id, None
        try:
            self.connection._call("close_cursor", cursor_id=cursor_id)
        except ClientError:
            # Server-side close is idempotent; a failed close (evicted
            # handle, dropped connection) leaves nothing to release.
            pass

    def __iter__(self):
        return iter(self.fetchone, None)


class PreparedStatement:
    """A server-side compiled statement: execute many, mediate/plan never.

    Mirrors the prepared-statement shape of ODBC drivers: the server keeps
    the mediated, planned form under ``statement_id``; each ``execute()``
    ships only the handle and returns a fresh populated :class:`Cursor`.
    """

    def __init__(self, connection: Connection, payload: Dict[str, Any]):
        self.connection = connection
        self.statement_id: Optional[str] = payload["statement_id"]
        self.original_sql: str = payload.get("original_sql", "")
        self.mediated_sql: str = payload.get("mediated_sql", "")
        self.branch_count: int = payload.get("branch_count", 0)
        self.conflicts: List[str] = payload.get("conflicts", [])
        self.receiver_context: Optional[str] = payload.get("receiver_context")

    def execute(self, stream: bool = False,
                batch_size: Optional[int] = None) -> Cursor:
        """Run the prepared statement; returns a populated cursor.

        ``stream=True`` opens a server-side cursor on the prepared plan
        instead of shipping the whole result: the returned cursor pulls
        batches on demand exactly like ``Cursor.execute(..., stream=True)``.
        """
        if self.statement_id is None:
            raise ClientError("prepared statement is closed")
        return Cursor(self.connection)._run(
            "execute_prepared", stream, batch_size,
            statement_id=self.statement_id)

    def close(self) -> None:
        """Release the server-side handle (idempotent)."""
        if self.statement_id is None:
            return
        self.connection._call("close_prepared", statement_id=self.statement_id)
        self.statement_id = None

    def __enter__(self) -> "PreparedStatement":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _PooledSocketChannel:
    """Shared plumbing of the persistent-socket client channels.

    One channel owns one OS socket to an event-loop server and reuses it
    across requests (that is the whole point: no per-statement connection
    setup).  If a request fails on a **reused** socket before completing —
    typically because the server's idle reaper closed the session — the
    channel transparently reconnects once and replays; nothing executed
    server-side, so the replay is safe.  A failure on a *fresh* socket is a
    real error and propagates.
    """

    #: The protocol's incremental wire parser (one instance per socket).
    PARSER: Callable[[], Any]

    def __init__(self, connector: Callable[[], Any],
                 tenant: Optional[str] = None, timeout: float = 30.0):
        self._connector = connector
        self._tenant = tenant
        self._timeout = timeout
        self._sock: Optional[Any] = None
        self._parser = self.PARSER()
        self.statistics = CounterSet(CHANNEL_COUNTERS)

    # -- subclass hooks --------------------------------------------------------------

    def _handshake(self) -> None:
        """Wire-protocol setup after the socket opens."""

    def _exchange(self, *message: Any) -> Any:
        """Send one message, receive its response."""
        raise NotImplementedError

    # -- channel surface -------------------------------------------------------------

    def call(self, *message: Any) -> Any:
        """One message out, its response back (reconnecting as above)."""
        while True:
            reused = self._sock is not None
            if not reused:
                self._open()
            try:
                response = self._exchange(*message)
            except (OSError, EOFError) as exc:
                self.close()
                if reused:
                    # The server reaped the idle connection between
                    # statements; reconnect once (a fresh socket is never
                    # ``reused``) and replay.
                    continue
                error = ClientError(f"connection lost: {exc}")
                error.error_kind = "ConnectionError"
                error.retriable = False
                raise error from exc
            self.statistics.add(round_trips=1,
                                requests_reusing_connection=int(reused))
            return response

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        self._parser = self.PARSER()

    def _open(self) -> None:
        self._sock = self._connector()
        self._sock.settimeout(self._timeout)
        self.statistics.add(connections_opened=1)
        try:
            self._handshake()
        except BaseException:
            self.close()
            raise

    def _send(self, data: bytes) -> None:
        self._sock.sendall(data)
        self.statistics.add(bytes_sent=len(data))

    def _receive(self, pop: Callable[[], Any]) -> Any:
        """The next complete message ``pop`` finds in the parser's buffer."""
        while True:
            message = pop()
            if message is not None:
                return message
            data = self._sock.recv(65536)
            if not data:
                raise EOFError("server closed the connection")
            self.statistics.add(bytes_received=len(data))
            self._parser.feed(data)


class NativeProtocolChannel(_PooledSocketChannel):
    """Client side of the framed native protocol (``COIN/1``).

    On connect it sends the magic preamble plus a hello frame carrying the
    tenant, and the server replies with a session — prepared statements and
    cursors opened on this channel live exactly as long as the session does.
    Each request is then one length-prefixed JSON frame embedding the
    protocol request as it is, and each response frame embeds the protocol
    response: a message is serialized once and parsed once per direction.
    """

    PARSER = FrameParser
    _next_request_id = 0

    def _handshake(self) -> None:
        self._send(MAGIC)
        self._send_frame(json.dumps({
            "hello": {"tenant": self._tenant, "protocol": PROTOCOL_VERSION},
        }))
        reply = json.loads(self._recv_frame())
        if not reply.get("ok"):
            raise ClientError(f"native handshake refused: {reply!r}")

    def _exchange(self, request: Request) -> Response:
        self._next_request_id += 1
        self._send_frame(json.dumps({
            "id": self._next_request_id,
            "request": request.to_dict(),
        }))
        return Response.from_dict(json.loads(self._recv_frame()).get("response"))

    def close(self) -> None:
        if self._sock is not None:
            try:
                # Polite close: lets the server retire the session without
                # waiting for EOF.  Best effort only.
                self._send_frame(json.dumps({"close": True}))
            except OSError:
                pass
        super().close()

    def _send_frame(self, text: str) -> None:
        self._send(encode_frame(text.encode("utf-8")))

    def _recv_frame(self) -> bytes:
        return self._receive(self._parser.next_frame)


class PooledHttpChannel(_PooledSocketChannel):
    """HTTP/1.1 keep-alive client over one persistent socket.

    Requests go out as HTTP/1.1 (persistent by default); responses are
    parsed incrementally off the socket by a per-connection
    :class:`HttpWireParser`.  If either side asks to close, the socket is
    dropped and the next request reconnects.
    """

    PARSER = HttpWireParser

    def post(self, path: str, body: str,
             headers: Optional[Dict[str, str]] = None) -> HttpResponse:
        return self.call(path, body, headers)

    def _exchange(self, path: str, body: str,
                  headers: Optional[Dict[str, str]]) -> HttpResponse:
        send_headers = dict(headers or {})
        if self._tenant is not None:
            send_headers.setdefault(MediationServer.TENANT_HEADER, self._tenant)
        request = HttpRequest(method="POST", path=path, headers=send_headers,
                              body=body, version="HTTP/1.1")
        self._send(request.serialize().encode("utf-8"))
        response = self._receive(self._parser.next_response)
        if not (request.wants_keep_alive() and response.wants_keep_alive()):
            self.close()
        return response


class ConnectionPool:
    """A bounded pool of reusable connections, leased across threads.

    ``factory`` opens one connection — e.g. ``lambda: connect(
    async_server=aio, transport="native", tenant="acme")``.  Connections are
    created lazily up to ``size``, handed out LIFO (the warmest connection,
    whose socket and server session are most recently used, goes first), and
    returned on :meth:`release` or when the :meth:`connection` context
    manager exits.  When all ``size`` connections are leased, acquirers
    block up to ``timeout_seconds``.
    """

    def __init__(self, factory: Callable[[], Connection], size: int = 8,
                 timeout_seconds: float = 30.0):
        if size < 1:
            raise ClientError(f"pool size must be at least 1, got {size}")
        self._factory = factory
        self._size = size
        self._timeout = timeout_seconds
        self._idle: List[Connection] = []
        self._condition = threading.Condition(threading.Lock())
        self._created = 0
        self._closed = False
        self.leases = 0
        self.lease_waits = 0

    def acquire(self) -> Connection:
        deadline = time.monotonic() + self._timeout
        waited = False
        with self._condition:
            while True:
                if self._closed:
                    raise ClientError("connection pool is closed")
                if self._idle:
                    connection: Optional[Connection] = self._idle.pop()
                    break
                if self._created < self._size:
                    self._created += 1
                    connection = None  # create outside the lock
                    break
                if not waited:
                    waited = True
                    self.lease_waits += 1
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClientError(
                        f"connection pool exhausted: all {self._size} "
                        f"connections leased for {self._timeout:.1f}s")
                self._condition.wait(remaining)
            self.leases += 1
        if connection is None:
            try:
                connection = self._factory()
            except BaseException:
                with self._condition:
                    self._created -= 1
                    self._condition.notify()
                raise
        return connection

    def release(self, connection: Connection) -> None:
        with self._condition:
            if not self._closed:
                self._idle.append(connection)
                self._condition.notify()
                return
        connection.close()

    @contextmanager
    def connection(self):
        connection = self.acquire()
        try:
            yield connection
        finally:
            self.release(connection)

    def close(self) -> None:
        with self._condition:
            self._closed = True
            idle, self._idle = self._idle, []
            self._condition.notify_all()
        for connection in idle:
            connection.close()

    def snapshot(self) -> Dict[str, Any]:
        with self._condition:
            return {
                "size": self._size,
                "created": self._created,
                "idle": len(self._idle),
                "leased": self._created - len(self._idle),
                "leases": self.leases,
                "lease_waits": self.lease_waits,
                "closed": self._closed,
            }


def _quote(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return str(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
