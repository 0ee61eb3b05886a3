"""Event-loop serving transport: connection multiplexing + session registry.

The thread-per-call transport (:class:`~repro.server.server.MediationServer`
driven directly by caller threads) caps concurrency at the thread count long
before the admission gateway does: hundreds of *idle* keep-alive client
connections would each pin a thread doing nothing but waiting for the next
statement.  This module multiplexes all of them onto **one** asyncio event
loop:

* :class:`AsyncMediationServer` runs a private event loop in a dedicated
  thread.  Clients "connect" over a real OS ``socketpair`` — byte framing,
  partial reads, keep-alive and EOF semantics are all genuine — and the loop
  parses/frames requests asynchronously while they trickle in.
* Two wire protocols share the loop, distinguished by the first bytes: the
  **native protocol** (length-prefixed JSON frames under a ``COIN/1`` magic,
  with an explicit hello/session handshake) and **HTTP/1.1 keep-alive**
  (persistent connections on the plain endpoints, chunked streaming on
  ``/coin/api/stream``).
* The synchronous engine stays untouched: admitted statements are handed to
  a bounded worker pool (``gateway.admission_capacity`` threads plus slack
  for un-gated cursor fetches) where they run through the *same*
  ``MediationServer.handle`` — answers are digest-identical to the threaded
  transport by construction.  The loop sheds what the pool cannot hold via
  :meth:`~repro.server.gateway.AdmissionGateway.shed_at_transport`, so the
  PR 7 overload contract (retriable sheds, Retry-After, bounded queue wait)
  reads the same from either front end.
* Every connection is a :class:`Session`: the tenant pinned at its handshake
  and the owner key the server files the connection's prepared statements
  and cursors under.  Handles die with their session: a client disconnect,
  an idle timeout (reaping) or a drain releases them — cursors with their
  streaming permits and temp-store handles.  One session can never execute
  or fetch another session's handles.
* The loop owns bytes, not HTTP: an HTTP request goes through the server's
  one codec (``MediationServer.handle_http``), so no status, header or
  keep-alive rule can differ from the in-process tunnel, and a native frame
  is one JSON document each way.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Union

from repro.errors import ClientError, OverloadError, ProtocolError, ReproError
from repro.federation import Federation
from repro.obs.metrics import CounterSet
from repro.server.http import HttpWireParser, header
from repro.server.protocol import PROTOCOL_VERSION, Request, Response
from repro.server.server import MediationServer

__all__ = [
    "MAGIC",
    "FrameParser",
    "encode_frame",
    "AsyncServerConfig",
    "Session",
    "SessionRegistry",
    "AsyncMediationServer",
]

#: Preamble a native-protocol client sends right after connecting; anything
#: else is treated as the start of an HTTP request.
MAGIC = b"COIN/1\n"

#: Upper bound on one native frame (defensive: a corrupt length prefix must
#: not make the server buffer gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds a fresh connection gets to complete its handshake (magic + hello
#: frame, or the first HTTP request line).
HANDSHAKE_TIMEOUT_SECONDS = 5.0

#: Worker threads beyond the gateway's admission capacity, serving the
#: un-gated operations (cursor fetch/close, dictionary lookups) so they
#: cannot starve behind admitted statements.
EXECUTOR_SLACK = 4

#: Seconds ``AsyncMediationServer.shutdown()`` drains by default.
DRAIN_TIMEOUT_SECONDS = 30.0


def encode_frame(payload: bytes) -> bytes:
    """Frame ``payload`` as ``b"<decimal length>\\n<payload>"``."""
    return b"%d\n%s" % (len(payload), payload)


class FrameParser:
    """Incremental parser for length-prefixed native-protocol frames.

    Mirrors :class:`~repro.server.http.HttpWireParser`: one parser per
    connection, one reused ``bytearray`` buffer, complete frames popped off
    the front.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer += data

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def next_frame(self) -> Optional[bytes]:
        newline = self._buffer.find(b"\n")
        if newline < 0:
            if len(self._buffer) > 20:
                raise ProtocolError("malformed frame: no length prefix")
            return None
        prefix = bytes(self._buffer[:newline])
        try:
            length = int(prefix)
        except ValueError as exc:
            raise ProtocolError(f"malformed frame length {prefix!r}") from exc
        if length < 0 or length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} out of bounds")
        end = newline + 1 + length
        if len(self._buffer) < end:
            return None
        frame = bytes(self._buffer[newline + 1:end])
        del self._buffer[:end]
        return frame


@dataclass
class AsyncServerConfig:
    """The event-loop transport's two knobs (its fixed timings and worker
    slack are the module constants above)."""

    #: Concurrently open connections the loop accepts; the excess is refused
    #: at connect time (the client sees a retriable ClientError).
    max_connections: int = 1024
    #: Seconds a connection (and therefore its session) may sit idle between
    #: requests before the reaper closes it, releasing the session's cursors,
    #: streaming permits and temp-store handles.
    idle_timeout_seconds: float = 30.0


@dataclass(eq=False)
class Session:
    """Per-connection server-side state: the pinned tenant, and the owner
    key of the connection's handles.

    The tenant is pinned at the handshake (native hello or first HTTP
    request): the server rejects later requests carrying a *different*
    tenant, so pooled client connections can never observe — or bill
    against — each other's identity.  The server files the handles a
    session creates under the session itself.
    """

    session_id: str
    tenant: Optional[str] = None


#: (field, kind, exported series, help) — the session registry's totals, in
#: the order its snapshot lists them after ``open``.
SESSION_COUNTERS = (
    ("opened", "sum", "aio_sessions_opened_total",
     "Native-protocol sessions opened over the transport's lifetime."),
    ("closed", "sum", None, ""),
    ("reaped_idle", "sum", "aio_sessions_reaped_total",
     "Idle sessions closed by the reaper."),
)

#: The transport's own totals and peaks.
AIO_COUNTERS = (
    ("connections_peak", "peak", None, ""),
    ("connections_opened", "sum", "aio_connections_opened_total",
     "Sockets the event-loop transport accepted."),
    ("connections_refused", "sum", "aio_connections_refused_total",
     "Sockets refused at the connection cap."),
    ("requests_total", "sum", "aio_requests_total",
     "Requests the event-loop transport dispatched."),
    ("loop_sheds", "sum", "aio_loop_sheds_total",
     "Requests shed loop-side at admission capacity."),
    ("admitted_inflight_peak", "peak", None, ""),
)


class SessionRegistry:
    """Tracks open sessions and releases their handles on close.

    Thread-safe: the event loop opens/accounts sessions, while shutdown (a
    foreign thread) may force-close the survivors.
    """

    def __init__(self, server: MediationServer) -> None:
        self._server = server
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._next_id = 0
        #: Moved under ``_lock``, so :meth:`snapshot` is point-in-time.
        self.counters = CounterSet(SESSION_COUNTERS)

    def open(self) -> Session:
        with self._lock:
            self._next_id += 1
            session = Session(f"sess-{self._next_id}")
            self._sessions[session.session_id] = session
            self.counters.add(opened=1)
        return session

    def close(self, session: Session, reaped: bool = False) -> None:
        """Close ``session`` and release every handle it still owns, so its
        cursors give back their streaming permits and temp-store handles
        exactly as a well-behaved client close would.  Idempotent."""
        with self._lock:
            if self._sessions.pop(session.session_id, None) is None:
                return
            self.counters.add(closed=1, reaped_idle=int(reaped))
        self._server.release(session)

    def close_all(self) -> None:
        with self._lock:
            survivors = list(self._sessions.values())
        for session in survivors:
            self.close(session)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {"open": len(self._sessions), **self.counters.snapshot()}


class AsyncMediationServer:
    """One event loop multiplexing many protocol/HTTP connections.

    Wraps an existing (synchronous) :class:`MediationServer`; the loop does
    transport — accept, frame, parse, shed, write — and hands admitted
    statements to a bounded thread pool running the unchanged handler, so
    answers are identical to the threaded transport.

    Usage::

        aio = AsyncMediationServer(MediationServer(federation)).start()
        sock = aio.connect_socket()      # a real connected OS socket
        ...                              # speak COIN/1 frames or HTTP/1.1
        aio.shutdown()

    Clients normally go through :func:`repro.server.odbc.connect`
    (``async_server=aio, transport="native"|"http"``) or a
    :class:`repro.server.odbc.ConnectionPool` instead of raw sockets.
    """

    def __init__(self, server: Union[MediationServer, Federation],
                 config: Optional[AsyncServerConfig] = None) -> None:
        if isinstance(server, Federation):
            server = MediationServer(server)
        self.server = server
        self.config = config or AsyncServerConfig()
        self.sessions = SessionRegistry(server)

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._worker_threads = 0
        self._running = False
        self._draining = False

        #: Handler tasks + writers of live connections (loop-thread only).
        self._conn_tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()

        # The loop thread owns the in-flight gauges and is the only writer
        # of the totals; snapshot() reads both cross-thread.
        self._connections_current = 0
        self._inflight_total = 0
        self._admitted_inflight = 0
        self._totals = CounterSet(AIO_COUNTERS)
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Attach the transport's and session registry's totals to the
        federation's registry; the in-flight gauges are read at scrape time,
        so the event loop never touches a metric."""
        registry = self.server.federation.observability.metrics
        registry.attach(self._totals)
        registry.attach(self.sessions.counters)
        registry.gauge(
            "aio_connections",
            "Sockets currently connected to the event loop.",
            function=lambda: self._connections_current,
        )
        registry.gauge(
            "aio_sessions",
            "Native-protocol sessions currently open.",
            function=lambda: len(self.sessions),
        )
        registry.gauge(
            "aio_admitted_inflight",
            "Statements currently executing on the worker pool.",
            function=lambda: self._admitted_inflight,
        )

    # -- lifecycle ----------------------------------------------------------------

    @property
    def gateway(self):
        return self.server.gateway

    def start(self) -> "AsyncMediationServer":
        if self._running:
            return self
        self._worker_threads = self.gateway.admission_capacity + EXECUTOR_SLACK
        self._executor = ThreadPoolExecutor(
            max_workers=self._worker_threads, thread_name_prefix="aio-worker"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="aio-loop", daemon=True
        )
        self._thread.start()
        self._running = True
        self._draining = False
        return self

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def __enter__(self) -> "AsyncMediationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, timeout_seconds: Optional[float] = None) -> bool:
        """Graceful drain: quiesce the loop, then drain the gateway.

        New connections are refused immediately; in-flight requests get
        ``timeout_seconds`` (default ``DRAIN_TIMEOUT_SECONDS``) to finish;
        connections are then closed (closing every session, which releases
        its handles and streaming permits); finally the wrapped server drains
        its gateway.  Returns True once fully idle.
        """
        if not self._running:
            return True
        self._draining = True
        budget = (timeout_seconds if timeout_seconds is not None
                  else DRAIN_TIMEOUT_SECONDS)
        future = asyncio.run_coroutine_threadsafe(self._quiesce(budget), self._loop)
        try:
            future.result(timeout=budget + 10.0)
        except Exception:
            pass
        # Belt and braces: sessions whose handler tasks never exited.
        self.sessions.close_all()
        drained = self.server.shutdown(timeout_seconds)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._executor.shutdown(wait=True)
        self._executor = None
        self._running = False
        return drained

    async def _quiesce(self, budget: float) -> None:
        deadline = self._loop.time() + budget
        while self._inflight_total > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._conn_tasks:
            await asyncio.wait(
                list(self._conn_tasks),
                timeout=max(0.1, deadline - self._loop.time()),
            )

    # -- accepting ----------------------------------------------------------------

    def connect_socket(self) -> socket.socket:
        """Open one connection; returns the (blocking) client-side socket.

        The server side of the pair is registered with the event loop, which
        serves it until EOF, idle timeout, or drain.
        """
        if not self._running or self._draining:
            raise ClientError("async server is not accepting connections")
        client_end, server_end = socket.socketpair()
        future = asyncio.run_coroutine_threadsafe(
            self._accept(server_end), self._loop
        )
        try:
            future.result(timeout=10.0)
        except Exception:
            client_end.close()
            server_end.close()
            raise
        return client_end

    async def _accept(self, sock: socket.socket) -> None:
        if self._draining or (
                self._connections_current >= self.config.max_connections):
            self._totals.add(connections_refused=1)
            raise ClientError(
                f"connection refused: {self.config.max_connections} "
                "connections already open (or server draining)")
        task = self._loop.create_task(self._serve_connection(sock))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    # -- serving ------------------------------------------------------------------

    async def _serve_connection(self, sock: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except Exception:
            sock.close()
            return
        self._connections_current += 1
        self._totals.add(connections_opened=1,
                         connections_peak=self._connections_current)
        self._writers.add(writer)
        # The session opens with the connection (its handshake pins the
        # tenant), so the cleanup below finds it even when the serving loop
        # dies mid-frame (e.g. the peer closed before the final ack).
        session = self.sessions.open()
        reaped = False
        try:
            preamble = await asyncio.wait_for(
                reader.readexactly(len(MAGIC)),
                timeout=HANDSHAKE_TIMEOUT_SECONDS,
            )
            serve = self._serve_native if preamble == MAGIC else self._serve_http
            reaped = await serve(preamble, reader, writer, session)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError, ProtocolError, ValueError):
            # Transport-level failures close the connection; the session
            # cleanup below releases whatever the client left open.
            pass
        finally:
            try:
                closing = self._loop.run_in_executor(
                    self._executor, self.sessions.close, session, reaped)
            except RuntimeError:
                # The pool takes no more work (interpreter exit shut it down
                # without a shutdown() here): close on the loop instead.
                self.sessions.close(session, reaped)
            else:
                await closing
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
            self._connections_current -= 1

    async def _next_message(self, reader: asyncio.StreamReader, parser,
                            pop: Callable[[], Any], timeout: float) -> Any:
        """The next complete message ``pop`` finds in ``parser``'s buffer,
        reading more as needed; None at EOF."""
        while True:
            message = pop()
            if message is not None:
                return message
            data = await asyncio.wait_for(reader.read(65536), timeout=timeout)
            if not data:
                return None
            parser.feed(data)

    # Both serving loops return whether the idle reaper ended them.

    async def _serve_native(self, preamble: bytes, reader, writer,
                            session: Session) -> bool:
        parser = FrameParser()
        frame = await self._next_message(
            reader, parser, parser.next_frame, HANDSHAKE_TIMEOUT_SECONDS)
        if frame is None:
            return False
        hello = json.loads(frame)
        if "hello" not in hello:
            raise ProtocolError("native connection must start with a hello frame")
        session.tenant = hello["hello"].get("tenant")
        await self._write_frame(writer, {
            "ok": True,
            "session_id": session.session_id,
            "protocol": PROTOCOL_VERSION,
            "idle_timeout_seconds": self.config.idle_timeout_seconds,
        })
        while True:
            try:
                frame = await self._next_message(
                    reader, parser, parser.next_frame,
                    self.config.idle_timeout_seconds)
            except asyncio.TimeoutError:
                return True
            if frame is None:
                return False
            envelope = json.loads(frame)
            if envelope.get("close"):
                await self._write_frame(writer, {"ok": True, "closed": True})
                return False
            try:
                request = Request.from_dict(envelope.get("request"))
                response = await self._dispatch(
                    session, request,
                    lambda: self.server.handle(request, session=session))
            except OverloadError as exc:
                response = self.server.failure(exc)
            except ReproError as exc:
                response = Response.failure(str(exc), "protocol")
            await self._write_frame(writer, {
                "id": envelope.get("id"),
                "response": response.to_dict(),
            })

    async def _serve_http(self, preamble: bytes, reader, writer,
                          session: Session) -> bool:
        parser = HttpWireParser()
        parser.feed(preamble)
        greeted = False
        keep_alive = True
        while keep_alive:
            try:
                request = await self._next_message(
                    reader, parser, parser.next_request,
                    self.config.idle_timeout_seconds if greeted
                    else HANDSHAKE_TIMEOUT_SECONDS)
            except asyncio.TimeoutError:
                return greeted
            if request is None:
                return False
            if not greeted:
                greeted = True
                session.tenant = header(
                    request.headers, MediationServer.TENANT_HEADER)
            # Decoded here (the loop sheds by operation), answered by the
            # server's codec on a worker: the body is parsed once.
            decoded = self.server.decode_http(request)
            try:
                response = await self._dispatch(
                    session, decoded,
                    lambda: self.server.handle_http(request, session, decoded))
            except OverloadError as exc:
                response = self.server.encode_http(
                    request, self.server.failure(exc))
            keep_alive = request.wants_keep_alive() and response.wants_keep_alive()
            writer.write(response.serialize().encode("utf-8"))
            await writer.drain()
        return False

    async def _write_frame(self, writer, document: Dict[str, Any]) -> None:
        writer.write(encode_frame(json.dumps(document).encode("utf-8")))
        await writer.drain()

    # -- shared dispatch -----------------------------------------------------------

    async def _dispatch(self, session: Session, request: Any,
                        work: Callable[[], Any]) -> Any:
        """Run one exchange's ``work`` (``request``: what it carries — only a
        protocol request can be shed) on the bounded pool.

        The gateway's own queue accounting assumes one *caller thread* per
        queued statement; on the loop there are no caller threads, so the
        loop enforces the same ``workers + queue_depth`` bound up front and
        books the shed through the gateway (its retriable ``OverloadError``,
        with a Retry-After hint) before any worker is consumed.
        """
        self._totals.add(requests_total=1)
        gateway = self.gateway
        admitted = (isinstance(request, Request) and
                    request.operation in MediationServer.ADMITTED_OPERATIONS)
        if admitted and self._admitted_inflight >= gateway.admission_capacity:
            self._totals.add(loop_sheds=1)
            self.server.statistics.add(requests=1)
            gateway.shed_at_transport(
                session.tenant or request.parameters.get("tenant"))

        self._inflight_total += 1
        if admitted:
            self._admitted_inflight += 1
            self._totals.add(admitted_inflight_peak=self._admitted_inflight)
        try:
            return await self._loop.run_in_executor(self._executor, work)
        finally:
            self._inflight_total -= 1
            if admitted:
                self._admitted_inflight -= 1

    # -- reporting ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        totals = self._totals.snapshot()
        return {
            "transport": "asyncio",
            "running": self._running,
            "draining": self._draining,
            "connections": {
                "current": self._connections_current,
                "peak": totals["connections_peak"],
                "opened": totals["connections_opened"],
                "refused": totals["connections_refused"],
                "max": self.config.max_connections,
            },
            "sessions": self.sessions.snapshot(),
            "requests": {
                "total": totals["requests_total"],
                "loop_sheds": totals["loop_sheds"],
                "admitted_inflight_peak": totals["admitted_inflight_peak"],
            },
            "workers": {
                "loop_threads": 1,
                "pool_threads": self._worker_threads,
            },
        }
