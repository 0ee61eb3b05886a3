"""A minimal in-process HTTP tunnel.

The prototype tunnels its ODBC-family protocol in HTTP; this reproduction has
no network, so the tunnel is simulated: :class:`HttpRequest` /
:class:`HttpResponse` model messages textually (start line, headers, body) and
an :class:`HttpChannel` carries them between a client and a handler function
in-process, counting round trips and bytes so benchmarks can report protocol
overheads.  The message formats are faithful enough that the parsing code
exercises the same concerns (headers, content lengths, status codes) a real
deployment would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.obs.metrics import CounterSet


@dataclass
class HttpRequest:
    """An HTTP request message."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: str = ""
    #: Wire protocol version.  The historical in-process tunnel speaks
    #: HTTP/1.0 (one exchange per channel); the pooled/event-loop transports
    #: send HTTP/1.1 so connections persist by default.
    version: str = "HTTP/1.0"

    def serialize(self) -> str:
        headers = dict(headers_default(self.body))
        headers.update(self.headers)
        lines = [f"{self.method} {self.path} {self.version}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        return "\r\n".join(lines) + "\r\n\r\n" + self.body

    def wants_keep_alive(self) -> bool:
        return wants_keep_alive(self.version, self.headers)

    @classmethod
    def parse(cls, text: str) -> "HttpRequest":
        return _parse_whole(text, HttpWireParser.next_request)

    @classmethod
    def from_wire(cls, start_line: str, headers: Dict[str, str], body: str,
                  chunks: Optional[List[str]]) -> "HttpRequest":
        parts = start_line.split(" ")
        if len(parts) != 3:
            raise ProtocolError("malformed HTTP request line")
        return cls(method=parts[0], path=parts[1], headers=headers, body=body,
                   version=parts[2])


@dataclass
class HttpResponse:
    """An HTTP response message.

    A response either carries a plain ``body`` (with ``Content-Length``) or a
    sequence of ``chunks`` serialized with ``Transfer-Encoding: chunked`` —
    the framing streaming endpoints use to ship result batches one at a time.
    Each chunk is an independently parseable payload (here: one JSON
    document per batch); ``body`` on a parsed chunked response is the chunk
    concatenation, kept for byte accounting.
    """

    status: int = 200
    reason: str = "OK"
    headers: Dict[str, str] = field(default_factory=dict)
    body: str = ""
    chunks: Optional[List[str]] = None
    version: str = "HTTP/1.0"

    def serialize(self) -> str:
        if self.chunks is not None:
            headers = {
                "Content-Type": "application/json",
                "Transfer-Encoding": "chunked",
                "X-Coin-Tunnel": "odbc",
            }
            headers.update(self.headers)
            # ``chunks`` may be any iterable (a producer generator, not just
            # a list); materialize so the attribute is reusable afterwards.
            self.chunks = list(self.chunks)
            payload = "".join(
                f"{len(chunk.encode('utf-8')):x}\r\n{chunk}\r\n"
                for chunk in self.chunks
            ) + "0\r\n\r\n"
        else:
            headers = dict(headers_default(self.body))
            headers.update(self.headers)
            payload = self.body
        lines = [f"{self.version} {self.status} {self.reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        return "\r\n".join(lines) + "\r\n\r\n" + payload

    def wants_keep_alive(self) -> bool:
        return wants_keep_alive(self.version, self.headers)

    @classmethod
    def parse(cls, text: str) -> "HttpResponse":
        return _parse_whole(text, HttpWireParser.next_response)

    @classmethod
    def from_wire(cls, start_line: str, headers: Dict[str, str], body: str,
                  chunks: Optional[List[str]]) -> "HttpResponse":
        parts = start_line.split(" ", 2)
        if len(parts) < 2:
            raise ProtocolError("malformed HTTP status line")
        return cls(status=int(parts[1]), reason=parts[2] if len(parts) > 2 else "",
                   headers=headers, body=body, chunks=chunks, version=parts[0])


def headers_default(body: str) -> Dict[str, str]:
    return {
        "Content-Type": "application/json",
        "Content-Length": str(len(body.encode("utf-8"))),
        "X-Coin-Tunnel": "odbc",
    }


def header(headers: Dict[str, str], name: str) -> Optional[str]:
    """Header names are case-insensitive: the value sent under ``name``."""
    wanted = name.lower()
    for key, value in headers.items():
        if key.lower() == wanted:
            return value
    return None


def wants_keep_alive(version: str, headers: Dict[str, str]) -> bool:
    """The standard persistence rule: explicit ``Connection`` header wins,
    otherwise HTTP/1.1 persists and HTTP/1.0 closes."""
    connection = (header(headers, "Connection") or "").strip().lower()
    if connection == "close":
        return False
    if connection == "keep-alive":
        return True
    return version.upper() == "HTTP/1.1"


class HttpWireParser:
    """Incremental HTTP parser for persistent (keep-alive) connections.

    One parser lives for the lifetime of a connection and owns a single
    ``bytearray`` receive buffer: :meth:`feed` appends raw bytes, and
    :meth:`next_request` / :meth:`next_response` pop complete messages off
    the front, compacting in place.  Reusing the buffer (and the parsed
    header dict allocation path) across the hundreds of requests a pooled
    connection carries is what makes keep-alive cheaper than the
    parse-from-scratch string tunnel — no per-request channel, no
    re-allocated parse state.

    Bodies are framed by ``Content-Length``; responses may instead use
    ``Transfer-Encoding: chunked`` (the streaming endpoint), which is
    consumed incrementally up to the terminating zero-size chunk.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Messages fully parsed off this buffer (for reuse accounting).
        self.messages_parsed = 0

    def feed(self, data: bytes) -> None:
        self._buffer += data

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def next_request(self) -> Optional[HttpRequest]:
        return self._next_message(HttpRequest.from_wire)

    def next_response(self) -> Optional[HttpResponse]:
        return self._next_message(HttpResponse.from_wire)

    def _next_message(self, build):
        head_end = self._buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        lines = self._buffer[:head_end].decode(
            "utf-8", errors="replace").split("\r\n")
        headers = _parse_headers(lines[1:])
        start = head_end + 4

        chunks: Optional[List[str]] = None
        if "chunked" in (header(headers, "Transfer-Encoding") or "").lower():
            chunks, end = self._chunks(start)
            if chunks is None:
                return None
            body = "".join(chunks)
        else:
            length = header(headers, "Content-Length") or 0
            try:
                end = start + int(length)
            except ValueError as exc:
                raise ProtocolError(
                    f"malformed Content-Length {length!r}") from exc
            if len(self._buffer) < end:
                return None
            body = self._buffer[start:end].decode("utf-8")

        message = build(lines[0], headers, body, chunks)
        # Compact in place: the allocation persists across requests.
        del self._buffer[:end]
        self.messages_parsed += 1
        return message

    def _chunks(self, position: int) -> Tuple[Optional[List[str]], int]:
        """The chunked payload starting at ``position`` and the index one
        past its terminator; ``(None, -1)`` while it is incomplete."""
        buffer = self._buffer
        chunks: List[str] = []
        while True:
            newline = buffer.find(b"\r\n", position)
            if newline < 0:
                return None, -1
            size_text = bytes(buffer[position:newline]).strip()
            try:
                size = int(size_text, 16)
            except ValueError as exc:
                raise ProtocolError(
                    f"malformed chunked payload: bad chunk size {size_text!r}"
                ) from exc
            position = newline + 2
            # The terminator is "0\r\n\r\n" (no trailers in this tunnel).
            if len(buffer) < position + size + 2:
                return None, -1
            if size == 0:
                return chunks, position + 2
            chunks.append(buffer[position:position + size].decode("utf-8"))
            position += size + 2


def _parse_whole(text: str, pop):
    """Parse one complete serialized message (the in-process tunnel)."""
    parser = HttpWireParser()
    parser.feed(text.encode("utf-8"))
    message = pop(parser)
    if message is None:
        raise ProtocolError("truncated HTTP message")
    return message


def _parse_headers(lines: List[str]) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        if not line.strip():
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ProtocolError(f"malformed HTTP header {line!r}")
        headers[name.strip()] = value.strip()
    return headers


#: One client channel's traffic counters (field, kind, series, help); the
#: last two are connection churn: setups paid vs requests that rode an
#: existing keep-alive connection.
CHANNEL_COUNTERS = (
    ("round_trips", "sum", None, ""),
    ("bytes_sent", "sum", None, ""),
    ("bytes_received", "sum", None, ""),
    ("connections_opened", "sum", None, ""),
    ("requests_reusing_connection", "sum", None, ""),
)


class HttpChannel:
    """Carries serialized HTTP messages to a handler function, in process.

    The handler receives an :class:`HttpRequest` and returns an
    :class:`HttpResponse`; both directions pass through full text
    serialization so the protocol layer is genuinely exercised.
    """

    def __init__(self, handler: Callable[[HttpRequest], HttpResponse]):
        self._handler = handler
        self.statistics = CounterSet(CHANNEL_COUNTERS)
        self._connected = False

    def round_trip(self, request: HttpRequest) -> HttpResponse:
        wire_request = request.serialize()
        reused = int(self._connected)
        self.statistics.add(bytes_sent=len(wire_request.encode("utf-8")),
                            connections_opened=1 - reused,
                            requests_reusing_connection=reused)

        parsed_request = HttpRequest.parse(wire_request)
        response = self._handler(parsed_request)

        wire_response = response.serialize()
        self.statistics.add(bytes_received=len(wire_response.encode("utf-8")),
                            round_trips=1)
        parsed = HttpResponse.parse(wire_response)
        # An exchange persists the (simulated) connection only when both
        # sides agreed to keep-alive — mirroring what the socket transport
        # does for real.
        self._connected = request.wants_keep_alive() and parsed.wants_keep_alive()
        return parsed

    def post(self, path: str, body: str, headers: Optional[Dict[str, str]] = None) -> HttpResponse:
        request = HttpRequest(method="POST", path=path, headers=headers or {}, body=body)
        return self.round_trip(request)
