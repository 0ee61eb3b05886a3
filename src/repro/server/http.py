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
        head, _, body = text.partition("\r\n\r\n")
        lines = head.split("\r\n")
        if not lines or len(lines[0].split(" ")) != 3:
            raise ProtocolError("malformed HTTP request line")
        method, path, version = lines[0].split(" ")
        headers = _parse_headers(lines[1:])
        return cls(method=method, path=path, headers=headers, body=body,
                   version=version)


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
        head, _, body = text.partition("\r\n\r\n")
        lines = head.split("\r\n")
        parts = lines[0].split(" ", 2) if lines else []
        if len(parts) < 2:
            raise ProtocolError("malformed HTTP status line")
        version = parts[0]
        status = int(parts[1])
        reason = parts[2] if len(parts) > 2 else ""
        headers = _parse_headers(lines[1:])
        chunks: Optional[List[str]] = None
        if headers.get("Transfer-Encoding", "").lower() == "chunked":
            chunks = _parse_chunked(body)
            body = "".join(chunks)
        return cls(status=status, reason=reason, headers=headers, body=body,
                   chunks=chunks, version=version)


def headers_default(body: str) -> Dict[str, str]:
    return {
        "Content-Type": "application/json",
        "Content-Length": str(len(body.encode("utf-8"))),
        "X-Coin-Tunnel": "odbc",
    }


def wants_keep_alive(version: str, headers: Dict[str, str]) -> bool:
    """The standard persistence rule: explicit ``Connection`` header wins,
    otherwise HTTP/1.1 persists and HTTP/1.0 closes."""
    connection = ""
    for name, value in headers.items():
        if name.lower() == "connection":
            connection = value.strip().lower()
            break
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
        parsed = self._next_message(is_response=False)
        return parsed  # type: ignore[return-value]

    def next_response(self) -> Optional[HttpResponse]:
        parsed = self._next_message(is_response=True)
        return parsed  # type: ignore[return-value]

    def _next_message(self, is_response: bool):
        head_end = self._buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self._buffer[:head_end].decode("utf-8", errors="replace")
        lines = head.split("\r\n")
        headers = _parse_headers(lines[1:])
        body_start = head_end + 4

        chunked = any(
            name.lower() == "transfer-encoding" and "chunked" in value.lower()
            for name, value in headers.items()
        )
        if chunked:
            body_end = self._chunked_end(body_start)
            if body_end < 0:
                return None
        else:
            length = 0
            for name, value in headers.items():
                if name.lower() == "content-length":
                    try:
                        length = int(value)
                    except ValueError as exc:
                        raise ProtocolError(
                            f"malformed Content-Length {value!r}") from exc
                    break
            body_end = body_start + length
            if len(self._buffer) < body_end:
                return None

        text = self._buffer[:body_end].decode("utf-8")
        # Compact in place: the allocation persists across requests.
        del self._buffer[:body_end]
        self.messages_parsed += 1
        if is_response:
            return HttpResponse.parse(text)
        return HttpRequest.parse(text)

    def _chunked_end(self, position: int) -> int:
        """Index one past the chunked terminator, or -1 if incomplete."""
        buffer = self._buffer
        while True:
            newline = buffer.find(b"\r\n", position)
            if newline < 0:
                return -1
            size_text = bytes(buffer[position:newline]).strip()
            try:
                size = int(size_text, 16)
            except ValueError as exc:
                raise ProtocolError(
                    f"malformed chunked payload: bad chunk size {size_text!r}"
                ) from exc
            position = newline + 2
            if size == 0:
                # The terminator is "0\r\n\r\n" (no trailers in this tunnel).
                return position + 2 if len(buffer) >= position + 2 else -1
            if len(buffer) < position + size + 2:
                return -1
            position += size + 2


def _parse_chunked(body: str) -> List[str]:
    """Decode a ``Transfer-Encoding: chunked`` payload into its chunks."""
    data = body.encode("utf-8")
    chunks: List[str] = []
    position = 0
    while True:
        newline = data.find(b"\r\n", position)
        if newline < 0:
            raise ProtocolError("malformed chunked payload: missing size line")
        size_text = data[position:newline].strip()
        try:
            size = int(size_text, 16)
        except ValueError as exc:
            raise ProtocolError(
                f"malformed chunked payload: bad chunk size {size_text!r}"
            ) from exc
        position = newline + 2
        if size == 0:
            return chunks
        chunk = data[position:position + size]
        if len(chunk) != size:
            raise ProtocolError("malformed chunked payload: truncated chunk")
        chunks.append(chunk.decode("utf-8"))
        position += size + 2


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
