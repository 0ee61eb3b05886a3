"""One HTTP codec behind both doors.

The in-process tunnel (``HttpChannel`` → ``MediationServer.handle_http``) and
the event loop's socket front run the same codec, so the same request gets
the same status, headers and body through either.
"""

import json

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.server.aio import AsyncMediationServer
from repro.server.http import HttpRequest, HttpWireParser
from repro.server.protocol import Request, Response
from repro.server.server import MediationServer

QUERY = Request("query", {"sql": PAPER_QUERY}).to_json()


@pytest.fixture()
def stack():
    federation = build_paper_federation().federation
    federation.observability.tracer.enabled = True
    federation.observability.tracer.sample_rate = 1.0
    aio = AsyncMediationServer(MediationServer(federation)).start()
    yield aio
    aio.shutdown(5.0)


def _in_process(aio, request):
    return aio.server.channel().round_trip(request)


def _socket(aio, request):
    sock = aio.connect_socket()
    try:
        sock.settimeout(10.0)
        sock.sendall(request.serialize().encode("utf-8"))
        parser = HttpWireParser()
        while True:
            response = parser.next_response()
            if response is not None:
                return response
            data = sock.recv(65536)
            assert data, "server closed the connection mid-response"
            parser.feed(data)
    finally:
        sock.close()


@pytest.mark.parametrize("door", [_in_process, _socket],
                         ids=["in-process", "socket"])
class TestSameAnswerThroughBothDoors:
    def test_metrics_scrape(self, stack, door):
        response = door(stack, HttpRequest(
            "GET", MediationServer.METRICS_ENDPOINT, version="HTTP/1.1"))
        assert (response.status, response.reason) == (200, "OK")
        assert response.headers["Content-Type"].startswith("text/plain")
        assert response.headers["Connection"] == "keep-alive"
        assert "# TYPE coin_server_requests_total counter" in response.body

    def test_unknown_path(self, stack, door):
        response = door(stack, HttpRequest("POST", "/coin/nowhere", body=QUERY))
        assert (response.status, response.reason) == (404, "Not Found")
        assert response.headers["Connection"] == "close"
        assert response.body == Response.failure("unknown endpoint").to_json()

    def test_trace_header_is_adopted_and_echoed(self, stack, door):
        response = door(stack, HttpRequest(
            "POST", MediationServer.ENDPOINT, body=QUERY,
            headers={MediationServer.TRACE_HEADER: "door-0001"}))
        assert response.status == 200
        assert response.headers[MediationServer.TRACE_HEADER] == "door-0001"
        payload = json.loads(response.body)["payload"]
        assert payload["trace_id"] == "door-0001"
        assert payload["trace"]["attributes"]["operation"] == "query"
        assert payload["relation"]["rows"] == [["NTT", 9600000.0]]

    def test_chunked_stream(self, stack, door):
        response = door(stack, HttpRequest(
            "POST", MediationServer.STREAM_ENDPOINT, body=QUERY,
            version="HTTP/1.1"))
        assert response.status == 200
        assert response.headers["Connection"] == "close"
        assert response.headers[MediationServer.TRACE_HEADER]
        chunks = [json.loads(chunk) for chunk in response.chunks]
        assert [row for chunk in chunks[1:-1] for row in chunk["rows"]] == [
            ["NTT", 9600000.0]]
        assert (chunks[-1]["done"], chunks[-1]["row_count"]) == (True, 1)

    def test_malformed_json(self, stack, door):
        response = door(stack, HttpRequest(
            "POST", MediationServer.ENDPOINT, body="{not json"))
        assert (response.status, response.reason) == (400, "Bad Request")
        body = json.loads(response.body)
        assert (body["ok"], body["error_kind"]) == (False, "protocol")
        assert body["error"].startswith("malformed request")

    def test_shed(self, stack, door):
        stack.gateway.begin_drain()
        try:
            response = door(stack, HttpRequest(
                "POST", MediationServer.ENDPOINT, body=QUERY,
                version="HTTP/1.1"))
        finally:
            stack.gateway.resume()
        assert (response.status, response.reason) == (
            503, "Service Unavailable")
        assert response.headers["Retry-After"] == "1"
        assert response.headers["Connection"] == "keep-alive"
        body = json.loads(response.body)
        assert (body["ok"], body["error_kind"]) == (False, "OverloadError")
        assert "draining" in body["error"]
