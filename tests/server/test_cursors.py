"""Server-side cursors: the wire-level streaming surface.

Covers the three new protocol operations (``open_cursor`` / ``fetch_cursor``
/ ``close_cursor``), the bounded generation-checked cursor registry, the
chunked HTTP streaming endpoint, and the ODBC driver's streaming mode.
"""

import json
import threading

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.errors import ClientError, SourceError
from repro.server import odbc
from repro.server.protocol import Request
from repro.server.server import MediationServer


@pytest.fixture()
def federation():
    return build_paper_federation().federation


@pytest.fixture()
def server(federation):
    return MediationServer(federation)


def _open(server, sql=PAPER_QUERY, **parameters):
    response = server.handle(Request(
        operation="open_cursor", parameters={"sql": sql, **parameters}
    ))
    assert response.ok, response.error
    return response.payload


class TestCursorProtocol:
    def test_open_fetch_close_roundtrip(self, server, federation):
        eager = federation.query(PAPER_QUERY)
        payload = _open(server)
        assert payload["columns"] == eager.relation.schema.names
        assert payload["mediated_sql"] == eager.mediated_sql

        fetched = server.handle(Request(
            operation="fetch_cursor",
            parameters={"cursor_id": payload["cursor_id"], "count": 100},
        ))
        assert fetched.ok
        assert fetched.payload["rows"] == [list(row) for row in eager.relation.rows]
        assert fetched.payload["done"] is True
        assert "execution" in fetched.payload

    def test_exhausted_cursor_is_discarded(self, server):
        payload = _open(server)
        server.handle(Request(operation="fetch_cursor",
                              parameters={"cursor_id": payload["cursor_id"],
                                          "count": 100}))
        again = server.handle(Request(operation="fetch_cursor",
                                      parameters={"cursor_id": payload["cursor_id"]}))
        assert not again.ok
        assert "unknown or closed cursor" in again.error

    def test_close_cursor_is_idempotent(self, server):
        payload = _open(server)
        first = server.handle(Request(operation="close_cursor",
                                      parameters={"cursor_id": payload["cursor_id"]}))
        second = server.handle(Request(operation="close_cursor",
                                       parameters={"cursor_id": payload["cursor_id"]}))
        assert first.ok and first.payload["closed"] is True
        assert second.ok and second.payload["closed"] is False

    def test_open_requires_exactly_one_of_sql_and_statement_id(self, server):
        response = server.handle(Request(operation="open_cursor", parameters={}))
        assert not response.ok
        both = server.handle(Request(
            operation="open_cursor",
            parameters={"sql": PAPER_QUERY, "statement_id": "stmt-1"},
        ))
        assert not both.ok

    def test_open_cursor_on_prepared_statement(self, server, federation):
        prepared = server.handle(Request(operation="prepare",
                                         parameters={"sql": PAPER_QUERY}))
        response = server.handle(Request(
            operation="open_cursor",
            parameters={"statement_id": prepared.payload["statement_id"]},
        ))
        assert response.ok
        fetched = server.handle(Request(
            operation="fetch_cursor",
            parameters={"cursor_id": response.payload["cursor_id"], "count": 100},
        ))
        eager = federation.query(PAPER_QUERY)
        assert fetched.payload["rows"] == [list(row) for row in eager.relation.rows]

    def test_registry_is_bounded_and_evicts_oldest(self, federation, monkeypatch):
        monkeypatch.setattr(MediationServer, "MAX_OPEN_CURSORS", 3)
        server = MediationServer(federation)
        handles = [_open(server)["cursor_id"] for _ in range(4)]
        # The oldest handle was evicted, and its stream closed: the evicted
        # cursor gave its permit back.
        evicted = server.handle(Request(operation="fetch_cursor",
                                        parameters={"cursor_id": handles[0]}))
        assert (evicted.ok, evicted.error_kind) == (False, "cursor")
        assert server.snapshot()["open_cursors"] == 3
        assert server.gateway.snapshot()["active_streams"] == 3
        survivor = server.handle(Request(operation="fetch_cursor",
                                         parameters={"cursor_id": handles[-1],
                                                     "count": 1}))
        assert survivor.ok

    def test_generation_check_invalidates_open_cursors(self, server, federation):
        payload = _open(server)
        federation.invalidate_source_cache()
        fetched = server.handle(Request(operation="fetch_cursor",
                                        parameters={"cursor_id": payload["cursor_id"]}))
        assert not fetched.ok
        assert "invalidated" in fetched.error
        # The cursor is gone afterwards (not just failing).
        again = server.handle(Request(operation="fetch_cursor",
                                      parameters={"cursor_id": payload["cursor_id"]}))
        assert "unknown or closed cursor" in again.error

    def test_a_change_between_compiling_and_registering_invalidates_too(
            self, server, federation, monkeypatch):
        # The check reads the generations the plan was compiled under, not
        # the ones live when the cursor was registered.
        execute = federation._execute

        def execute_then_invalidate(*args, **kwargs):
            cursor = execute(*args, **kwargs)
            federation.invalidate_source_cache()
            return cursor

        monkeypatch.setattr(federation, "_execute", execute_then_invalidate)
        payload = _open(server)
        fetched = server.handle(Request(operation="fetch_cursor",
                                        parameters={"cursor_id": payload["cursor_id"]}))
        assert not fetched.ok
        assert "invalidated" in fetched.error

    def test_concurrent_fetches_on_one_cursor_are_serialized(self, server):
        import threading

        # A larger streamed result: an unmediated scan of the 18-row r3.
        payload = _open(server, sql="SELECT r3.fromCur, r3.toCur, r3.rate FROM r3", mediate=False)
        responses = []
        lock = threading.Lock()

        def fetch():
            response = server.handle(Request(
                operation="fetch_cursor",
                parameters={"cursor_id": payload["cursor_id"], "count": 2},
            ))
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # No 'generator already executing' internal errors: 8 fetches of 2
        # rows each drain 16 of the 18 rows, every batch clean, no row
        # duplicated or lost.
        assert all(response.ok for response in responses), [
            response.error for response in responses if not response.ok
        ]
        rows = [
            tuple(row)
            for response in responses
            for row in response.payload["rows"]
        ]
        assert len(rows) == 16
        assert len(set(rows)) == 16

    def test_statistics_count_cursor_traffic(self, server):
        payload = _open(server)
        server.handle(Request(operation="fetch_cursor",
                              parameters={"cursor_id": payload["cursor_id"],
                                          "count": 100}))
        snapshot = server.statistics.snapshot()
        assert snapshot["cursors_opened"] == 1
        assert snapshot["cursor_fetches"] == 1
        assert snapshot["rows_streamed"] >= 1


def _gate(federation, error=None):
    """Hold every wrapper's round trips until the returned event is set —
    a timer sets it after 1 s — then fail them with ``error``, if given."""
    release = threading.Event()
    for wrapper in federation.engine.catalog.wrappers:
        for method in ("fetch", "query"):
            def gated(argument, call=getattr(wrapper, method)):
                release.wait(10.0)
                if error is not None:
                    raise error
                return call(argument)
            setattr(wrapper, method, gated)
    timer = threading.Timer(1.0, release.set)
    timer.start()
    return release, timer


class TestSchemaCostsNoFetch:
    """A cursor's columns come from the plan's lowered tree, typed by the
    catalog, so describing an answer waits for no source."""

    def test_description_returns_before_any_source_ships(self, federation):
        expected = build_paper_federation().federation.query(PAPER_QUERY).relation
        release, timer = _gate(federation)
        try:
            with federation.query(PAPER_QUERY, stream=True) as cursor:
                description = cursor.description
                assert not release.is_set()
                assert [column[0] for column in description] == expected.schema.names
                release.set()
                assert cursor.fetchall() == expected.rows
        finally:
            release.set()
            timer.cancel()

    def test_open_cursor_returns_its_header_before_any_source_ships(self, server, federation):
        names = build_paper_federation().federation.query(PAPER_QUERY).relation.schema.names
        release, timer = _gate(federation)
        try:
            payload = _open(server)
            assert not release.is_set()
            assert payload["columns"] == names
        finally:
            release.set()
            timer.cancel()
        server.handle(Request(operation="close_cursor",
                              parameters={"cursor_id": payload["cursor_id"]}))

    def test_a_source_failure_surfaces_at_the_first_fetch(self, server, federation):
        error = SourceError("the source is permanently out")
        error.transient = False
        release, timer = _gate(federation, error)
        try:
            payload = _open(server)
            fetched = server.handle(Request(
                operation="fetch_cursor",
                parameters={"cursor_id": payload["cursor_id"], "count": 100},
            ))
        finally:
            release.set()
            timer.cancel()
        # The kind a failing open reported when describing the answer fetched.
        assert (fetched.ok, fetched.error_kind) == (False, "RequestFailed[SourceError]")
        assert "permanently out" in fetched.error
        assert server.snapshot()["open_cursors"] == 0
        assert federation.engine.temp_store.handles == []


class TestChunkedHttpStreaming:
    def test_stream_endpoint_ships_header_batches_and_summary(self, server, federation):
        eager = federation.query(PAPER_QUERY)
        channel = server.channel()
        request = Request(operation="query",
                          parameters={"sql": PAPER_QUERY, "batch_size": 1})
        response = channel.post(MediationServer.STREAM_ENDPOINT, request.to_json())
        assert response.status == 200
        assert response.headers.get("Transfer-Encoding") == "chunked"
        assert response.chunks is not None and len(response.chunks) >= 2

        header = json.loads(response.chunks[0])
        assert header["columns"] == eager.relation.schema.names
        rows = [
            row
            for chunk in response.chunks[1:-1]
            for row in json.loads(chunk)["rows"]
        ]
        assert rows == [list(row) for row in eager.relation.rows]
        summary = json.loads(response.chunks[-1])
        assert summary["done"] is True
        assert summary["row_count"] == len(eager.relation)
        assert "execution" in summary

    def test_stream_endpoint_rejects_non_query_operations(self, server):
        channel = server.channel()
        request = Request(operation="list_sources")
        response = channel.post(MediationServer.STREAM_ENDPOINT, request.to_json())
        assert response.status == 400


class TestOdbcStreaming:
    def test_streaming_cursor_matches_materialized_execution(self, server):
        connection = odbc.connect(server=server)
        eager = connection.cursor().execute(PAPER_QUERY).fetchall()
        cursor = connection.cursor().execute(PAPER_QUERY, stream=True, batch_size=1)
        assert cursor.rowcount == -1
        assert cursor.description is not None
        assert cursor.fetchall() == eager
        assert cursor.rowcount == len(eager)

    def test_fetchone_iterates_in_batches(self, server):
        connection = odbc.connect(server=server)
        cursor = connection.cursor().execute(PAPER_QUERY, stream=True, batch_size=1)
        rows = list(iter(cursor))
        assert rows == connection.cursor().execute(PAPER_QUERY).fetchall()

    def test_close_releases_the_server_cursor(self, server):
        connection = odbc.connect(server=server)
        cursor = connection.cursor().execute(PAPER_QUERY, stream=True)
        cursor.close()
        cursor.close()  # idempotent client-side
        assert server.snapshot()["open_cursors"] == 0

    def test_client_buffer_is_trimmed_as_rows_are_consumed(self, server):
        connection = odbc.connect(server=server)
        cursor = connection.cursor().execute(
            "SELECT r3.fromCur, r3.toCur, r3.rate FROM r3", mediate=False, stream=True, batch_size=2
        )
        rows = [cursor.fetchone() for _ in range(18)]
        assert len(set(rows)) == 18
        # The consumed prefix is dropped before each server pull: the local
        # buffer never grows toward the full result.
        assert len(cursor._rows) <= 4
        assert cursor.fetchone() is None
        assert cursor.rowcount == 18

    def test_prepared_statement_streams(self, server):
        connection = odbc.connect(server=server)
        eager = connection.cursor().execute(PAPER_QUERY).fetchall()
        with connection.prepare(PAPER_QUERY) as prepared:
            streaming = prepared.execute(stream=True, batch_size=1)
            assert streaming.fetchall() == eager

    def test_stream_error_after_invalidation_surfaces_as_client_error(
            self, server, federation):
        connection = odbc.connect(server=server)
        cursor = connection.cursor().execute(PAPER_QUERY, stream=True, batch_size=1)
        federation.invalidate_source_cache()
        with pytest.raises(ClientError, match="invalidated"):
            cursor.fetchall()
