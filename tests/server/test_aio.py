"""Tests for the event-loop transport: sessions, pooling, shedding, drain."""

import gc
import json
import logging
import threading
import time

import pytest

from repro.demo.scenarios import build_paper_federation
from repro.errors import ClientError, OverloadError, ProtocolError
from repro.server import odbc
from repro.server.aio import (
    MAGIC,
    AsyncMediationServer,
    AsyncServerConfig,
    FrameParser,
    encode_frame,
)
from repro.server.gateway import AdmissionGateway, GatewayConfig
from repro.server.odbc import ConnectionPool
from repro.server.protocol import Request
from repro.server.server import MediationServer

PAPER_QUERY = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 "
    "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
)
PAPER_ANSWER = [("NTT", 9_600_000.0)]


def _server(**gateway_overrides):
    federation = build_paper_federation().federation
    gateway = AdmissionGateway(GatewayConfig(**gateway_overrides))
    return MediationServer(federation, gateway=gateway)


@pytest.fixture()
def aio():
    server = AsyncMediationServer(_server()).start()
    yield server
    server.shutdown(5.0)


class TestFrameParser:
    def test_frames_split_across_feeds(self):
        wire = encode_frame(b"alpha") + encode_frame(b"beta")
        parser = FrameParser()
        parser.feed(wire[:3])
        assert parser.next_frame() is None
        parser.feed(wire[3:])
        assert parser.next_frame() == b"alpha"
        assert parser.next_frame() == b"beta"
        assert parser.next_frame() is None
        assert parser.buffered_bytes == 0

    def test_malformed_length_raises(self):
        parser = FrameParser()
        parser.feed(b"not-a-number\n")
        with pytest.raises(ProtocolError):
            parser.next_frame()

    def test_magic_is_not_a_frame(self):
        assert MAGIC.endswith(b"\n")


class TestTransports:
    def test_native_answers_match_threaded_transport(self, aio):
        threaded = odbc.connect(server=aio.server, context="c_receiver")
        baseline = threaded.cursor().execute(PAPER_QUERY).fetchall()

        connection = odbc.connect(async_server=aio, transport="native",
                                  context="c_receiver")
        assert connection.cursor().execute(PAPER_QUERY).fetchall() == baseline
        connection.close()

    def test_http_answers_match_threaded_transport(self, aio):
        connection = odbc.connect(async_server=aio, transport="http",
                                  context="c_receiver")
        assert connection.cursor().execute(PAPER_QUERY).fetchall() == PAPER_ANSWER
        connection.close()

    def test_statements_reuse_one_socket(self, aio):
        connection = odbc.connect(async_server=aio, transport="native",
                                  context="c_receiver")
        cursor = connection.cursor()
        for _ in range(4):
            cursor.execute(PAPER_QUERY)
        stats = connection._channel.statistics.snapshot()
        assert stats["connections_opened"] == 1
        assert stats["requests_reusing_connection"] == 3
        connection.close()

    def test_http_transport_keeps_alive(self, aio):
        connection = odbc.connect(async_server=aio, transport="http",
                                  context="c_receiver")
        cursor = connection.cursor()
        for _ in range(3):
            cursor.execute(PAPER_QUERY)
        stats = connection._channel.statistics.snapshot()
        assert stats["connections_opened"] == 1
        assert stats["requests_reusing_connection"] == 2
        connection.close()

    def test_streaming_cursor_over_native(self, aio):
        connection = odbc.connect(async_server=aio, transport="native",
                                  context="c_receiver")
        cursor = connection.cursor()
        cursor.execute("SELECT r1.cname FROM r1 ORDER BY r1.cname",
                       stream=True, batch_size=1)
        assert cursor.fetchall() == [("IBM",), ("NTT",)]
        connection.close()

    def test_prepared_statement_over_native(self, aio):
        connection = odbc.connect(async_server=aio, transport="native",
                                  context="c_receiver")
        statement = connection.prepare(PAPER_QUERY)
        assert statement.execute().fetchall() == PAPER_ANSWER
        statement.close()
        connection.close()

    def test_unknown_transport_rejected(self, aio):
        with pytest.raises(ClientError):
            odbc.connect(async_server=aio, transport="carrier-pigeon")


class TestSessionLifecycle:
    def test_handles_die_with_the_session(self, aio):
        connection = odbc.connect(async_server=aio, transport="native",
                                  context="c_receiver")
        statement = connection.prepare(PAPER_QUERY)
        cursor = connection.cursor()
        cursor.execute("SELECT r1.cname FROM r1", stream=True, batch_size=1)
        snapshot = aio.server.snapshot()
        assert snapshot["open_cursors"] == 1
        assert snapshot["open_prepared_statements"] == 1
        assert aio.server.gateway.snapshot()["active_streams"] == 1

        connection.close()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            snapshot = aio.server.snapshot()
            if (snapshot["open_cursors"] == 0
                    and snapshot["open_prepared_statements"] == 0):
                break
            time.sleep(0.02)
        assert snapshot["open_cursors"] == 0
        assert snapshot["open_prepared_statements"] == 0
        assert aio.server.gateway.snapshot()["active_streams"] == 0

    def test_idle_reaping_releases_stream_permits(self):
        config = AsyncServerConfig(idle_timeout_seconds=0.2)
        aio = AsyncMediationServer(_server(), config).start()
        try:
            connection = odbc.connect(async_server=aio, transport="native",
                                      context="c_receiver")
            connection.prepare(PAPER_QUERY)
            cursor = connection.cursor()
            cursor.execute("SELECT r1.cname FROM r1", stream=True, batch_size=1)
            assert aio.server.gateway.snapshot()["active_streams"] == 1
            assert aio.server.snapshot()["open_prepared_statements"] == 1

            deadline = time.time() + 5.0
            while time.time() < deadline:
                if aio.sessions.snapshot()["reaped_idle"] == 1:
                    break
                time.sleep(0.05)
            assert aio.sessions.snapshot()["reaped_idle"] == 1

            deadline = time.time() + 5.0
            while time.time() < deadline:
                if aio.server.gateway.snapshot()["active_streams"] == 0:
                    break
                time.sleep(0.02)
            assert aio.server.gateway.snapshot()["active_streams"] == 0
            assert aio.server.snapshot()["open_cursors"] == 0
            assert aio.server.snapshot()["open_prepared_statements"] == 0
            connection.close()
        finally:
            aio.shutdown(5.0)

    def test_client_reconnects_transparently_after_reap(self):
        config = AsyncServerConfig(idle_timeout_seconds=0.2)
        aio = AsyncMediationServer(_server(), config).start()
        try:
            connection = odbc.connect(async_server=aio, transport="native",
                                      context="c_receiver")
            cursor = connection.cursor()
            cursor.execute(PAPER_QUERY)
            time.sleep(0.6)  # server reaps the idle connection
            cursor.execute(PAPER_QUERY)  # replays on a fresh socket
            assert cursor.fetchall() == PAPER_ANSWER
            stats = connection._channel.statistics.snapshot()
            assert stats["connections_opened"] == 2
            connection.close()
        finally:
            aio.shutdown(5.0)

    def test_session_closes_inline_after_the_worker_pool_shut_down(self, aio, caplog):
        """A process that exits without ``shutdown()`` shuts the worker pool
        down under live connections: a connection ending then still closes
        its session, and no task dies with an unretrieved exception."""
        connection = odbc.connect(async_server=aio, transport="native",
                                  context="c_receiver")
        assert connection.cursor().execute(PAPER_QUERY).fetchall() == PAPER_ANSWER
        assert len(aio.sessions) == 1
        aio._executor.shutdown(wait=True)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            connection.close()
            deadline = time.time() + 5.0
            while (len(aio.sessions) or aio._conn_tasks) and time.time() < deadline:
                time.sleep(0.02)
            time.sleep(0.05)
            gc.collect()
        assert len(aio.sessions) == 0
        assert aio.sessions.snapshot()["closed"] == 1
        assert [record.getMessage() for record in caplog.records] == []

    def test_cursor_isolated_between_sessions(self, aio):
        owner = odbc.connect(async_server=aio, transport="native",
                             context="c_receiver")
        cursor = owner.cursor()
        cursor.execute("SELECT r1.cname FROM r1", stream=True, batch_size=1)
        cursor_id = cursor._cursor_id
        assert cursor_id

        thief = odbc.connect(async_server=aio, transport="native",
                             context="c_receiver")
        with pytest.raises(ClientError) as excinfo:
            thief._call("fetch_cursor", cursor_id=cursor_id, count=1)
        assert excinfo.value.error_kind == "cursor"
        # Closing is idempotent for everyone, and closes only one's own.
        assert thief._call("close_cursor", cursor_id=cursor_id)["closed"] is False
        # The owner's cursor is untouched.
        assert cursor.fetchall() == [("IBM",), ("NTT",)]
        thief.close()
        owner.close()

    def test_prepared_statement_isolated_between_sessions(self, aio):
        owner = odbc.connect(async_server=aio, transport="native",
                             context="c_receiver")
        statement = owner.prepare(PAPER_QUERY)

        thief = odbc.connect(async_server=aio, transport="native",
                             context="c_receiver")
        for operation in ("execute_prepared", "open_cursor"):
            with pytest.raises(ClientError) as excinfo:
                thief._call(operation, statement_id=statement.statement_id)
            assert excinfo.value.error_kind == "protocol"
        assert thief._call(
            "close_prepared",
            statement_id=statement.statement_id)["closed"] is False
        assert statement.execute().fetchall() == PAPER_ANSWER
        # Sessionless doors (in-process callers) do not see session handles
        # either, nor sessions theirs.
        direct = aio.server.handle(Request(
            "execute_prepared", {"statement_id": statement.statement_id}))
        assert (direct.ok, direct.error_kind) == (False, "protocol")
        unowned = aio.server.handle(Request(
            "prepare", {"sql": PAPER_QUERY})).payload["statement_id"]
        with pytest.raises(ClientError) as excinfo:
            thief._call("execute_prepared", statement_id=unowned)
        assert excinfo.value.error_kind == "protocol"
        thief.close()
        owner.close()

    def test_eof_releases_the_sessions_handles(self, aio):
        """A client that just vanishes (no close frame, no close requests)
        leaves nothing behind: EOF releases its cursor's stream permit and
        its prepared statement."""
        sock = aio.connect_socket()
        sock.settimeout(10.0)
        parser = FrameParser()

        def exchange(document):
            sock.sendall(encode_frame(json.dumps(document).encode("utf-8")))
            while True:
                frame = parser.next_frame()
                if frame is not None:
                    return json.loads(frame)
                parser.feed(sock.recv(65536))

        sock.sendall(MAGIC)
        assert exchange({"hello": {"tenant": None}})["ok"]
        for number, (operation, parameters) in enumerate([
                ("prepare", {"sql": PAPER_QUERY}),
                ("open_cursor", {"sql": "SELECT r1.cname FROM r1"})]):
            reply = exchange({"id": number, "request": {
                "operation": operation, "parameters": parameters}})
            assert reply["id"] == number and reply["response"]["ok"]
        snapshot = aio.server.snapshot()
        assert (snapshot["open_cursors"],
                snapshot["open_prepared_statements"]) == (1, 1)
        assert aio.gateway.snapshot()["active_streams"] == 1

        sock.close()
        deadline = time.time() + 5.0
        while time.time() < deadline and aio.sessions.snapshot()["open"]:
            time.sleep(0.02)
        snapshot = aio.server.snapshot()
        assert (snapshot["open_cursors"],
                snapshot["open_prepared_statements"]) == (0, 0)
        assert aio.gateway.snapshot()["active_streams"] == 0

    def test_concurrent_sessions_leave_nothing_open(self, aio):
        """8 sessions preparing, opening, fetching and closing at once."""
        errors = []

        def client():
            try:
                connection = odbc.connect(async_server=aio, transport="native",
                                          context="c_receiver")
                for _ in range(3):
                    with connection.prepare(PAPER_QUERY) as statement:
                        assert statement.execute().fetchall() == PAPER_ANSWER
                        streamed = statement.execute(stream=True, batch_size=1)
                        assert streamed.fetchall() == PAPER_ANSWER
                    cursor = connection.cursor()
                    cursor.execute("SELECT r1.cname FROM r1 ORDER BY r1.cname",
                                   stream=True, batch_size=1)
                    assert cursor.fetchone() == ("IBM",)
                    cursor.close()  # abandoned part-way
                connection.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        snapshot = aio.server.snapshot()
        assert snapshot["open_cursors"] == 0
        assert snapshot["open_prepared_statements"] == 0
        assert aio.gateway.snapshot()["active_streams"] == 0

    def test_session_pins_tenant(self, aio):
        connection = odbc.connect(async_server=aio, transport="native",
                                  tenant="acme", context="c_receiver")
        cursor = connection.cursor()
        cursor.execute(PAPER_QUERY)  # same tenant: fine
        with pytest.raises(ClientError) as excinfo:
            connection._call("query", sql=PAPER_QUERY, context="c_receiver",
                             tenant="rival")
        assert "tenant" in str(excinfo.value)
        connection.close()


class TestSheddingAndDrain:
    def test_transport_shed_is_retriable_and_accounted(self, aio):
        gateway = aio.server.gateway
        before = gateway.snapshot()["shed"]["total"]
        with pytest.raises(OverloadError) as excinfo:
            gateway.shed_at_transport("acme")
        assert excinfo.value.reason == "queue_full"
        after = gateway.snapshot()
        assert after["shed"]["total"] == before + 1
        assert after["shed"]["queue_full"] >= 1

    def test_loop_sheds_beyond_admission_capacity(self, aio):
        connection = odbc.connect(async_server=aio, transport="native",
                                  context="c_receiver")
        cursor = connection.cursor()
        cursor.execute(PAPER_QUERY)
        # Pin the loop's in-flight gauge at capacity: the next admitted
        # statement must be shed at the transport, retriably.
        aio._admitted_inflight = aio.server.gateway.admission_capacity
        try:
            with pytest.raises(ClientError) as excinfo:
                cursor.execute(PAPER_QUERY)
            assert excinfo.value.error_kind == "OverloadError"
            assert excinfo.value.retriable
        finally:
            aio._admitted_inflight = 0
        cursor.execute(PAPER_QUERY)  # back under capacity: admitted again
        assert cursor.fetchall() == PAPER_ANSWER
        assert aio.snapshot()["requests"]["loop_sheds"] == 1
        connection.close()

    def test_shutdown_drains_and_refuses_new_connections(self):
        aio = AsyncMediationServer(_server()).start()
        connection = odbc.connect(async_server=aio, transport="native",
                                  context="c_receiver")
        connection.cursor().execute(PAPER_QUERY)
        assert aio.shutdown(5.0) is True
        connection.close()
        with pytest.raises(ClientError):
            odbc.connect(async_server=aio, transport="native").sources()
        gateway_load = aio.server.gateway.snapshot()
        assert gateway_load["active"] == 0
        assert gateway_load["active_streams"] == 0
        assert aio.sessions.snapshot()["open"] == 0

    def test_connection_limit_refuses_excess(self):
        config = AsyncServerConfig(max_connections=1)
        aio = AsyncMediationServer(_server(), config).start()
        try:
            first = odbc.connect(async_server=aio, transport="native",
                                 context="c_receiver")
            first.sources()  # forces the socket open
            with pytest.raises(ClientError):
                second = odbc.connect(async_server=aio, transport="native")
                second.sources()
            assert aio.snapshot()["connections"]["refused"] == 1
            first.close()
        finally:
            aio.shutdown(5.0)


class TestConnectionPool:
    def test_pool_reuses_connections_lifo(self, aio):
        pool = ConnectionPool(
            lambda: odbc.connect(async_server=aio, transport="native",
                                 context="c_receiver"),
            size=2,
        )
        with pool.connection() as connection:
            assert connection.cursor().execute(PAPER_QUERY).fetchall() == PAPER_ANSWER
        with pool.connection() as connection:
            connection.cursor().execute(PAPER_QUERY)
            stats = connection._channel.statistics.snapshot()
        assert stats["connections_opened"] == 1
        assert stats["requests_reusing_connection"] == 1
        snapshot = pool.snapshot()
        assert snapshot["created"] == 1
        assert snapshot["leases"] == 2
        pool.close()

    def test_pool_blocks_then_times_out_when_exhausted(self, aio):
        pool = ConnectionPool(
            lambda: odbc.connect(async_server=aio, transport="native",
                                 context="c_receiver"),
            size=1, timeout_seconds=0.1,
        )
        leased = pool.acquire()
        with pytest.raises(ClientError):
            pool.acquire()
        pool.release(leased)
        again = pool.acquire()  # released connection is available again
        pool.release(again)
        assert pool.snapshot()["lease_waits"] >= 1
        pool.close()

    def test_pooled_connections_across_threads(self, aio):
        pool = ConnectionPool(
            lambda: odbc.connect(async_server=aio, transport="native",
                                 context="c_receiver"),
            size=4,
        )
        answers = []
        errors = []

        def worker():
            try:
                for _ in range(3):
                    with pool.connection() as connection:
                        cursor = connection.cursor()
                        cursor.execute(PAPER_QUERY)
                        answers.append(cursor.fetchall())
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(answers) == 24
        assert all(answer == PAPER_ANSWER for answer in answers)
        assert pool.snapshot()["created"] <= 4
        pool.close()

    def test_interleaved_streams_from_many_sessions(self, aio):
        """Event-loop interleaving: many sessions advance streaming cursors
        round-robin, each batch arriving on the right session."""
        connections = [
            odbc.connect(async_server=aio, transport="native",
                         context="c_receiver")
            for _ in range(6)
        ]
        cursors = []
        for connection in connections:
            cursor = connection.cursor()
            cursor.execute("SELECT r1.cname FROM r1 ORDER BY r1.cname",
                           stream=True, batch_size=1)
            cursors.append(cursor)
        # Interleave fetches across all sessions, one row at a time.
        first = [cursor.fetchone() for cursor in cursors]
        second = [cursor.fetchone() for cursor in cursors]
        third = [cursor.fetchone() for cursor in cursors]
        assert first == [("IBM",)] * 6
        assert second == [("NTT",)] * 6
        assert third == [None] * 6
        for connection in connections:
            connection.close()
