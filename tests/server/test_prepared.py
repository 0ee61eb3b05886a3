"""Prepared statements over the server protocol and the ODBC driver."""

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.errors import ClientError
from repro.server import odbc
from repro.server.protocol import Request
from repro.server.server import MediationServer


@pytest.fixture
def federation():
    return build_paper_federation().federation


@pytest.fixture
def server(federation):
    return MediationServer(federation)


class TestPreparedProtocol:
    def test_prepare_execute_close_lifecycle(self, server):
        prepared = server.handle(Request("prepare", {"sql": PAPER_QUERY}))
        assert prepared.ok
        statement_id = prepared.payload["statement_id"]
        assert prepared.payload["branch_count"] == 3
        assert "UNION" in prepared.payload["mediated_sql"]

        executed = server.handle(
            Request("execute_prepared", {"statement_id": statement_id})
        )
        assert executed.ok
        assert executed.payload["relation"]["rows"] == [["NTT", 9600000.0]]

        closed = server.handle(
            Request("close_prepared", {"statement_id": statement_id})
        )
        assert closed.ok and closed.payload["closed"] is True

        gone = server.handle(
            Request("execute_prepared", {"statement_id": statement_id})
        )
        assert not gone.ok

    def test_execute_prepared_skips_mediation_and_planning(self, server, federation):
        statement_id = server.handle(
            Request("prepare", {"sql": PAPER_QUERY})
        ).payload["statement_id"]
        server.handle(Request("execute_prepared", {"statement_id": statement_id}))
        med = federation.mediator.statistics.snapshot()["queries_mediated"]
        plans = federation.engine.statistics.snapshot()["plans_built"]
        for _ in range(3):
            response = server.handle(
                Request("execute_prepared", {"statement_id": statement_id})
            )
            assert response.ok
        assert federation.mediator.statistics.snapshot()["queries_mediated"] == med
        assert federation.engine.statistics.snapshot()["plans_built"] == plans

    def test_prepare_requires_sql(self, server):
        assert not server.handle(Request("prepare", {})).ok

    def test_execute_requires_statement_id(self, server):
        assert not server.handle(Request("execute_prepared", {})).ok

    def test_close_unknown_statement_reports_not_closed(self, server):
        response = server.handle(
            Request("close_prepared", {"statement_id": "stmt-999"})
        )
        assert response.ok and response.payload["closed"] is False

    def test_statement_registry_is_bounded(self, federation, monkeypatch):
        monkeypatch.setattr(MediationServer, "MAX_PREPARED_STATEMENTS", 2)
        server = MediationServer(federation)
        ids = [
            server.handle(Request("prepare", {"sql": PAPER_QUERY})).payload["statement_id"]
            for _ in range(3)
        ]
        oldest = server.handle(Request("execute_prepared", {"statement_id": ids[0]}))
        assert (oldest.ok, oldest.error_kind) == (False, "protocol")  # evicted
        assert server.snapshot()["open_prepared_statements"] == 2
        newest = server.handle(Request("execute_prepared", {"statement_id": ids[2]}))
        assert newest.ok

    def test_executing_refreshes_lru_position(self, federation, monkeypatch):
        monkeypatch.setattr(MediationServer, "MAX_PREPARED_STATEMENTS", 2)
        server = MediationServer(federation)
        first = server.handle(Request("prepare", {"sql": PAPER_QUERY})).payload["statement_id"]
        second = server.handle(Request("prepare", {"sql": PAPER_QUERY})).payload["statement_id"]
        # Keep the first statement hot: it must survive the next eviction.
        assert server.handle(Request("execute_prepared", {"statement_id": first})).ok
        server.handle(Request("prepare", {"sql": PAPER_QUERY}))
        assert server.handle(Request("execute_prepared", {"statement_id": first})).ok
        assert not server.handle(Request("execute_prepared", {"statement_id": second})).ok


class TestPreparedOdbc:
    def test_prepared_statement_executes_many(self, federation):
        connection = odbc.connect(federation=federation, context="c_receiver")
        statement = connection.prepare(PAPER_QUERY)
        assert statement.branch_count == 3
        rows = [statement.execute().fetchall() for _ in range(3)]
        assert rows == [[("NTT", 9600000.0)]] * 3
        statement.close()
        with pytest.raises(ClientError):
            statement.execute()

    def test_prepared_statement_as_context_manager(self, federation):
        connection = odbc.connect(federation=federation, context="c_receiver")
        with connection.prepare(PAPER_QUERY) as statement:
            cursor = statement.execute()
            assert cursor.rowcount == 1
            assert cursor.description[0][0] == "cname"
        assert statement.statement_id is None

    def test_close_is_idempotent(self, federation):
        connection = odbc.connect(federation=federation, context="c_receiver")
        statement = connection.prepare(PAPER_QUERY)
        statement.close()
        statement.close()  # no error

    def test_prepare_uses_connection_context_by_default(self, federation):
        connection = odbc.connect(federation=federation, context="c_receiver_jpy")
        statement = connection.prepare(PAPER_QUERY)
        assert statement.receiver_context == "c_receiver_jpy"
        value = statement.execute().fetchone()[1]
        assert value == pytest.approx(1_000_000)
