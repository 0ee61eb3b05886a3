"""Chaos at the wire: cursor cleanup and degraded answers across the stack.

The federation under test is the paper's worked example with the exchange-rate
web source behind a deterministic fault injector.  Mediation rewrites the
receiver query into three branches; only the conversion branches touch the
exchange source, so a dead exchange site kills the statement *mid-stream* —
after the cursor opened on the first (exchange-free) branch, before the
conversion branches were staged.  That death must not leak server state
through any of the three transports:

* protocol cursors are discarded on the failing fetch (the registry does not
  hold a poisoned handle, staged temporaries are released);
* the chunked HTTP endpoint reports the failure as a 422 and closes the
  stream;
* the ODBC driver surfaces a ``ClientError`` and stays closeable.

The same stack, asked for ``on_source_error="partial"``, answers from the
surviving branch and labels the degradation in the execution report.
"""

import json

import pytest

from repro.demo.datasets import PAPER_QUERY, paper_r1, paper_r2
from repro.demo.scenarios import (
    build_exchange_wrapper,
    build_paper_coin_system,
    build_paper_federation,
)
from repro.engine.resilience import ResiliencePolicy, RetryPolicy
from repro.errors import ClientError
from repro.federation import Federation
from repro.server import odbc
from repro.server.protocol import Request
from repro.server.server import MediationServer
from repro.sources.faults import FaultInjectingSource, FaultSchedule
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

pytestmark = pytest.mark.chaos


def _federation(schedule):
    """The Figure-2 federation with the exchange wrapper behind faults."""
    federation = Federation(
        build_paper_coin_system(), default_receiver_context="c_receiver",
        name="paper-chaos",
        resilience=ResiliencePolicy(retry_policy=RetryPolicy(
            max_attempts=2, base_delay_seconds=0.001, max_delay_seconds=0.01)),
    )
    source1 = MemorySQLSource("source1")
    source1.add_relation(paper_r1())
    source2 = MemorySQLSource("source2")
    source2.add_relation(paper_r2())
    federation.register_wrapper(RelationalWrapper(source1))
    federation.register_wrapper(RelationalWrapper(source2))
    flaky = FaultInjectingSource(build_exchange_wrapper(), schedule)
    federation.register_wrapper(flaky, estimate_rows=False)
    return federation


def _dead_pair():
    federation = _federation(FaultSchedule(permanent_outage_after=1))
    return federation, MediationServer(federation)


class TestProtocolCursorCleanup:
    def test_mid_stream_death_discards_cursor_and_temporaries(self):
        federation, server = _dead_pair()
        opened = server.handle(Request(operation="open_cursor",
                                       parameters={"sql": PAPER_QUERY}))
        assert opened.ok, opened.error

        fetched = server.handle(Request(
            operation="fetch_cursor",
            parameters={"cursor_id": opened.payload["cursor_id"], "count": 100},
        ))
        assert not fetched.ok
        assert "permanently out" in fetched.error
        assert "exchange" in fetched.error  # the failure names its wrapper

        # The poisoned cursor is gone, not lingering in the registry...
        again = server.handle(Request(
            operation="fetch_cursor",
            parameters={"cursor_id": opened.payload["cursor_id"]},
        ))
        assert "unknown or closed cursor" in again.error
        assert server.snapshot()["open_cursors"] == 0
        # ...and its staged temporaries were released with it.
        assert federation.engine.temp_store.handles == []

    def test_partial_mode_streams_surviving_branch_with_label(self):
        federation, server = _dead_pair()
        opened = server.handle(Request(
            operation="open_cursor",
            parameters={"sql": PAPER_QUERY, "on_source_error": "partial"},
        ))
        assert opened.ok, opened.error
        fetched = server.handle(Request(
            operation="fetch_cursor",
            parameters={"cursor_id": opened.payload["cursor_id"], "count": 100},
        ))
        assert fetched.ok, fetched.error
        # Only the conversion branches (which need exchange rates) could
        # produce the NTT answer: the surviving USD branch is empty, but the
        # degradation is labelled — never a silent wrong answer.
        assert fetched.payload["done"] is True
        resilience = fetched.payload["execution"]["resilience"]
        assert resilience["mode"] == "partial"
        assert resilience["degraded_branches"]
        assert {entry["wrapper"] for entry in resilience["degraded_branches"]} == {"exchange"}
        assert all("permanently out" in entry["error"] or "circuit" in entry["error"]
                   for entry in resilience["degraded_branches"])

    def test_invalid_timeout_is_rejected_at_the_protocol(self):
        _, server = _dead_pair()
        response = server.handle(Request(
            operation="query",
            parameters={"sql": PAPER_QUERY, "timeout_seconds": "not-a-number"},
        ))
        assert not response.ok
        assert "timeout_seconds" in response.error


class TestChunkedHttpCleanup:
    def test_mid_stream_death_is_a_422_with_no_leaked_state(self):
        federation, server = _dead_pair()
        channel = server.channel()
        request = Request(operation="query",
                          parameters={"sql": PAPER_QUERY, "batch_size": 5})
        response = channel.post(MediationServer.STREAM_ENDPOINT, request.to_json())
        assert response.status == 422
        body = json.loads(response.body)
        assert not body["ok"]
        assert "permanently out" in body["error"]
        assert federation.engine.temp_store.handles == []

    def test_partial_mode_streams_to_a_labelled_summary(self):
        _, server = _dead_pair()
        channel = server.channel()
        request = Request(operation="query",
                          parameters={"sql": PAPER_QUERY, "batch_size": 5,
                                      "on_source_error": "partial"})
        response = channel.post(MediationServer.STREAM_ENDPOINT, request.to_json())
        assert response.status == 200
        summary = json.loads(response.chunks[-1])
        assert summary["done"] is True
        resilience = summary["execution"]["resilience"]
        assert {entry["wrapper"] for entry in resilience["degraded_branches"]} == {"exchange"}


class TestOdbcCleanup:
    def test_mid_stream_death_surfaces_as_client_error(self):
        federation, server = _dead_pair()
        connection = odbc.connect(server=server)
        cursor = connection.cursor().execute(PAPER_QUERY, stream=True, batch_size=5)
        with pytest.raises(ClientError, match="permanently out"):
            cursor.fetchall()
        cursor.close()
        cursor.close()  # idempotent even after the stream died
        assert server.snapshot()["open_cursors"] == 0
        assert federation.engine.temp_store.handles == []

    def test_partial_mode_answers_through_the_driver(self):
        _, server = _dead_pair()
        connection = odbc.connect(server=server)
        cursor = connection.cursor().execute(PAPER_QUERY, on_source_error="partial")
        assert cursor.fetchall() == []  # surviving branch alone: no USD row wins
        resilience = cursor.execution["resilience"]
        assert {entry["wrapper"] for entry in resilience["degraded_branches"]} == {"exchange"}

    def test_retried_transient_failure_is_invisible_to_the_client(self):
        federation = _federation(FaultSchedule(fail_first=1))
        server = MediationServer(federation)
        expected = build_paper_federation().federation.query(PAPER_QUERY)
        rows = odbc.connect(server=server).cursor().execute(PAPER_QUERY).fetchall()
        assert rows == [tuple(row) for row in expected.relation.rows]
        assert federation.engine.statistics.snapshot()["source_retries"] >= 1
