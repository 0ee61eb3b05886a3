"""The accounting views, pinned from the outside.

Every layer's aggregate counters are read through a handful of views —
``Federation.statistics()``, ``MediationServer.snapshot()`` (the ``status``
payload), ``AdmissionGateway.snapshot()``, ``AsyncMediationServer.snapshot()``,
the per-source / temp-store / channel snapshots, and ``GET /coin/metrics``.
coinbench, the ODBC driver and the soak scripts read those keys, so this file
pins them twice:

* **golden shapes** — ordered key lists per view, and every ``# TYPE`` /
  ``# HELP`` line of the exposition for a federation + server + aio stack;
* **reconciliation** — after a mixed run (cache hits and misses, an error, a
  shed, a cursor, a spill, a socket session) every exported series equals the
  matching view key, with no tolerance.
"""

import json
import os

import pytest

from repro.coin.context import Context, ContextRegistry
from repro.coin.domain import build_financial_domain_model
from repro.coin.system import CoinSystem
from repro.federation import Federation
from repro.server import AsyncMediationServer, odbc
from repro.server.gateway import GatewayConfig
from repro.server.http import HttpRequest
from repro.server.protocol import Request
from repro.server.server import MediationServer
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

CONTEXT = "c_plain"
SQL = ("SELECT accounts.owner, accounts.balance FROM accounts "
       "WHERE accounts.balance > 5")
SORTED_SQL = ("SELECT accounts.owner, accounts.balance FROM accounts "
              "ORDER BY accounts.balance DESC")
ROWS = 600


class Stack:
    """One federation behind the wire server and the event-loop transport,
    with an operator budget small enough that ``SORTED_SQL`` spills."""

    def __init__(self):
        contexts = ContextRegistry()
        contexts.register(Context(CONTEXT, "receiver without conventions"))
        system = CoinSystem(build_financial_domain_model(), contexts,
                            name="counter-views")
        self.federation = Federation(system, default_receiver_context=CONTEXT,
                                     memory_budget_bytes=16 * 1024)
        self.ledger = MemorySQLSource("ledger")
        values = ", ".join(f"({i}, 'owner{i % 7}', {float(i)})"
                           for i in range(1, ROWS + 1))
        self.ledger.load_sql(
            "CREATE TABLE accounts (id integer, owner string, balance float)",
            f"INSERT INTO accounts VALUES {values}",
        )
        self.federation.register_wrapper(RelationalWrapper(self.ledger),
                                         estimate_rows=False)
        self.server = MediationServer(self.federation, gateway=GatewayConfig())
        self.channel = self.server.channel()
        self.aio = AsyncMediationServer(self.server).start()

    def close(self):
        self.aio.shutdown(5.0)

    def wire(self, operation, **parameters):
        return self.server.handle(Request(operation=operation,
                                          parameters=parameters))

    def mixed_run(self):
        """Hits, misses, an error, a shed, a cursor, a spill, a session."""
        federation = self.federation
        assert len(federation.query(SQL).relation) == ROWS - 5   # all misses
        assert len(federation.query(SQL).relation) == ROWS - 5   # all hits
        assert len(federation.query(SORTED_SQL).relation) == ROWS  # spills
        assert not self.wire("query", sql="SELECT nosuch.c FROM nosuch").ok
        self.server.gateway.begin_drain()
        shed = self.wire("query", sql=SQL)
        self.server.gateway.resume()
        assert shed.error_kind == "OverloadError"
        opened = self.wire("open_cursor", sql=SQL, batch_size=50)
        cursor_id = opened.payload["cursor_id"]
        assert self.wire("fetch_cursor", cursor_id=cursor_id).ok
        assert self.wire("close_cursor", cursor_id=cursor_id).ok
        connection = odbc.connect(async_server=self.aio, context=CONTEXT,
                                  transport="native")
        cursor = connection.cursor()
        cursor.execute(SQL)
        assert len(cursor.fetchall()) == ROWS - 5
        connection.close()
        body = json.dumps({"operation": "status", "parameters": {}})
        assert self.channel.post(MediationServer.ENDPOINT, body).status == 200

    def views(self):
        statistics = self.federation.statistics()
        transport = self.aio.snapshot()
        return {
            "engine": statistics["engine"],
            "pipeline": statistics["pipeline"],
            "plan_cache": statistics["pipeline"]["plan_cache"],
            "mediator": statistics["mediator"],
            "request_cache": statistics["request_cache"],
            "feedback": self.federation.engine.catalog.feedback.snapshot(),
            "server": self.server.snapshot(),
            "gateway": self.server.gateway.snapshot(),
            "aio": transport,
            "aio.connections": transport["connections"],
            "aio.sessions": transport["sessions"],
            "aio.requests": transport["requests"],
            "source": self.ledger.statistics.snapshot(),
            "storage":
                self.federation.engine.temp_store.statistics.snapshot(),
            "channel": self.channel.statistics.snapshot(),
        }

    def exposition(self):
        response = self.server.handle_http(
            HttpRequest("GET", MediationServer.METRICS_ENDPOINT))
        assert response.status == 200
        return response.body

    def type_lines(self):
        return sorted(line for line in self.exposition().splitlines()
                      if line.startswith("# TYPE "))

    def help_lines(self):
        return sorted(line for line in self.exposition().splitlines()
                      if line.startswith("# HELP "))

    def samples(self):
        """The exposition's counter and gauge samples (``name value``; the
        one labelled counter, sheds by reason, is compared through the
        registry instead)."""
        lines = self.exposition().splitlines()
        histograms = tuple(line.split()[2] + "_" for line in lines
                           if line.endswith(" histogram"))
        samples = {}
        for line in lines:
            name, _, value = line.partition(" ")
            if not (line.startswith("#") or "{" in name
                    or name.startswith(histograms)):
                samples[name] = float(value)
        return samples


@pytest.fixture(scope="module")
def stack():
    built = Stack()
    try:
        built.mixed_run()
        yield built
    finally:
        built.close()


#: Recorded on the commit before the counters moved into ``CounterSet``
#: (``view_keys``: ordered key list per view; ``type_lines`` / ``help_lines``:
#: the sorted ``# TYPE`` / ``# HELP`` lines of the exposition).
with open(os.path.join(os.path.dirname(__file__),
                       "counter_views.golden.json")) as _handle:
    GOLDEN = json.load(_handle)
VIEW_KEYS = GOLDEN["view_keys"]

#: Exported series -> (view, key) holding the same number.
SERIES = {
    "coin_engine_statements_total": ("engine", "statements_executed"),
    "coin_engine_source_round_trips_total": ("engine", "source_round_trips"),
    "coin_engine_dedup_hits_total": ("engine", "dedup_hits"),
    "coin_engine_cache_hits_total": ("engine", "cache_hits"),
    "coin_engine_rows_transferred_total": ("engine", "rows_transferred"),
    "coin_engine_rows_streamed_total": ("engine", "rows_streamed"),
    "coin_engine_cancelled_fetches_total": ("engine", "cancelled_fetches"),
    "coin_engine_source_retries_total": ("engine", "source_retries"),
    "coin_engine_failed_requests_total": ("engine", "failed_requests"),
    "coin_engine_breaker_trips_total": ("engine", "breaker_trips"),
    "coin_engine_breaker_rejections_total": ("engine", "breaker_rejections"),
    "coin_engine_degraded_branches_total": ("engine", "degraded_branches"),
    "coin_engine_bind_joins_total": ("engine", "bind_joins"),
    "coin_engine_bind_rows_avoided_total": ("engine", "bind_rows_avoided"),
    "coin_memory_spills_total": ("engine", "spill_count"),
    "coin_memory_spilled_bytes_total": ("engine", "spilled_bytes"),
    "coin_memory_peak_bytes": ("engine", "peak_memory_bytes"),
    "coin_engine_join_builds_shared_total": ("engine", "join_builds_shared"),
    "coin_pipeline_prepares_total": ("pipeline", "prepares"),
    "coin_pipeline_plan_hits_total": ("pipeline", "plan_hits"),
    "coin_pipeline_plan_misses_total": ("pipeline", "plan_misses"),
    "coin_pipeline_mediation_hits_total": ("pipeline", "mediation_hits"),
    "coin_pipeline_mediation_misses_total": ("pipeline", "mediation_misses"),
    "coin_pipeline_feedback_replans_total": ("pipeline", "feedback_replans"),
    "coin_feedback_observations_total": ("feedback", "observations"),
    "coin_feedback_epoch_bumps_total": ("feedback", "epoch_bumps"),
    "coin_feedback_epoch": ("feedback", "epoch"),
    "coin_request_cache_entries": ("request_cache", "entries"),
    "coin_server_requests_total": ("server", "requests"),
    "coin_server_queries_total": ("server", "queries"),
    "coin_server_errors_total": ("server", "errors"),
    "coin_server_requests_shed_total": ("server", "requests_shed"),
    "coin_server_cursor_fetches_total": ("server", "cursor_fetches"),
    "coin_server_rows_streamed_total": ("server", "rows_streamed"),
    "coin_server_open_prepared_statements":
        ("server", "open_prepared_statements"),
    "coin_server_open_cursors": ("server", "open_cursors"),
    "coin_gateway_arrived_total": ("gateway", "arrived"),
    "coin_gateway_admitted_total": ("gateway", "admitted"),
    "coin_gateway_completed_total": ("gateway", "completed"),
    "coin_gateway_streams_opened_total": ("gateway", "streams_opened"),
    "coin_gateway_active": ("gateway", "active"),
    "coin_gateway_queued": ("gateway", "queued"),
    "coin_gateway_active_streams": ("gateway", "active_streams"),
    "coin_aio_connections_opened_total": ("aio.connections", "opened"),
    "coin_aio_connections_refused_total": ("aio.connections", "refused"),
    "coin_aio_connections": ("aio.connections", "current"),
    "coin_aio_requests_total": ("aio.requests", "total"),
    "coin_aio_loop_sheds_total": ("aio.requests", "loop_sheds"),
    "coin_aio_sessions": ("aio.sessions", "open"),
    "coin_aio_sessions_opened_total": ("aio.sessions", "opened"),
    "coin_aio_sessions_reaped_total": ("aio.sessions", "reaped_idle"),
}

#: Series that are not a view of a snapshot key: per-statement event metrics
#: recorded inline, a configuration gauge, and in-flight state no snapshot
#: carries.
UNRECONCILED = {
    "coin_statements_total",
    "coin_statement_errors_total",
    "coin_memory_budget_bytes",
    "coin_aio_admitted_inflight",
}


class TestGoldenShapes:
    @pytest.mark.parametrize("view", sorted(VIEW_KEYS))
    def test_view_keys_and_order(self, stack, view):
        assert list(stack.views()[view]) == VIEW_KEYS[view]

    def test_every_view_is_pinned(self, stack):
        assert sorted(stack.views()) == sorted(VIEW_KEYS)

    def test_type_lines(self, stack):
        assert stack.type_lines() == GOLDEN["type_lines"]

    def test_help_lines(self, stack):
        assert stack.help_lines() == GOLDEN["help_lines"]


class TestReconciliation:
    def test_the_mixed_run_moved_every_layer(self, stack):
        views = stack.views()
        assert views["engine"]["cache_hits"] > 0
        assert views["engine"]["spill_count"] > 0
        assert views["engine"]["streams_opened"] > 0
        assert views["pipeline"]["plan_hits"] > 0
        assert views["pipeline"]["plan_misses"] > 0
        assert views["request_cache"]["hits"] > 0
        assert views["request_cache"]["misses"] > 0
        assert views["server"]["errors"] >= 2
        assert views["server"]["requests_shed"] == 1
        assert views["server"]["cursors_opened"] == 1
        assert views["gateway"]["shed"]["draining"] == 1
        assert views["aio.connections"]["opened"] == 1
        assert views["aio.sessions"]["opened"] == 1
        assert views["source"]["queries"] > 0
        assert views["storage"]["tables_created"] > 0
        assert views["channel"]["round_trips"] == 1

    def test_every_exported_series_equals_its_view_key(self, stack):
        views = stack.views()
        samples = stack.samples()
        for series, (view, key) in SERIES.items():
            assert samples[series] == views[view][key], series
        assert (stack.federation.observability.metrics
                .get("gateway_sheds_total").total()
                == views["gateway"]["shed"]["total"])

    def test_no_series_escapes_reconciliation(self, stack):
        assert sorted(stack.samples()) == sorted(set(SERIES) | UNRECONCILED)
