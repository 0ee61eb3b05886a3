"""Observability end to end: span trees, metric folds, the slow-query log
and the wire exposition across federation, gated door and server layers."""

import json
import threading
import time

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.engine.executor import ExecutionReport, RequestExecution
from repro.options import StatementOptions
from repro.server.gateway import AdmissionGateway
from repro.server.http import HttpRequest
from repro.server.protocol import Request
from repro.server.server import MediationServer


@pytest.fixture()
def federation():
    return build_paper_federation().federation


@pytest.fixture()
def traced(federation):
    federation.observability.tracer.enabled = True
    return federation


def _tree_names(document):
    yield document["name"]
    for child in document.get("children", []):
        yield from _tree_names(child)


def _tree_spans(document):
    yield document
    for child in document.get("children", []):
        yield from _tree_spans(child)


class TestFederationTracing:
    def test_statement_yields_one_complete_span_tree(self, traced):
        answer = traced.query(PAPER_QUERY)
        assert [tuple(row) for row in answer.relation.rows] == [
            ("NTT", 9_600_000.0)]
        trace_id = answer.execution.report.trace_id
        assert trace_id is not None
        document = traced.observability.tracer.buffer.get(trace_id)
        assert document is not None
        names = set(_tree_names(document))
        assert {"statement", "parse", "mediate", "plan",
                "execute", "stream", "fetch"} <= names
        # Every span closed: a buffered tree is never half-open.
        assert all("open" not in span for span in _tree_spans(document))
        assert all(span["trace_id"] == trace_id
                   for span in _tree_spans(document))

    def test_tracing_is_off_by_default(self, federation):
        answer = federation.query(PAPER_QUERY)
        assert answer.execution.report.trace_id is None
        tracing = federation.observability.tracer.snapshot()
        assert tracing["enabled"] is False
        assert tracing["started"] == 0

    def test_statement_error_is_traced_and_kept(self, traced):
        traced.observability.tracer.sample_rate = 0.0
        with pytest.raises(Exception):
            traced.query("SELECT nosuch.c FROM nosuch")
        traces = traced.observability.tracer.buffer.traces()
        assert len(traces) == 1
        assert "error" in traces[0]["flags"]

    def test_statistics_fold_in_observability(self, traced):
        traced.query(PAPER_QUERY)
        statistics = traced.statistics()
        assert statistics["observability"]["tracing"]["enabled"] is True
        assert statistics["observability"]["tracing"]["finished"] == 1
        assert "slow_queries" in statistics["observability"]["log"]


class TestFederationMetrics:
    def test_metrics_are_always_live(self, federation):
        federation.query(PAPER_QUERY)
        registry = federation.observability.metrics
        assert registry.get("statements_total").value() == 1
        assert registry.get("statement_seconds").count() == 1
        assert registry.get("engine_statements_total").value() == 1
        assert registry.get("engine_source_round_trips_total").value() > 0
        assert registry.get("pipeline_prepares_total").value() == 1

    def test_function_backed_series_read_current_state(self, federation):
        registry = federation.observability.metrics
        assert registry.get("pipeline_plan_hits_total").value() == 0
        federation.query(PAPER_QUERY)
        federation.query(PAPER_QUERY)
        assert registry.get("pipeline_plan_hits_total").value() == 1
        rendered = registry.render()
        assert "coin_pipeline_plan_hits_total 1" in rendered

    def test_statement_errors_are_counted(self, federation):
        with pytest.raises(Exception):
            federation.query("SELECT nosuch.c FROM nosuch")
        assert federation.observability.metrics.get(
            "statement_errors_total").value() == 1


class TestSlowQueryLog:
    def test_slow_statement_is_logged_with_report_blocks(self, traced):
        traced.observability.log.slow_query_seconds = 0.0
        answer = traced.query(PAPER_QUERY)
        records = traced.observability.log.records("slow_query")
        assert len(records) == 1
        record = records[0]
        assert record["trace_id"] == answer.execution.report.trace_id
        assert len(record["fingerprint"]) == 16
        assert "scheduler" in record and "resilience" in record
        assert json.loads(json.dumps(record))  # wire-safe

    def test_fast_statements_stay_out_of_the_log(self, federation):
        federation.query(PAPER_QUERY)  # default threshold is 1s
        assert federation.observability.log.records("slow_query") == []


def _gated(federation, stream=True, **options):
    """``PAPER_QUERY`` opened at the gated door."""
    return federation.open(PAPER_QUERY, StatementOptions(**options), stream,
                           gateway=AdmissionGateway())


class TestServiceTraceSurfacing:
    def test_execute_summary_names_its_trace(self, traced):
        cursor = _gated(traced, stream=False, tenant="acme")
        cursor.fetchall()
        summary = cursor.summary()
        assert summary.trace_id is not None
        assert summary.trace_summary.startswith("statement(")
        document = traced.observability.tracer.buffer.get(summary.trace_id)
        assert document["attributes"]["tenant"] == "acme"
        assert "admission" in set(_tree_names(document))

    def test_submit_trace_closes_with_the_handle(self, traced):
        handle = _gated(traced, tenant="acme")
        trace_id = handle.summary().trace_id
        assert trace_id is not None
        assert traced.observability.tracer.buffer.get(trace_id) is None
        handle.fetchall()
        handle.close()
        document = traced.observability.tracer.buffer.get(trace_id)
        assert document is not None
        assert all("open" not in span for span in _tree_spans(document))

    def test_untraced_service_keeps_plain_surfaces(self, federation):
        cursor = _gated(federation, stream=False)
        cursor.fetchall()
        summary = cursor.summary()
        assert summary.trace_id is None
        assert summary.trace_summary is None


class TestServerExposition:
    def test_metrics_endpoint_serves_prometheus_text(self, federation):
        server = MediationServer(federation)
        server.handle(Request(operation="query",
                              parameters={"sql": PAPER_QUERY}))
        response = server.handle_http(
            HttpRequest("GET", MediationServer.METRICS_ENDPOINT))
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert "coin_statements_total 1" in response.body
        assert "coin_gateway_admitted_total 1" in response.body
        assert "coin_server_queries_total 1" in response.body

    def test_metrics_operation_returns_snapshot_and_exposition(self, federation):
        server = MediationServer(federation)
        response = server.handle(Request(operation="metrics"))
        assert response.ok
        assert "coin_statements_total" in response.payload["metrics"]
        assert "# TYPE coin_statements_total counter" in (
            response.payload["exposition"])

    def test_status_folds_in_observability(self, federation):
        server = MediationServer(federation)
        response = server.handle(Request(operation="status"))
        assert response.ok
        observability = response.payload["observability"]
        assert "tracing" in observability and "log" in observability

    def test_traced_request_echoes_trace_id_and_tree(self, traced):
        server = MediationServer(traced)
        response = server.handle(Request(operation="query",
                                         parameters={"sql": PAPER_QUERY}))
        assert response.ok
        trace_id = response.payload["trace_id"]
        assert trace_id is not None
        document = response.payload["trace"]
        assert document["trace_id"] == trace_id
        assert "admission" in set(_tree_names(document))

    def test_client_minted_trace_id_wins(self, traced):
        server = MediationServer(traced)
        response = server.handle(Request(operation="query",
                                         parameters={"sql": PAPER_QUERY},
                                         trace_id="client-0001"))
        assert response.payload["trace_id"] == "client-0001"
        assert traced.observability.tracer.buffer.get("client-0001") is not None


    def test_traced_explain_names_its_trace(self, traced):
        server = MediationServer(traced)
        response = server.handle(Request(operation="explain",
                                         parameters={"sql": PAPER_QUERY}))
        assert response.ok
        assert "source requests" in response.payload["plan"]
        document = traced.observability.tracer.buffer.get(
            response.payload["trace_id"])
        assert document is not None
        assert document["attributes"]["operation"] == "explain"
        assert "admission" in set(_tree_names(document))


class TestSnapshotConsistency:
    """Regression: report/statistics snapshots are point-in-time copies —
    concurrent mutation must never surface mid-change state or crash a
    mid-flight JSON serialization."""

    def test_report_snapshot_is_safe_under_concurrent_mutation(self):
        report = ExecutionReport()
        stop = threading.Event()
        failures = []

        def mutate():
            index = 0
            while not stop.is_set():
                entry = RequestExecution(
                    binding="b", wrapper_name="w", request=f"r{index}",
                    rows_returned=1, rows_after_local_filters=1,
                    elapsed_seconds=0.001)
                with report.lock:
                    report.requests.append(entry)
                with report.lock:
                    report.rows_streamed += 1
                    report.branch_rows.append(index)
                index += 1

        def observe():
            while not stop.is_set():
                try:
                    snapshot = report.snapshot()
                    json.dumps(snapshot)
                    # A request entry is appended before its row is counted,
                    # so a consistent snapshot never counts more rows than
                    # entries.
                    streamed = snapshot["streaming"]["rows_streamed"]
                    assert streamed <= snapshot["requests"]
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)
                    return

        threads = ([threading.Thread(target=mutate) for _ in range(2)]
                   + [threading.Thread(target=observe) for _ in range(2)])
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_concurrent_statements_fold_into_consistent_statistics(self, federation):
        errors = []

        def run():
            try:
                federation.query(PAPER_QUERY)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        snapshot = federation.engine.statistics.snapshot()
        assert snapshot["statements_executed"] == 6
        json.dumps(federation.statistics())
