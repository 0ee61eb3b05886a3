"""Chaos trace correctness: span trees under deterministic fault injection.

A trace is only trustworthy if it reconciles with the execution report it
narrates: every resilience attempt must appear as exactly one ``attempt``
span, a statement killed mid-stream must still close every span it opened,
and degraded/failed statements must be force-kept whatever the head-sampling
decision said.  The federation under test is the paper's worked example with
the exchange-rate web source behind a seeded fault injector, so every
schedule replays identically.
"""

import pytest

from repro.demo.datasets import PAPER_QUERY, paper_r1, paper_r2
from repro.demo.scenarios import build_exchange_wrapper, build_paper_coin_system
from repro.engine.resilience import ResiliencePolicy, RetryPolicy
from repro.errors import ReproError
from repro.federation import Federation
from repro.obs import Observability
from repro.server import odbc
from repro.server.aio import AsyncMediationServer
from repro.server.server import MediationServer
from repro.sources.faults import FaultInjectingSource, FaultSchedule
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

pytestmark = pytest.mark.chaos

PAPER_ANSWER = [("NTT", 9_600_000.0)]

#: Fast deterministic retries (no wall-clock stalls in the suite).
FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay_seconds=0.001,
                           max_delay_seconds=0.01, jitter=0.25, seed=42)


def _federation(schedule, sample_rate=1.0):
    """The Figure-2 federation, exchange behind faults, tracing on."""
    federation = Federation(
        build_paper_coin_system(), default_receiver_context="c_receiver",
        name="paper-chaos-trace",
        resilience=ResiliencePolicy(retry_policy=FAST_RETRIES),
        observability=Observability(tracing=True, sample_rate=sample_rate),
    )
    source1 = MemorySQLSource("source1")
    source1.add_relation(paper_r1())
    source2 = MemorySQLSource("source2")
    source2.add_relation(paper_r2())
    federation.register_wrapper(RelationalWrapper(source1))
    federation.register_wrapper(RelationalWrapper(source2))
    flaky = FaultInjectingSource(build_exchange_wrapper(), schedule)
    federation.register_wrapper(flaky, estimate_rows=False)
    return federation, flaky


def _spans(document):
    yield document
    for child in document.get("children", []):
        yield from _spans(child)


def _named(document, name):
    return [span for span in _spans(document) if span["name"] == name]


class TestAttemptSpansReconcile:
    def test_one_attempt_span_per_resilience_attempt(self):
        federation, flaky = _federation(FaultSchedule(fail_first=2))
        answer = federation.query(PAPER_QUERY)
        assert [tuple(row) for row in answer.relation.rows] == PAPER_ANSWER

        resilience = answer.execution.report.snapshot()["resilience"]
        assert resilience["retries"] == 2
        assert flaky.snapshot()["injected_failures"] == 2

        document = federation.observability.tracer.buffer.get(
            answer.execution.report.trace_id)
        assert document is not None
        attempts = _named(document, "attempt")
        fetches = _named(document, "fetch")
        assert len(attempts) == resilience["attempts"]
        assert len(attempts) == len(fetches) + resilience["retries"]
        # Failed attempts carry their injected error; the final ones do not.
        failed = [span for span in attempts if "error" in span]
        assert len(failed) == resilience["retries"]
        assert all("injected fault" in span["error"] for span in failed)
        assert all("breaker_state" in span["attributes"] for span in attempts)

    def test_fault_free_run_has_exactly_one_attempt_per_fetch(self):
        federation, _ = _federation(FaultSchedule())
        answer = federation.query(PAPER_QUERY)
        resilience = answer.execution.report.snapshot()["resilience"]
        assert resilience["retries"] == 0
        document = federation.observability.tracer.buffer.get(
            answer.execution.report.trace_id)
        assert len(_named(document, "attempt")) == resilience["attempts"]
        assert len(_named(document, "attempt")) == len(_named(document, "fetch"))


class TestMidStreamDeath:
    def test_cut_statement_closes_every_span(self):
        federation, _ = _federation(FaultSchedule(cut_every=1))
        with pytest.raises(ReproError):
            federation.query(PAPER_QUERY)
        traces = federation.observability.tracer.buffer.traces()
        assert len(traces) == 1
        document = traces[0]
        assert "error" in document["flags"]
        # Mid-stream death must not leak half-open spans into the buffer.
        assert all("open" not in span for span in _spans(document)), (
            [span["name"] for span in _spans(document) if "open" in span])

    def test_streaming_cursor_cut_closes_every_span(self):
        federation, _ = _federation(FaultSchedule(cut_every=1))
        cursor = federation.query(PAPER_QUERY, stream=True)
        with pytest.raises(ReproError):
            while cursor.fetchmany(16):
                pass
        cursor.close()
        traces = federation.observability.tracer.buffer.traces()
        assert len(traces) == 1
        assert all("open" not in span for span in _spans(traces[0]))


class TestForcedKeeps:
    def test_partial_answer_is_kept_despite_zero_sampling(self):
        federation, _ = _federation(
            FaultSchedule(permanent_outage_after=1), sample_rate=0.0)
        answer = federation.query(PAPER_QUERY, on_source_error="partial")
        resilience = answer.execution.report.snapshot()["resilience"]
        assert resilience["degraded_branches"]
        traces = federation.observability.tracer.buffer.traces()
        assert len(traces) == 1
        assert "partial" in traces[0]["flags"]

    def test_failed_statement_is_kept_despite_zero_sampling(self):
        federation, _ = _federation(
            FaultSchedule(permanent_outage_after=1), sample_rate=0.0)
        with pytest.raises(ReproError):
            federation.query(PAPER_QUERY)
        traces = federation.observability.tracer.buffer.traces()
        assert len(traces) == 1
        assert "error" in traces[0]["flags"]

    def test_healthy_statement_is_dropped_at_zero_sampling(self):
        federation, _ = _federation(FaultSchedule(), sample_rate=0.0)
        federation.query(PAPER_QUERY)
        assert federation.observability.tracer.buffer.traces() == []
        assert federation.observability.tracer.buffer.dropped_unsampled == 1


class TestEndToEndOverAio:
    """One statement through the whole stack — ODBC driver, event-loop
    transport, admission gateway, engine, flaky source — must come back as
    one connected tree whose counts reconcile with the engine's."""

    def test_odbc_trace_reconciles_across_the_event_loop(self):
        federation, flaky = _federation(FaultSchedule(fail_first=2))
        aio = AsyncMediationServer(MediationServer(federation)).start()
        try:
            connection = odbc.connect(async_server=aio, transport="native",
                                      tenant="acme")
            cursor = connection.cursor()
            cursor.execute(PAPER_QUERY)
            assert cursor.fetchall() == PAPER_ANSWER

            # The client-minted id names the tree end to end.
            assert cursor.trace_id == connection.last_trace_id
            assert cursor.trace_id.startswith("odbc")
            document = cursor.trace
            assert document is not None
            assert document["trace_id"] == cursor.trace_id
            assert all(span["trace_id"] == cursor.trace_id
                       for span in _spans(document))
            assert document["attributes"]["operation"] == "query"
            names = {span["name"] for span in _spans(document)}
            assert {"statement", "admission", "execute", "stream",
                    "fetch", "attempt"} <= names

            # Counts reconcile with the engine: fail_first=2 means exactly
            # two extra attempts beyond one per fetch span.
            attempts = _named(document, "attempt")
            fetches = _named(document, "fetch")
            assert len(attempts) == len(fetches) + 2
            assert flaky.snapshot()["injected_failures"] == 2
            engine_stats = federation.engine.statistics.snapshot()
            assert engine_stats["source_retries"] == 2

            # The scrapeable registry saw the same statement.
            metrics = connection.metrics()["metrics"]
            assert metrics["coin_statements_total"] == 1
            assert metrics["coin_engine_source_retries_total"] == 2
            assert metrics["coin_gateway_admitted_total"] >= 1
            connection.close()
        finally:
            aio.shutdown(5.0)
