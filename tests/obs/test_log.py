"""Unit tests for the JSON-lines event log and the slow-query family."""

import io
import json

import pytest

from repro.engine.resilience import ManualClock
from repro.obs.log import EventLog

#: A statement's AST fingerprint, as the pipeline hands it to the log.
FINGERPRINT = "9f2c" * 16


class TestEmit:
    def test_records_are_json_serializable(self):
        log = EventLog(clock=ManualClock(start=12.5))
        record = log.emit("drain", reason="shutdown")
        assert record == {"event": "drain", "at": 12.5, "reason": "shutdown"}
        assert json.loads(log.lines()[0]) == record

    def test_stream_mirrors_one_line_per_record(self):
        stream = io.StringIO()
        log = EventLog(stream=stream, clock=ManualClock())
        log.emit("a", n=1)
        log.emit("b", n=2)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]

    def test_capacity_bounds_the_ring(self):
        log = EventLog(capacity=2, clock=ManualClock())
        for index in range(5):
            log.emit("tick", n=index)
        assert [r["n"] for r in log.records()] == [3, 4]
        assert log.emitted == 5

    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestSlowQueryLog:
    def test_fast_statements_are_not_logged(self):
        log = EventLog(slow_query_seconds=1.0, clock=ManualClock())
        assert log.statement_finished(0.1, FINGERPRINT) is None
        assert log.records() == []
        assert log.snapshot()["slow_queries"] == 0

    def test_fast_statements_never_pay_for_a_snapshot(self):
        log = EventLog(slow_query_seconds=1.0, clock=ManualClock())
        called = []

        def snapshot():
            called.append(True)
            return {"scheduler": {}}

        log.statement_finished(0.1, FINGERPRINT, report=snapshot)
        assert called == []
        log.statement_finished(2.0, FINGERPRINT, report=snapshot)
        assert called == [True]

    def test_slow_statement_record_shape(self):
        log = EventLog(slow_query_seconds=1.0, clock=ManualClock())
        record = log.statement_finished(
            2.5, FINGERPRINT, tenant="acme",
            trace_id="t00000101deadbeef",
            report={"scheduler": {"cache_hits": 1},
                    "resilience": {"retries": 2},
                    "optimizer": {"strategy": "greedy"},
                    "requests": ["dropped -- not a diagnosis block"]},
        )
        assert record["event"] == "slow_query"
        assert record["elapsed_seconds"] == 2.5
        assert record["threshold_seconds"] == 1.0
        assert record["tenant"] == "acme"
        assert record["trace_id"] == "t00000101deadbeef"
        assert record["fingerprint"] == FINGERPRINT
        assert record["scheduler"] == {"cache_hits": 1}
        assert record["resilience"] == {"retries": 2}
        assert record["optimizer"] == {"strategy": "greedy"}
        # The bulky request list never reaches the log.
        assert "requests" not in record
        assert log.snapshot()["slow_queries"] == 1

    def test_text_that_did_not_parse_is_logged_with_a_null_fingerprint(self):
        log = EventLog(slow_query_seconds=10.0, clock=ManualClock())
        record = log.statement_finished(0.01, None, error="SQLSyntaxError: at 1")
        assert record["fingerprint"] is None
        assert json.loads(log.lines("slow_query")[0])["fingerprint"] is None

    def test_errors_are_logged_even_when_fast(self):
        log = EventLog(slow_query_seconds=10.0, clock=ManualClock())
        record = log.statement_finished(0.01, FINGERPRINT,
                                        error="SourceError: dead")
        assert record["error"] == "SourceError: dead"
        assert log.records("slow_query") == [record]

    def test_lines_are_greppable_json(self):
        log = EventLog(slow_query_seconds=0.0, clock=ManualClock())
        log.statement_finished(0.5, FINGERPRINT, tenant="acme")
        for line in log.lines("slow_query"):
            parsed = json.loads(line)
            assert parsed["event"] == "slow_query"
            assert parsed["tenant"] == "acme"
