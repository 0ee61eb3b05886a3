"""Unit tests for the tracing core: spans, sampling, the trace buffer.

Everything here runs on a ManualClock — durations are asserted exactly,
never via sleeps — and every sampling decision is seeded, so a rerun keeps
exactly the same traces.
"""

import json
import threading

import pytest

from repro.engine.resilience import ManualClock
from repro.obs.trace import (
    NULL_SPAN,
    TraceBuffer,
    Tracer,
    bind_tenant,
    current_span,
    current_tenant,
    deactivate_span,
    unbind_tenant,
)


class TestNullSpan:
    def test_disabled_tracer_hands_out_the_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.start_trace("statement")
        assert span is NULL_SPAN
        assert not span.recording

    def test_every_operation_is_a_self_returning_noop(self):
        span = NULL_SPAN.child("x").annotate(a=1).event("e").flag("error")
        assert span is NULL_SPAN
        assert NULL_SPAN.finish() is None
        assert NULL_SPAN.activate() is None
        assert NULL_SPAN.to_dict() == {}

    def test_ambient_span_defaults_to_null(self):
        assert current_span() is NULL_SPAN

    def test_null_span_as_context_manager(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN


class TestSpanTree:
    def test_durations_come_from_the_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        root = tracer.start_trace("statement")
        clock.sleep(0.25)
        child = root.child("parse")
        clock.sleep(0.5)
        child.finish()
        clock.sleep(0.25)
        root.finish()
        assert child.duration_seconds() == 0.5
        assert root.duration_seconds() == 1.0

    def test_tree_structure_and_export(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement", operation="query")
        root.child("parse").finish()
        execute = root.child("execute")
        execute.annotate(rows=3)
        execute.event("first_row", rows=1)
        execute.finish()
        root.finish()

        document = root.to_dict()
        assert document["name"] == "statement"
        assert document["attributes"] == {"operation": "query"}
        assert [c["name"] for c in document["children"]] == ["parse", "execute"]
        exported = document["children"][1]
        assert exported["attributes"] == {"rows": 3}
        assert exported["events"][0]["name"] == "first_row"
        assert exported["parent_id"] == document["span_id"]
        assert all(c["trace_id"] == document["trace_id"]
                   for c in document["children"])

    def test_walk_and_open_spans(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement")
        child = root.child("execute")
        grandchild = child.child("fetch")
        assert [s.name for s in root.walk()] == ["statement", "execute", "fetch"]
        assert {s.name for s in root.open_spans()} == {"statement", "execute",
                                                       "fetch"}
        grandchild.finish()
        child.finish()
        assert [s.name for s in root.open_spans()] == ["statement"]
        root.finish()
        assert root.open_spans() == []

    def test_unfinished_spans_export_as_open(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement")
        assert root.to_dict()["open"] is True
        root.finish()
        assert "open" not in root.to_dict()

    def test_finish_is_idempotent(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        root = tracer.start_trace("statement")
        clock.sleep(1.0)
        root.finish()
        clock.sleep(1.0)
        root.finish()
        assert root.duration_seconds() == 1.0
        assert tracer.finished == 1
        assert tracer.buffer.kept == 1

    def test_error_finish_records_and_flags(self):
        tracer = Tracer(clock=ManualClock(), sample_rate=0.0)
        root = tracer.start_trace("statement")
        root.finish(error=ValueError("boom"))
        assert root.error == "ValueError: boom"
        # Errors force-keep the trace regardless of the head decision.
        document = tracer.buffer.get(root.trace_id)
        assert document is not None
        assert document["flags"] == ["error"]

    def test_summary_renders_one_line(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        root = tracer.start_trace("statement")
        root.child("parse").finish()
        root.child("execute").finish()
        clock.sleep(0.0123)
        root.finish()
        assert root.summary() == "statement(12.3ms: parse, execute)"

    def test_concurrent_children_from_worker_threads(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement")
        execute = root.child("execute")

        def fetch(index):
            span = execute.child(f"fetch#{index}")
            span.annotate(rows=index)
            span.finish()

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        execute.finish()
        root.finish()
        assert len(execute.children) == 8
        assert root.open_spans() == []


class TestSampling:
    def test_client_minted_trace_id_is_adopted(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement", trace_id="odbc0001deadbeef")
        assert root.trace_id == "odbc0001deadbeef"

    def test_minted_trace_ids_are_unique(self):
        tracer = Tracer(clock=ManualClock())
        ids = {tracer.start_trace("statement").trace_id for _ in range(100)}
        assert len(ids) == 100

    def test_head_sampling_is_deterministic_per_seed(self):
        def kept_ids(seed):
            tracer = Tracer(clock=ManualClock(), sample_rate=0.5, seed=seed,
                            buffer_capacity=512)
            for _ in range(200):
                tracer.start_trace("statement").finish()
            return {t["trace_id"] for t in tracer.buffer.traces()}

        first, second = kept_ids(7), kept_ids(7)
        assert first == second
        assert 0 < len(first) < 200  # actually sampling, not all-or-nothing

    def test_sample_rate_zero_drops_and_counts(self):
        tracer = Tracer(clock=ManualClock(), sample_rate=0.0)
        tracer.start_trace("statement").finish()
        assert len(tracer.buffer) == 0
        assert tracer.buffer.dropped_unsampled == 1

    def test_descendant_flag_bubbles_and_forces_keep(self):
        tracer = Tracer(clock=ManualClock(), sample_rate=0.0)
        root = tracer.start_trace("statement")
        stream = root.child("execute").child("stream")
        stream.flag("partial")
        stream.finish()
        root.finish()
        document = tracer.buffer.get(root.trace_id)
        assert document is not None
        assert document["flags"] == ["partial"]

    def test_slow_statements_are_force_kept(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, sample_rate=0.0, slow_seconds=1.0)
        fast = tracer.start_trace("statement")
        clock.sleep(0.5)
        fast.finish()
        slow = tracer.start_trace("statement")
        clock.sleep(1.5)
        slow.finish()
        assert tracer.buffer.get(fast.trace_id) is None
        assert "slow" in tracer.buffer.get(slow.trace_id)["flags"]

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestTraceBuffer:
    def test_capacity_evicts_oldest(self):
        tracer = Tracer(clock=ManualClock(), buffer_capacity=2)
        roots = []
        for _ in range(3):
            root = tracer.start_trace("statement")
            root.finish()
            roots.append(root)
        buffer = tracer.buffer
        assert len(buffer) == 2
        assert buffer.evicted == 1
        assert buffer.get(roots[0].trace_id) is None
        assert buffer.get(roots[2].trace_id) is not None

    def test_export_json_round_trips(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement")
        root.child("parse").finish()
        root.finish()
        exported = json.loads(tracer.buffer.export_json())
        assert len(exported["traces"]) == 1
        assert exported["traces"][0]["children"][0]["name"] == "parse"

    def test_snapshot_counters(self):
        tracer = Tracer(clock=ManualClock(), sample_rate=0.0)
        tracer.start_trace("statement").finish()
        error = tracer.start_trace("statement")
        error.finish(error=RuntimeError("x"))
        snapshot = tracer.buffer.snapshot()
        assert snapshot["kept"] == 1
        assert snapshot["dropped_unsampled"] == 1
        assert snapshot["buffered"] == 1

    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestContextPropagation:
    def test_activate_installs_and_deactivate_restores(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement")
        token = root.activate()
        assert current_span() is root
        deactivate_span(token)
        assert current_span() is NULL_SPAN

    def test_with_block_scopes_the_ambient_span(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement")
        with root:
            with root.child("parse") as parse:
                assert current_span() is parse
            assert current_span() is root
        assert current_span() is NULL_SPAN
        assert not root.open

    def test_tracer_span_nests_under_the_ambient_span(self):
        tracer = Tracer(clock=ManualClock())
        assert tracer.span("orphan") is NULL_SPAN  # no ambient parent
        root = tracer.start_trace("statement")
        token = root.activate()
        child = tracer.span("parse")
        assert child.parent_id == root.span_id
        deactivate_span(token)

    def test_ambient_span_does_not_cross_threads(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_trace("statement")
        token = root.activate()
        seen = []
        thread = threading.Thread(target=lambda: seen.append(current_span()))
        thread.start()
        thread.join()
        # Worker threads must receive their parent span explicitly.
        assert seen == [NULL_SPAN]
        deactivate_span(token)

    def test_tenant_binding_restores_on_unbind(self):
        assert current_tenant() is None
        token = bind_tenant("acme")
        assert current_tenant() == "acme"
        unbind_tenant(token)
        assert current_tenant() is None
