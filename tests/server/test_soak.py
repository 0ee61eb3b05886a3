"""Sustained-load chaos soak, short deterministic variant (``-m soak``).

Runs the same closed-loop overload scenario as the ``sustained_load``
benchmark — many concurrent tenants against few workers over fault-injected
sources — at smoke sizes, and asserts the robustness invariants the full soak
gates on: every shed is a fast retriable :class:`~repro.errors.OverloadError`,
no admitted request waited in queue past its deadline, every accepted answer
is digest-identical to serial execution, and the server drains to zero with
no leaked cursors, streaming permits, temp-store staging or budget bytes.

The suite is parameterized over both serving transports: ``threads`` (each
client calls straight into the server in process) and ``aio`` (every client
holds a persistent framed-protocol socket served by the
:class:`~repro.server.aio.AsyncMediationServer` event loop).  The overload
contract must hold identically on both.
"""

import os
import sys

import pytest

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

from bench_hotpath import bench_sustained_load

pytestmark = pytest.mark.soak


@pytest.fixture(scope="module", params=["threads", "aio"],
                ids=["transport-threads", "transport-aio"])
def soak_result(request):
    return bench_sustained_load(smoke=True, transport=request.param)


class TestSustainedLoadSoak:
    def test_overload_is_shed_not_failed(self, soak_result):
        assert soak_result["accepted"] + soak_result["shed"] == soak_result["requests"]
        assert soak_result["failed"] == 0, soak_result["failures_by_kind"]
        assert soak_result["sheds_all_retriable"] is True

    def test_accepted_answers_identical_to_serial(self, soak_result):
        assert soak_result["accepted"] > 0
        assert soak_result["answers_identical_to_serial"] is True

    def test_no_admitted_request_waited_past_its_deadline(self, soak_result):
        assert (soak_result["max_queue_wait_seconds"]
                <= soak_result["timeout_seconds"] + 0.05)

    def test_worker_and_stream_bounds_held(self, soak_result):
        assert soak_result["peak_active"] <= soak_result["workers"]
        assert soak_result["peak_active_streams"] <= soak_result["stream_permits"]

    def test_post_soak_drain_is_complete(self, soak_result):
        assert soak_result["drained"] is True
        assert soak_result["post_soak_open_cursors"] == 0
        assert soak_result["post_soak_active"] == 0
        assert soak_result["post_soak_queued"] == 0
        assert soak_result["post_soak_active_streams"] == 0
        assert soak_result["post_soak_temp_handles"] == 0
        assert soak_result["post_soak_budget_zero"] is True

    def test_faults_were_actually_injected(self, soak_result):
        # The soak is only meaningful if the chaos schedules fired.
        injected = soak_result["injected"]
        total = sum(
            counters["injected_failures"] + counters["injected_cuts"]
            + counters["injected_spikes"]
            for counters in injected.values()
        )
        assert total > 0, injected

    def test_async_transport_served_and_released_every_connection(
            self, soak_result):
        if soak_result["transport"] != "aio":
            pytest.skip("threaded transport has no event-loop connections")
        stats = soak_result["async_transport"]
        # One persistent socket per client thread, all closed by the drain.
        assert stats["connections"]["opened"] >= soak_result["threads"]
        assert stats["connections"]["current"] == 0
        assert stats["sessions"]["open"] == 0
        assert stats["requests"]["total"] >= soak_result["accepted"]


class TestStreamReleaseRegression:
    """Closing a part-consumed sort-heavy stream releases everything.

    Regression for the leak the soak audit found: a stream closed after one
    ``fetchmany`` kept its sorted spill run staged in the
    :class:`~repro.relational.storage.TemporaryStore` and its buffered rows
    booked against the memory budget.
    """

    def test_closed_stream_leaves_no_staging_or_budget(self):
        from repro.engine.engine import MultiDatabaseEngine
        from repro.sources.memory import MemorySQLSource
        from repro.wrappers.wrapper import RelationalWrapper

        source = MemorySQLSource("leaky")
        values = ", ".join(f"({k}, {float((k * 7919) % 104729)})"
                           for k in range(2000))
        source.load_sql(
            "CREATE TABLE t (k integer, v float)",
            f"INSERT INTO t VALUES {values}",
        )
        engine = MultiDatabaseEngine()
        engine.register_wrapper(RelationalWrapper(source))

        stream = engine.execute_stream(
            "SELECT t.k, t.v FROM t ORDER BY t.v DESC"
        )
        budget = stream.budget
        first = stream.fetchmany(1)
        assert len(first) == 1
        assert budget.used_bytes > 0  # the sort staged the whole relation
        stream.close()
        assert budget.used_bytes == 0
        assert engine.temp_store.handles == []
