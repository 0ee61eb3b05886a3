"""Tests for the gated in-process door: ``Federation.open(..., gateway=...)``.

An embedding application opens statements the way the wire server and QBE
do — at ``Federation.open`` under an :class:`AdmissionGateway` — and gets the
same admission, stream permits and accounting.
"""

import time

import pytest

from repro.demo.scenarios import build_paper_federation
from repro.errors import OverloadError
from repro.options import StatementOptions
from repro.server.gateway import AdmissionGateway, GatewayConfig

PAPER_QUERY = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 "
    "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
)
NAMES = "SELECT r1.cname FROM r1 ORDER BY r1.cname"


@pytest.fixture()
def federation():
    return build_paper_federation().federation


def _open(federation, gateway, sql, stream=True, **options):
    """One gated open in the receiver context ``c_receiver``."""
    return federation.open(sql, StatementOptions(
        receiver_context="c_receiver", **options), stream, gateway=gateway)


class TestExecute:
    def test_execute_returns_summary_with_rows(self, federation):
        cursor = _open(federation, AdmissionGateway(), PAPER_QUERY,
                       stream=False, tenant="acme")
        assert cursor.fetchall() == [("NTT", 9_600_000.0)]
        summary = cursor.summary()
        assert summary.row_count == 1
        assert summary.columns == ["cname", "revenue"]
        assert summary.branch_count == 3
        assert summary.conflicts
        assert summary.tenant == "acme"
        assert summary.elapsed_seconds > 0
        assert "scheduler" in summary.execution

    def test_execute_runs_under_the_gateway(self, federation):
        gateway = AdmissionGateway()
        _open(federation, gateway, PAPER_QUERY, stream=False).fetchall()
        load = gateway.snapshot()
        assert load["admitted"] == 1
        assert load["completed"] == 1

    def test_shared_gateway_instance_is_used(self, federation):
        gateway = AdmissionGateway(GatewayConfig(max_workers=2))
        _open(federation, gateway, PAPER_QUERY, stream=False).fetchall()
        assert gateway.snapshot()["completed"] == 1


class TestSubmit:
    def test_handle_streams_batches_and_releases_permit(self, federation):
        gateway = AdmissionGateway()
        handle = _open(federation, gateway, NAMES, batch_size=1)
        assert gateway.snapshot()["active_streams"] == 1
        batches = list(handle.batches())
        assert batches == [[("IBM",)], [("NTT",)]]
        assert handle.closed
        assert gateway.snapshot()["active_streams"] == 0
        summary = handle.summary()
        assert summary.row_count == 2
        assert not hasattr(summary, "rows")  # the rows went through the cursor

    def test_early_close_releases_permit(self, federation):
        gateway = AdmissionGateway()
        with _open(federation, gateway, "SELECT r1.cname FROM r1",
                   batch_size=1) as handle:
            assert handle.fetchmany(1)  # consume one batch, abandon the rest
        assert handle.closed
        assert gateway.snapshot()["active_streams"] == 0

    def test_fetchmany_zero_consumes_nothing(self, federation):
        """Like ``FederationCursor.fetchmany(0)``: no row, the handle open."""
        handle = _open(federation, AdmissionGateway(), NAMES, batch_size=1)
        assert handle.fetchmany(0) == []
        assert not handle.closed
        assert handle.rows_streamed == 0
        assert handle.fetchall() == [("IBM",), ("NTT",)]
        assert handle.closed

    def test_iteration_yields_rows(self, federation):
        handle = _open(federation, AdmissionGateway(), NAMES)
        assert list(handle) == [("IBM",), ("NTT",)]

    def test_submit_sheds_when_stream_permits_exhausted(self, federation):
        gateway = AdmissionGateway(GatewayConfig(max_active_streams=1))
        held = _open(federation, gateway, "SELECT r1.cname FROM r1")
        with pytest.raises(OverloadError):
            _open(federation, gateway, "SELECT r2.cname FROM r2")
        held.close()
        # Permit released: a new stream is admitted again.
        _open(federation, gateway, "SELECT r2.cname FROM r2").close()

    def test_failed_submit_releases_its_permit(self, federation):
        gateway = AdmissionGateway()
        with pytest.raises(Exception):
            _open(federation, gateway, "THIS IS NOT SQL")
        assert gateway.snapshot()["active_streams"] == 0


class TestOperations:
    def test_drain_blocks_new_statements_and_resume_reopens(self, federation):
        gateway = AdmissionGateway()
        assert gateway.drain(1.0) is True
        with pytest.raises(OverloadError):
            _open(federation, gateway, PAPER_QUERY, stream=False)
        gateway.resume()
        cursor = _open(federation, gateway, PAPER_QUERY, stream=False)
        cursor.fetchall()
        assert cursor.summary().row_count == 1

    def test_drain_waits_for_open_handles(self, federation):
        gateway = AdmissionGateway()
        handle = _open(federation, gateway, "SELECT r1.cname FROM r1")
        gateway.begin_drain()
        assert gateway.await_drain(0.1) is False  # handle still open
        handle.close()
        assert gateway.await_drain(1.0) is True


class TestAccountingBoundary:
    """A statement is booked after admission, under the tenant the gateway
    bound: a shed is not a statement, and queue wait is not its time."""

    @staticmethod
    def _booked(federation):
        metrics = federation.observability.metrics
        return (metrics.get("statements_total").value(),
                metrics.get("statement_errors_total").value(),
                len(federation.observability.log.records("slow_query")))

    @pytest.mark.parametrize("stream", [False, True])
    def test_shed_by_a_draining_gateway_books_nothing(self, federation, stream):
        federation.observability.log.slow_query_seconds = 0.0
        gateway = AdmissionGateway()
        assert gateway.drain(1.0) is True
        with pytest.raises(OverloadError):
            _open(federation, gateway, PAPER_QUERY, stream=stream)
        assert self._booked(federation) == (0, 0, 0)

    def test_shed_for_want_of_a_stream_permit_books_nothing(self, federation):
        federation.observability.log.slow_query_seconds = 0.0
        gateway = AdmissionGateway(GatewayConfig(max_active_streams=1))
        held = _open(federation, gateway, "SELECT r1.cname FROM r1")
        with pytest.raises(OverloadError):
            _open(federation, gateway, "SELECT r2.cname FROM r2")
        assert self._booked(federation) == (0, 0, 0)
        held.close()
        assert self._booked(federation) == (1, 0, 1)

    def test_slow_query_names_the_tenant_admission_bound(self, federation):
        log = federation.observability.log
        log.slow_query_seconds = 0.0
        _open(federation, AdmissionGateway(), PAPER_QUERY, stream=False).fetchall()
        _open(federation, None, PAPER_QUERY, stream=False).fetchall()
        assert [record["tenant"] for record in log.records("slow_query")] == [
            "anonymous", None]


class _QueueingGateway(AdmissionGateway):
    """Holds every request ``wait`` seconds in the queue before admitting it."""

    def __init__(self, wait):
        super().__init__()
        self.wait = wait

    def run(self, work, tenant=None, timeout_seconds=None):
        time.sleep(self.wait)
        return super().run(work, tenant=tenant, timeout_seconds=timeout_seconds)


class TestDoorOrder:
    """Root, permit, admission, statement — in that order, with the
    statement's own time starting only once it is admitted."""

    @pytest.fixture()
    def traced(self, federation):
        federation.observability.tracer.enabled = True
        return federation

    def test_statement_seconds_exclude_queue_wait(self, federation):
        wait = 0.2
        before = time.perf_counter()
        cursor = _open(federation, _QueueingGateway(wait), PAPER_QUERY,
                       stream=False)
        cursor.fetchall()
        cursor.close()
        # The cursor dates from the door, before the queue ...
        assert before <= cursor.started
        assert time.perf_counter() - cursor.started >= wait
        # ... while the booked statement time starts after admission.
        seconds = federation.observability.metrics.get("statement_seconds")
        assert seconds.count() == 1
        assert seconds.sum_observed() < wait

    def test_prepared_query_executes_under_its_own_options(self, federation):
        prepared = federation.compile(NAMES, StatementOptions(
            receiver_context="c_receiver", batch_size=1))
        cursor = federation.open(prepared, StatementOptions(tenant="acme"),
                                 gateway=AdmissionGateway())
        assert list(cursor.batches()) == [[("IBM",)], [("NTT",)]]

    def test_failed_open_finishes_its_root_with_the_error(self, traced):
        gateway = AdmissionGateway()
        with pytest.raises(Exception):
            traced.open("THIS IS NOT SQL", StatementOptions(), gateway=gateway,
                        trace_id="door-bad")
        document = traced.observability.tracer.buffer.get("door-bad")
        assert document is not None and "error" in document["flags"]
        assert gateway.snapshot()["active_streams"] == 0

    def test_root_carries_both_scopes_and_the_door(self, traced):
        cursor = traced.open(NAMES, StatementOptions(tenant="acme"),
                             gateway=AdmissionGateway(), trace_id="door-0001",
                             operation="probe")
        assert cursor.summary().trace_id == "door-0001"
        cursor.fetchall()
        cursor.close()
        document = traced.observability.tracer.buffer.get("door-0001")
        attributes = document["attributes"]
        assert {"fingerprint", "tenant", "consistency", "stream",
                "prepared", "operation"} <= set(attributes)
        assert (attributes["tenant"], attributes["stream"],
                attributes["prepared"], attributes["operation"]) == (
            "acme", True, False, "probe")
