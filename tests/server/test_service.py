"""Tests for the in-process FederatedQueryService facade."""

import pytest

from repro.demo.scenarios import build_paper_federation
from repro.errors import OverloadError
from repro.server.gateway import AdmissionGateway, GatewayConfig
from repro.server.service import FederatedQueryService

PAPER_QUERY = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 "
    "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
)


@pytest.fixture()
def federation():
    return build_paper_federation().federation


class TestExecute:
    def test_execute_returns_summary_with_rows(self, federation):
        service = federation.service()
        summary = service.execute(PAPER_QUERY, context="c_receiver",
                                  tenant="acme")
        assert summary.rows == [("NTT", 9_600_000.0)]
        assert summary.row_count == 1
        assert summary.columns == ["cname", "revenue"]
        assert summary.branch_count == 3
        assert summary.conflicts
        assert summary.tenant == "acme"
        assert summary.elapsed_seconds > 0
        assert "scheduler" in summary.execution

    def test_execute_runs_under_the_gateway(self, federation):
        service = federation.service()
        service.execute(PAPER_QUERY, context="c_receiver")
        load = service.snapshot()["gateway"]
        assert load["admitted"] == 1
        assert load["completed"] == 1

    def test_shared_gateway_instance_is_used(self, federation):
        gateway = AdmissionGateway(GatewayConfig(max_workers=2))
        service = FederatedQueryService(federation, gateway)
        assert service.gateway is gateway
        service.execute(PAPER_QUERY, context="c_receiver")
        assert gateway.snapshot()["completed"] == 1

    def test_explain_renders_the_plan(self, federation):
        plan = federation.service().explain(PAPER_QUERY, context="c_receiver")
        assert "rows" in plan


class TestSubmit:
    def test_handle_streams_batches_and_releases_permit(self, federation):
        service = federation.service()
        handle = service.submit("SELECT r1.cname FROM r1 ORDER BY r1.cname",
                                context="c_receiver", batch_size=1)
        assert service.snapshot()["gateway"]["active_streams"] == 1
        batches = list(handle.batches())
        assert batches == [[("IBM",)], [("NTT",)]]
        assert handle.closed
        assert service.snapshot()["gateway"]["active_streams"] == 0
        summary = handle.summary()
        assert summary.row_count == 2
        assert summary.rows is None  # streamed, not materialized

    def test_early_close_releases_permit(self, federation):
        service = federation.service()
        with service.submit("SELECT r1.cname FROM r1", context="c_receiver",
                            batch_size=1) as handle:
            assert handle.fetchmany(1)  # consume one batch, abandon the rest
        assert handle.closed
        assert service.snapshot()["gateway"]["active_streams"] == 0

    def test_fetchmany_zero_consumes_nothing(self, federation):
        """Like ``FederationCursor.fetchmany(0)``: no row, the handle open."""
        service = federation.service()
        handle = service.submit("SELECT r1.cname FROM r1 ORDER BY r1.cname",
                                context="c_receiver", batch_size=1)
        assert handle.fetchmany(0) == []
        assert not handle.closed
        assert handle.rows_streamed == 0
        assert handle.fetchall() == [("IBM",), ("NTT",)]
        assert handle.closed

    def test_iteration_yields_rows(self, federation):
        service = federation.service()
        handle = service.submit("SELECT r1.cname FROM r1 ORDER BY r1.cname",
                                context="c_receiver")
        assert list(handle) == [("IBM",), ("NTT",)]

    def test_submit_sheds_when_stream_permits_exhausted(self, federation):
        service = FederatedQueryService(
            federation, GatewayConfig(max_active_streams=1))
        held = service.submit("SELECT r1.cname FROM r1", context="c_receiver")
        with pytest.raises(OverloadError):
            service.submit("SELECT r2.cname FROM r2", context="c_receiver")
        held.close()
        # Permit released: a new stream is admitted again.
        service.submit("SELECT r2.cname FROM r2", context="c_receiver").close()

    def test_failed_submit_releases_its_permit(self, federation):
        service = federation.service()
        with pytest.raises(Exception):
            service.submit("THIS IS NOT SQL", context="c_receiver")
        assert service.snapshot()["gateway"]["active_streams"] == 0


class TestOperations:
    def test_drain_blocks_new_statements_and_resume_reopens(self, federation):
        service = federation.service()
        assert service.drain(1.0) is True
        with pytest.raises(OverloadError):
            service.execute(PAPER_QUERY, context="c_receiver")
        service.resume()
        assert service.execute(PAPER_QUERY, context="c_receiver").row_count == 1

    def test_drain_waits_for_open_handles(self, federation):
        service = federation.service()
        handle = service.submit("SELECT r1.cname FROM r1", context="c_receiver")
        service.gateway.begin_drain()
        assert service.gateway.await_drain(0.1) is False  # handle still open
        handle.close()
        assert service.gateway.await_drain(1.0) is True
