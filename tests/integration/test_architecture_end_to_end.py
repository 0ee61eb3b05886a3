"""Integration test for experiment E2: the full architecture of Figure 1.

A query travels client → ODBC driver → HTTP tunnel → mediation server →
context mediator → multi-database engine → wrappers → sources, and the
relational answer travels all the way back.  The same checks are repeated for
the HTML QBE front end.
"""

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.server import MediationServer, QBEInterface, connect


@pytest.fixture(scope="module")
def scenario():
    return build_paper_federation()


@pytest.fixture(scope="module")
def server(scenario):
    return MediationServer(scenario.federation)


class TestOdbcPath:
    def test_full_stack_query(self, scenario, server):
        connection = connect(server=server, context="c_receiver")
        cursor = connection.cursor()
        cursor.execute(PAPER_QUERY)
        assert cursor.fetchall() == [("NTT", 9_600_000.0)]

        # The web source was actually crawled (wrapper -> simulated site).
        assert scenario.exchange_wrapper.last_report is not None
        assert scenario.exchange_wrapper.last_report.pages_visited >= 2
        # Source databases received pushed-down SQL.
        assert scenario.source1.statistics.queries >= 1
        assert scenario.source2.statistics.queries >= 1

    def test_http_tunnel_actually_used(self, server):
        connection = connect(server=server, context="c_receiver")
        cursor = connection.cursor()
        cursor.execute("SELECT r2.cname FROM r2")
        stats = connection._channel.statistics.snapshot()
        assert stats["round_trips"] >= 1
        assert stats["bytes_sent"] > 0 and stats["bytes_received"] > 0

    def test_schema_discovery_through_the_stack(self, server):
        connection = connect(server=server)
        assert connection.relations("exchange") == ["r3"]
        attributes = connection.describe("r3")
        assert [attribute["attribute"] for attribute in attributes] == ["fromCur", "toCur", "rate"]


class TestQbePath:
    def test_form_submission_end_to_end(self, scenario):
        qbe = QBEInterface(scenario.federation)
        _form, answer = qbe.submit({
            "show__r1__cname": "on",
            "show__r1__revenue": "on",
            "join__1": "r1.cname = r2.cname",
            "join__2": "r1.revenue > r2.expenses",
            "context": "c_receiver",
        })
        assert answer.records == [{"cname": "NTT", "revenue": 9_600_000.0}]
        rendered = qbe.render_answer(answer)
        assert "<td>NTT</td>" in rendered


class TestEngineBehaviour:
    def test_web_source_is_fetched_not_queried(self, scenario):
        plan = scenario.federation.engine.plan(
            "SELECT r3.rate FROM r3 WHERE r3.fromCur = 'JPY' AND r3.toCur = 'USD'"
        )
        transfer = plan.branches[0].requests[0].transfer
        assert transfer.target.query is None
        assert len(transfer.filters) == 2

    def test_relational_sources_receive_pushed_selections(self, scenario):
        mediated = scenario.federation.mediate_only(PAPER_QUERY).mediated
        plan = scenario.federation.engine.plan(mediated)
        jpy_branch = plan.branches[1]
        r1_scan = [request.transfer.target for request in jpy_branch.requests
                   if request.transfer.binding == "r1"][0]
        assert r1_scan.conditions != ()

    def test_temporary_storage_used_for_staging(self, scenario):
        result = scenario.federation.engine.execute("SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname")
        assert result.report.temp_storage["tables_created"] >= 2

    def test_source_failure_surfaces_cleanly(self):
        from repro.errors import SourceUnavailableError

        scenario = build_paper_federation()
        scenario.source2.available = False
        with pytest.raises(SourceUnavailableError):
            scenario.federation.query(PAPER_QUERY)
        # Restoring the source restores service.
        scenario.source2.available = True
        assert scenario.federation.query(PAPER_QUERY).records
