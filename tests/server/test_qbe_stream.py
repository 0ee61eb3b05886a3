"""QBE over the streaming path: cursors, chunked rendering, consistency."""

import pytest

from repro.coin.context import Context, ContextRegistry
from repro.coin.domain import build_financial_domain_model
from repro.coin.system import CoinSystem
from repro.consistency import PrimaryKey
from repro.demo.scenarios import build_paper_federation
from repro.federation import Federation, FederationCursor
from repro.server.qbe import QBEInterface
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


def _keyed_federation():
    """A one-source federation with a planted key conflict (id 2)."""
    contexts = ContextRegistry()
    contexts.register(Context("c_plain", "receiver without conventions"))
    system = CoinSystem(build_financial_domain_model(), contexts, name="qbe-test")
    federation = Federation(system, default_receiver_context="c_plain")
    ledger = MemorySQLSource("ledger")
    ledger.load_sql(
        "CREATE TABLE accounts (id integer, owner string, balance float)",
        "INSERT INTO accounts VALUES "
        "(1, 'ann', 10.0), (2, 'bob', 20.0), (2, 'bob', 25.0), (3, 'eve', 30.0)",
    )
    federation.register_wrapper(RelationalWrapper(ledger), estimate_rows=False)
    federation.register_constraint(
        PrimaryKey("accounts_pk", relation="accounts", columns=("id",))
    )
    return federation


PAPER_FORM = {
    "show__r1__cname": "on",
    "show__r1__revenue": "on",
    "join__1": "r1.cname = r2.cname",
    "join__2": "r1.revenue > r2.expenses",
    "context": "c_receiver",
}


@pytest.fixture(scope="module")
def qbe():
    return QBEInterface(build_paper_federation().federation)


class TestStreamingSubmission:
    def test_submit_stream_returns_open_cursor(self, qbe):
        form, cursor = qbe.submit_stream(PAPER_FORM)
        assert isinstance(cursor, FederationCursor)
        assert form.context == "c_receiver"
        rows = cursor.fetchall()
        assert rows  # the paper query has answers
        cursor.close()

    def test_submit_matches_streamed_rows(self, qbe):
        _form, answer = qbe.submit(PAPER_FORM)
        _form2, cursor = qbe.submit_stream(PAPER_FORM)
        with cursor:
            streamed = cursor.fetchall()
        assert sorted(answer.relation.rows) == sorted(streamed)
        # The materialized answer still carries report + annotations.
        assert answer.execution.report.result_rows == len(streamed)
        assert answer.annotations

    def test_submit_goes_through_streaming_counters(self, qbe):
        before = qbe.federation.engine.statistics.snapshot()["streams_opened"]
        qbe.submit(PAPER_FORM)
        after = qbe.federation.engine.statistics.snapshot()["streams_opened"]
        assert after == before + 1


    def test_submit_stream_opens_a_qbe_root_under_its_gateway(self):
        federation = build_paper_federation().federation
        federation.observability.tracer.enabled = True
        qbe = QBEInterface(federation)
        _form, cursor = qbe.submit_stream(PAPER_FORM)
        assert qbe.gateway.snapshot()["active_streams"] == 1
        trace_id = cursor.summary().trace_id
        cursor.close()
        assert qbe.gateway.snapshot()["active_streams"] == 0
        document = federation.observability.tracer.buffer.get(trace_id)
        assert document["attributes"]["service"] == "qbe"
        assert document["attributes"]["stream"] is True


class TestChunkedRendering:
    def test_render_answer_stream_chunks(self, qbe):
        _form, cursor = qbe.submit_stream(PAPER_FORM)
        chunks = list(qbe.render_answer_stream(cursor, batch_size=1))
        assert chunks[0].startswith("<table>")
        assert any("<td>" in chunk for chunk in chunks[1:-2])
        assert "</table>" in chunks[-2]
        assert "Mediated query" in chunks[-1]
        assert cursor.stream.closed

    def test_render_without_mediation_footer(self, qbe):
        _form, cursor = qbe.submit_stream(PAPER_FORM)
        chunks = list(qbe.render_answer_stream(cursor, show_mediation=False))
        assert "Mediated query" not in "".join(chunks)

    def test_abandoned_generator_closes_cursor(self, qbe):
        _form, cursor = qbe.submit_stream(PAPER_FORM)
        generator = qbe.render_answer_stream(cursor)
        next(generator)  # header only
        generator.close()
        assert cursor.stream.closed


class TestConsistencyField:
    def test_invalid_consistency_is_a_client_error(self):
        from repro.errors import ClientError

        qbe = QBEInterface(_keyed_federation())
        with pytest.raises(ClientError, match="unknown consistency mode"):
            qbe.parse_submission({
                "show__accounts__owner": "on", "consistency": "certian",
            })

    def test_form_consistency_mode_is_honoured(self):
        qbe = QBEInterface(_keyed_federation())
        fields = {
            "show__accounts__owner": "on",
            "show__accounts__balance": "on",
            "cond__accounts__balance": "> 5",
            "context": "c_plain",
            "consistency": "certain",
        }
        form, answer = qbe.submit(fields)
        assert form.consistency == "certain"
        # bob's balance conflicts across the cluster, so only the agreeing
        # tuples are certain.
        assert {tuple(row) for row in answer.relation.rows} == {
            ("ann", 10.0), ("eve", 30.0),
        }
        assert answer.execution.report.consistency["strategy"] == "rewrite"
