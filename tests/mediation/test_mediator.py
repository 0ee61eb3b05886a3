"""Unit tests for the ContextMediator façade."""

import pytest

from repro.errors import MediationError, SQLUnsupportedError
from repro.demo.scenarios import build_paper_coin_system
from repro.mediation.mediator import ContextMediator
from repro.sql.parser import parse

PAPER_QUERY = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 "
    "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
)


@pytest.fixture
def mediator():
    return ContextMediator(build_paper_coin_system(), default_receiver_context="c_receiver")


class TestMediate:
    def test_accepts_text_and_ast(self, mediator):
        from_text = mediator.mediate(PAPER_QUERY)
        from_ast = mediator.mediate(parse(PAPER_QUERY))
        assert from_text.sql == from_ast.sql

    def test_default_receiver_context_used(self, mediator):
        result = mediator.mediate(PAPER_QUERY)
        assert result.receiver_context == "c_receiver"

    def test_explicit_context_overrides_default(self, mediator):
        result = mediator.mediate("SELECT r2.expenses FROM r2", receiver_context="c_receiver_jpy")
        assert result.receiver_context == "c_receiver_jpy"
        assert result.is_rewritten

    def test_no_context_anywhere_raises(self):
        mediator = ContextMediator(build_paper_coin_system())
        with pytest.raises(MediationError):
            mediator.mediate(PAPER_QUERY)

    def test_union_input_rejected(self, mediator):
        with pytest.raises(MediationError, match="UNION queries are produced"):
            mediator.mediate("SELECT r1.cname FROM r1 UNION SELECT r2.cname FROM r2")
        with pytest.raises(MediationError, match="UNION queries are produced"):
            mediator.mediate("SELECT r1.cname FROM r1 UNION "
                             "SELECT r2.cname FROM r2 ORDER BY cname")

    def test_non_select_rejected(self, mediator):
        with pytest.raises(SQLUnsupportedError):
            mediator.mediate(parse("CREATE TABLE t (a integer)"))


class TestStatistics:
    def test_counters_accumulate(self, mediator):
        mediator.mediate(PAPER_QUERY)
        mediator.mediate("SELECT r2.cname, r2.expenses FROM r2")
        stats = mediator.statistics.snapshot()
        assert stats["queries_mediated"] == 2
        assert stats["branches_produced"] == 4  # 3 + 1
        assert stats["conflicts_detected"] == 2
        assert stats["queries_unchanged"] == 1
