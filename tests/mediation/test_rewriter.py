"""Unit tests for the query rewriter (mediated query construction)."""

import pytest

from repro.errors import MediationError
from repro.demo.scenarios import build_paper_coin_system
from repro.mediation.rewriter import QueryRewriter
from repro.sql.ast import Select, Union
from repro.sql.parser import parse
from repro.sql.printer import to_sql

PAPER_QUERY = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 "
    "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
)


@pytest.fixture
def rewriter():
    return QueryRewriter(build_paper_coin_system())


def rewrite(rewriter, sql, context="c_receiver"):
    return rewriter.rewrite(parse(sql), context)


class TestPaperExample:
    def test_three_branch_union(self, rewriter):
        result = rewrite(rewriter, PAPER_QUERY)
        assert isinstance(result.mediated, Union)
        assert result.branch_count == 3
        assert result.is_rewritten

    def test_branch_sql_shapes(self, rewriter):
        result = rewrite(rewriter, PAPER_QUERY)
        branch_sql = [branch.sql for branch in result.branches]
        # Branch 1: USD, no conversion.
        assert "r1.currency = 'USD'" in branch_sql[0]
        assert "r3" not in branch_sql[0]
        # Branch 2: JPY, scale 1000 and exchange rate join.
        assert "r1.revenue * 1000 * r3.rate" in branch_sql[1]
        assert "r1.currency = 'JPY'" in branch_sql[1]
        assert "r3.fromCur = r1.currency" in branch_sql[1]
        assert "r3.toCur = 'USD'" in branch_sql[1]
        # Branch 3: other currencies, rate join only.
        assert "r1.revenue * r3.rate" in branch_sql[2]
        assert "r1.currency <> 'JPY'" in branch_sql[2]
        assert "r1.currency <> 'USD'" in branch_sql[2]

    def test_comparison_condition_also_rewritten(self, rewriter):
        result = rewrite(rewriter, PAPER_QUERY)
        assert "r1.revenue * 1000 * r3.rate > r2.expenses" in result.branches[1].sql

    def test_expenses_not_converted(self, rewriter):
        result = rewrite(rewriter, PAPER_QUERY)
        assert "r2.expenses *" not in result.sql

    def test_mediated_sql_parses(self, rewriter):
        result = rewrite(rewriter, PAPER_QUERY)
        reparsed = parse(result.sql)
        assert isinstance(reparsed, Union)
        assert len(reparsed.selects) == 3

    def test_column_semantics(self, rewriter):
        result = rewrite(rewriter, PAPER_QUERY)
        # cname elevates to companyName (no modifiers), revenue to companyFinancials.
        assert result.column_semantics == ["companyName", "companyFinancials"]

    def test_conflict_count(self, rewriter):
        assert rewrite(rewriter, PAPER_QUERY).conflict_count == 2


class TestNoConflictQueries:
    def test_same_context_query_unchanged(self, rewriter):
        sql = "SELECT r2.cname, r2.expenses FROM r2 WHERE r2.expenses > 1000000"
        result = rewrite(rewriter, sql)
        assert isinstance(result.mediated, Select)
        assert result.branch_count == 1
        assert not result.is_rewritten
        assert to_sql(result.mediated) == to_sql(result.original)

    def test_non_semantic_columns_untouched(self, rewriter):
        sql = "SELECT r1.cname, r1.currency FROM r1"
        result = rewrite(rewriter, sql)
        assert not result.is_rewritten


class TestOtherReceiverContexts:
    def test_jpy_receiver_converts_usd_source(self, rewriter):
        sql = "SELECT r2.cname, r2.expenses FROM r2"
        result = rewrite(rewriter, sql, context="c_receiver_jpy")
        # USD at scale 1 -> JPY at scale 1000: rate join plus scale division.
        assert result.branch_count == 1
        text = result.sql
        assert "r3.fromCur = 'USD'" in text
        assert "r3.toCur = 'JPY'" in text
        assert "r2.expenses" in text and "* r3.rate" in text

    def test_unknown_receiver_context_rejected(self, rewriter):
        with pytest.raises(MediationError):
            rewrite(rewriter, PAPER_QUERY, context="c_missing")


class TestQueryFeaturesPreserved:
    """A multi-branch statement's finish reads the converted columns once,
    over the union of bare branches."""

    def test_aggregates_read_the_converted_column_over_the_union(self, rewriter):
        sql = "SELECT SUM(r1.revenue) AS total FROM r1, r2 WHERE r1.cname = r2.cname"
        result = rewrite(rewriter, sql)
        jpy_branch = [branch for branch in result.branches if "JPY" in branch.sql][0]
        assert jpy_branch.sql.startswith("SELECT r1.revenue * 1000 * r3.rate AS revenue FROM")
        assert result.sql.startswith("SELECT SUM(m.revenue) AS total FROM (")
        assert result.sql.endswith(") m")

    def test_group_by_and_order_by_rewritten(self, rewriter):
        sql = (
            "SELECT r1.currency, MAX(r1.revenue) AS top FROM r1 "
            "GROUP BY r1.currency ORDER BY MAX(r1.revenue) DESC"
        )
        result = rewrite(rewriter, sql)
        jpy_branch = [branch for branch in result.branches if "= 'JPY'" in branch.sql][0]
        assert "r1.currency, r1.revenue * 1000 * r3.rate AS revenue FROM" in jpy_branch.sql
        assert "ORDER BY" not in jpy_branch.sql
        assert result.sql.endswith(") m GROUP BY m.currency ORDER BY MAX(m.revenue) DESC")

    def test_distinct_and_limit_finish_the_union(self, rewriter):
        sql = "SELECT DISTINCT r1.revenue FROM r1 LIMIT 5"
        result = rewrite(rewriter, sql)
        for branch in result.branches:
            assert branch.select.distinct is False
            assert branch.select.limit is None
        assert result.mediated.distinct is True
        assert result.mediated.limit == 5
        assert "UNION ALL" in result.sql

    def test_alias_bindings_respected(self, rewriter):
        sql = "SELECT f.revenue FROM r1 f WHERE f.revenue > 0"
        result = rewrite(rewriter, sql)
        jpy_branch = [branch for branch in result.branches if "= 'JPY'" in branch.sql][0]
        assert "f.revenue * 1000 * r3.rate" in jpy_branch.sql
        assert "f.currency = 'JPY'" in jpy_branch.sql

    def test_ancillary_alias_avoids_collision_with_query_tables(self):
        system = build_paper_coin_system()
        rewriter = QueryRewriter(system)
        # The receiver's own query already uses the binding "r3" for r1.
        sql = "SELECT r3.revenue FROM r1 r3"
        result = rewriter.rewrite(parse(sql), "c_receiver")
        jpy_branch = [branch for branch in result.branches if "= 'JPY'" in branch.sql][0]
        assert "r3 r3_1" in jpy_branch.sql or "r3_1" in jpy_branch.sql

    def test_explanation_text(self, rewriter):
        result = rewrite(rewriter, PAPER_QUERY)
        explanation = result.explain()
        assert "3 branch(es)" in explanation
        assert "r1.revenue" in explanation
        assert "assumptions" in explanation
