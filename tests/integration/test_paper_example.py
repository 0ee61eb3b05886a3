"""Integration test for experiment E1: the paper's worked example (Fig. 2 / Sec. 3).

Checks every claim the paper makes about the example:

* the naive query returns an empty (incorrect) answer;
* the mediator rewrites it into a UNION of three sub-queries whose guards and
  conversions match the published query;
* executing the mediated query returns exactly ``('NTT', 9 600 000)``;
* the NTT revenue is reported in the receiver's context (9,600,000, not
  1,000,000).
"""

import pytest

from repro.demo.datasets import PAPER_EXPECTED_ANSWER, PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.sql.ast import Union
from repro.sql.parser import parse


@pytest.fixture(scope="module")
def scenario():
    return build_paper_federation()


@pytest.fixture(scope="module")
def answer(scenario):
    return scenario.federation.query(PAPER_QUERY)


class TestNaiveExecution:
    def test_naive_answer_is_empty(self, scenario):
        naive = scenario.federation.query(PAPER_QUERY, mediate=False)
        assert naive.records == []


class TestMediatedQueryShape:
    def test_three_branches(self, answer):
        assert answer.mediation.branch_count == 3
        assert isinstance(parse(answer.mediated_sql), Union)

    def test_branch_one_is_the_usd_no_conflict_case(self, answer):
        sql = answer.mediation.branches[0].sql
        assert "r1.currency = 'USD'" in sql
        assert "r3" not in sql
        assert "1000" not in sql

    def test_branch_two_is_the_jpy_case(self, answer):
        sql = answer.mediation.branches[1].sql
        assert "r1.currency = 'JPY'" in sql
        assert "r1.revenue * 1000 * r3.rate" in sql
        assert "r3.fromCur = r1.currency" in sql
        assert "r3.toCur = 'USD'" in sql
        assert "r1.revenue * 1000 * r3.rate > r2.expenses" in sql

    def test_branch_three_is_the_catch_all_case(self, answer):
        sql = answer.mediation.branches[2].sql
        assert "r1.currency <> 'USD'" in sql
        assert "r1.currency <> 'JPY'" in sql
        assert "r1.revenue * r3.rate" in sql
        assert "* 1000" not in sql

    def test_every_branch_keeps_the_original_join(self, answer):
        for branch in answer.mediation.branches:
            assert "r1.cname = r2.cname" in branch.sql


class TestMediatedAnswer:
    def test_answer_matches_paper(self, answer):
        assert [(record["cname"], record["revenue"]) for record in answer.records] == [
            (PAPER_EXPECTED_ANSWER[0][0], pytest.approx(PAPER_EXPECTED_ANSWER[0][1]))
        ]

    def test_revenue_reported_in_receiver_context(self, answer):
        # 9,600,000 (USD, scale 1), not the stored 1,000,000 (JPY, thousands).
        assert answer.records[0]["revenue"] == pytest.approx(9_600_000)
        labels = [annotation.label() for annotation in answer.annotations]
        assert "revenue [currency=USD, scaleFactor=1]" in labels

    def test_ibm_excluded(self, answer):
        assert all(record["cname"] != "IBM" for record in answer.records)

    def test_explanation_reports_both_conflicts(self, answer):
        explanation = answer.explain()
        assert "potential conflicts      : 2" in explanation


class TestAlternativeReceiver:
    def test_jpy_receiver_sees_jpy_thousands(self, scenario):
        answer = scenario.federation.query(PAPER_QUERY, receiver_context="c_receiver_jpy")
        assert len(answer.records) == 1
        record = answer.records[0]
        assert record["cname"] == "NTT"
        # NTT is stored as 1,000,000 (JPY, thousands); a receiver working in
        # JPY-thousands sees exactly the stored figure — no conversion at all.
        assert record["revenue"] == pytest.approx(1_000_000)

    def test_answer_conversion_post_hoc_matches_requerying(self, scenario):
        federation = scenario.federation
        usd_answer = federation.query(PAPER_QUERY, receiver_context="c_receiver")
        converted = federation.convert_answer(usd_answer, "c_receiver_jpy")
        requeried = federation.query(PAPER_QUERY, receiver_context="c_receiver_jpy")
        assert converted.rows[0][0] == requeried.relation.rows[0][0]
        # The exchange site quotes USD->JPY at 104.00 while JPY->USD is 0.0096
        # (as in the paper's figure); the quotes are not perfectly reciprocal,
        # so post-hoc conversion and re-querying agree only to ~0.2%.
        assert converted.rows[0][1] == pytest.approx(requeried.relation.rows[0][1], rel=5e-3)


class TestStatementLevelClausesOverTheMediatedUnion:
    """ORDER BY, LIMIT/OFFSET and aggregates belong to the *statement*; the
    mediator copies them into each conflict-free branch, so today each branch
    sorts, cuts and sums on its own.  These pin the right answers — the fix is
    a finish above the plan's root ``Union`` (ROADMAP direction 3) and flips
    them, strictly."""

    REASON = "statement-level clauses are applied per mediated branch"

    @staticmethod
    def rows(scenario, sql):
        return scenario.federation.query(sql).relation.rows

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_order_by_desc_orders_the_whole_answer(self, scenario):
        assert self.rows(scenario, "SELECT r1.cname, r1.revenue FROM r1 "
                                   "ORDER BY r1.revenue DESC") == [
            ("NTT", 9_600_000.0), ("IBM", 1_000_000.0)]

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_limit_bounds_the_whole_answer(self, scenario):
        assert self.rows(scenario, "SELECT r1.cname, r1.revenue FROM r1 "
                                   "ORDER BY r1.revenue DESC LIMIT 1") == [
            ("NTT", 9_600_000.0)]

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_offset_skips_rows_of_the_whole_answer(self, scenario):
        assert self.rows(scenario, "SELECT r1.cname, r1.revenue FROM r1 "
                                   "ORDER BY r1.revenue LIMIT 1 OFFSET 1") == [
            ("NTT", 9_600_000.0)]

    @pytest.mark.xfail(strict=True, reason=REASON)
    def test_an_aggregate_ranges_over_the_whole_answer(self, scenario):
        assert self.rows(scenario, "SELECT SUM(r1.revenue) FROM r1") == [(10_600_000.0,)]
