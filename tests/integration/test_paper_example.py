"""Integration test for experiment E1: the paper's worked example (Fig. 2 / Sec. 3).

Checks every claim the paper makes about the example:

* the naive query returns an empty (incorrect) answer;
* the mediator rewrites it into a UNION of three sub-queries whose guards and
  conversions match the published query;
* executing the mediated query returns exactly ``('NTT', 9 600 000)``;
* the NTT revenue is reported in the receiver's context (9,600,000, not
  1,000,000).
"""

import sqlite3

import pytest

from repro.demo.datasets import PAPER_EXPECTED_ANSWER, PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.server import odbc
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
    """ORDER BY, LIMIT/OFFSET and aggregates belong to the *statement*: the
    mediated statement is the receiver's finish over the ``UNION ALL`` of
    bare branches, and its text runs unmodified in sqlite3 with the same
    answer."""

    @staticmethod
    def rows(scenario, sql):
        return mediated_rows(scenario, sql)

    def test_order_by_desc_orders_the_whole_answer(self, scenario):
        assert self.rows(scenario, "SELECT r1.cname, r1.revenue FROM r1 "
                                   "ORDER BY r1.revenue DESC") == [
            ("NTT", 9_600_000.0), ("IBM", 1_000_000.0)]

    def test_limit_bounds_the_whole_answer(self, scenario):
        assert self.rows(scenario, "SELECT r1.cname, r1.revenue FROM r1 "
                                   "ORDER BY r1.revenue DESC LIMIT 1") == [
            ("NTT", 9_600_000.0)]

    def test_offset_skips_rows_of_the_whole_answer(self, scenario):
        assert self.rows(scenario, "SELECT r1.cname, r1.revenue FROM r1 "
                                   "ORDER BY r1.revenue LIMIT 1 OFFSET 1") == [
            ("NTT", 9_600_000.0)]

    def test_an_aggregate_ranges_over_the_whole_answer(self, scenario):
        assert self.rows(scenario, "SELECT SUM(r1.revenue) FROM r1") == [(10_600_000.0,)]


class TestTheAnswerNamesTheFinishsColumns:
    """The answer of a finish over the mediated union has the finish's
    columns — not those of a branch, which projects what the finish reads —
    through every door that describes it."""

    CASES = [
        ("SELECT r1.cname FROM r1 ORDER BY r1.revenue DESC", ["cname"]),
        ("SELECT SUM(r1.revenue) AS total FROM r1", ["total"]),
    ]

    @pytest.mark.parametrize("sql, names", CASES)
    def test_the_federation_answer(self, scenario, sql, names):
        answer = scenario.federation.query(sql)
        assert answer.mediation.branch_count == 3
        assert answer.relation.schema.names == names
        assert {len(row) for row in answer.relation.rows} == {len(names)}
        assert sqlite_answer(scenario.federation, answer.mediated_sql) == (
            names, answer.relation.rows)

    @pytest.mark.parametrize("sql, names", CASES)
    @pytest.mark.parametrize("stream", [False, True])
    def test_a_wire_cursor(self, scenario, sql, names, stream):
        connection = odbc.connect(federation=scenario.federation)
        try:
            cursor = connection.cursor().execute(sql, stream=stream)
            assert [column[0] for column in cursor.description] == names
            assert {len(row) for row in cursor.fetchall()} == {len(names)}
        finally:
            connection.close()

    def test_the_answer_converts_to_another_context(self, scenario):
        answer = scenario.federation.query(self.CASES[0][0])
        converted = scenario.federation.convert_answer(answer, "c_receiver_jpy")
        assert converted.schema.names == ["cname"]
        assert converted.rows == [("NTT",), ("IBM",)]


@pytest.fixture(scope="module")
def two_usd_rows():
    """The paper's federation with HP beside IBM: two r1 rows of 1 000 000 USD."""
    scenario = build_paper_federation()
    scenario.source1.database.table("r1").rows.append(("HP", 1_000_000.0, "USD"))
    return scenario


class TestTheMediatedUnionKeepsTheBag:
    """Every source row reaches exactly one branch, so ``UNION ALL`` is the
    statement's bag: equal rows from different companies all stay, and an
    aggregate sums each once."""

    @staticmethod
    def rows(scenario, sql):
        return mediated_rows(scenario, sql)

    def test_equal_rows_of_different_companies_all_stay(self, two_usd_rows):
        rows = self.rows(two_usd_rows, "SELECT r1.revenue FROM r1")
        assert sorted(rows) == [(1_000_000.0,), (1_000_000.0,), (9_600_000.0,)]

    def test_an_aggregate_sums_every_row_once(self, two_usd_rows):
        assert self.rows(two_usd_rows, "SELECT SUM(r1.revenue) FROM r1") == [(11_600_000.0,)]

    def test_an_aggregate_over_one_branch_is_one_row(self, two_usd_rows):
        assert self.rows(two_usd_rows, "SELECT SUM(r1.revenue) FROM r1 "
                                       "WHERE r1.currency = 'USD'") == [(2_000_000.0,)]

    def test_each_source_row_reaches_exactly_one_branch(self, two_usd_rows):
        mediation = two_usd_rows.federation.mediator.mediate("SELECT r1.revenue FROM r1")
        assert mediation.branch_count == 3
        r1 = two_usd_rows.source1.database.table("r1")
        for row in r1.rows:
            values = {f"r1.{name}": value for name, value in zip(r1.schema.names, row)}
            reached = [branch for branch in mediation.branches
                       if all((values[guard.column] == guard.value) == (guard.op == "=")
                              for guard in branch.guards)]
            assert len(reached) == 1, row


class TestEveryRowReachesTheMediatedAnswer:
    """A statement that filters nothing keeps every row, whatever its
    currency.  Today a row whose currency is NULL satisfies no branch guard,
    and one whose currency has no rate finds no ``r3`` row to join: both
    are lost without an error (the mediation of unknown modifiers is still
    to be decided)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a NULL currency satisfies no branch guard")
    def test_a_row_with_a_null_currency_stays(self):
        mediated, unmediated = self.cnames_with(("ACME", 7.0, None))
        assert mediated == unmediated

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a currency without a rate finds no r3 row")
    def test_a_row_whose_currency_has_no_rate_stays(self):
        mediated, unmediated = self.cnames_with(("XCO", 5.0, "XYZ"))
        assert mediated == unmediated

    @staticmethod
    def cnames_with(row):
        """The mediated and the unmediated answer's cnames, ``row`` added to r1."""
        scenario = build_paper_federation()
        scenario.source1.database.table("r1").rows.append(row)
        sql = "SELECT r1.cname, r1.revenue FROM r1"
        return tuple(
            sorted(name for name, _ in scenario.federation.query(sql, mediate=mediate).relation.rows)
            for mediate in (True, False))


def mediated_rows(scenario, sql):
    """The federation's answer to ``sql``, once its mediated text is shown to
    parse back to the mediated statement and to give that answer in sqlite3."""
    answer = scenario.federation.query(sql)
    assert parse(answer.mediated_sql) == answer.mediation.mediated
    assert answer.relation.rows == sqlite_rows(scenario.federation, answer.mediated_sql)
    return answer.relation.rows


def sqlite_rows(federation, sql):
    """``sql`` run unmodified by sqlite3 over the rows r1, r2 and r3 hold."""
    return sqlite_answer(federation, sql)[1]


def sqlite_answer(federation, sql):
    """The column names and rows of ``sql`` run unmodified by sqlite3 over
    the rows r1, r2 and r3 hold."""
    connection = sqlite3.connect(":memory:")
    try:
        for name in ("r1", "r2", "r3"):
            extent = federation.query(f"SELECT * FROM {name}", mediate=False).relation
            columns = extent.schema.names
            connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            connection.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})", extent.rows)
        cursor = connection.execute(sql)
        return [column[0] for column in cursor.description], cursor.fetchall()
    finally:
        connection.close()
