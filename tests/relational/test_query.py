"""Unit tests for the local SQL query processor and the Database class."""

import pytest

from repro.errors import ExecutionError, SchemaError, SQLUnsupportedError
from repro.relational.query import Database, QueryProcessor
from repro.relational.relation import relation_from_rows
from repro.relational.schema import Schema


@pytest.fixture
def db():
    database = Database("test")
    database.execute("CREATE TABLE r1 (cname varchar, revenue float, currency varchar)")
    database.execute(
        "INSERT INTO r1 VALUES ('IBM', 1000000, 'USD'), ('NTT', 1000000, 'JPY'), "
        "('Acme', 250000, 'EUR'), ('Globex', 4000000, 'USD')"
    )
    database.execute("CREATE TABLE r2 (cname varchar, expenses float)")
    database.execute(
        "INSERT INTO r2 VALUES ('IBM', 1500000), ('NTT', 5000000), ('Globex', 1000000)"
    )
    return database


class TestDatabase:
    def test_create_and_insert(self, db):
        assert db.table_names == ["r1", "r2"]
        assert len(db.table("r1")) == 4

    def test_create_duplicate_table_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("CREATE TABLE r1 (x integer)")

    def test_insert_with_column_list_reorders(self, db):
        db.execute("CREATE TABLE t (a integer, b varchar)")
        db.execute("INSERT INTO t (b, a) VALUES ('x', 1)")
        assert db.table("t").rows == [(1, "x")]

    def test_register_and_drop(self, db):
        extra = relation_from_rows("extra", ["x:integer"], [(1,)], qualifier=None)
        db.register(extra)
        assert db.has_table("extra")
        db.drop_table("extra")
        assert not db.has_table("extra")

    def test_unknown_table_raises(self, db):
        with pytest.raises(ExecutionError):
            db.table("nope")


class TestSelection:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM r1")
        assert len(result) == 4
        assert result.schema.names == ["cname", "revenue", "currency"]

    def test_qualified_star(self, db):
        result = db.execute("SELECT r1.* FROM r1 WHERE r1.currency = 'USD'")
        assert len(result) == 2

    def test_where_filters(self, db):
        result = db.execute("SELECT r1.cname FROM r1 WHERE r1.revenue > 500000")
        assert sorted(result.column("cname")) == ["Globex", "IBM", "NTT"]

    def test_expressions_and_aliases(self, db):
        result = db.execute("SELECT r1.cname, r1.revenue / 1000 AS k FROM r1 WHERE r1.cname = 'IBM'")
        assert result.records() == [{"cname": "IBM", "k": 1000.0}]

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT r1.currency FROM r1")
        assert len(result) == 3

    def test_order_by_alias_and_direction(self, db):
        result = db.execute("SELECT r1.cname, r1.revenue AS rev FROM r1 ORDER BY rev DESC, r1.cname")
        assert result.column("cname")[0] == "Globex"

    def test_order_by_position(self, db):
        result = db.execute("SELECT r1.cname FROM r1 ORDER BY 1")
        assert result.column("cname") == sorted(result.column("cname"))

    def test_order_by_boolean_literal_is_a_constant_not_a_position(self):
        database = Database("bools")
        database.execute("CREATE TABLE t (a integer, b integer)")
        database.execute("INSERT INTO t VALUES (3, 1), (1, 2), (2, 3)")
        # TRUE is an int to Python (position 1 = column a); to SQL it is a
        # constant key, so the stable sort leaves the rows in input order.
        for key in ("TRUE", "FALSE", "TRUE DESC"):
            result = database.execute(f"SELECT t.a, t.b FROM t ORDER BY {key}")
            assert result.rows == [(3, 1), (1, 2), (2, 3)]
        assert database.execute(
            "SELECT t.a, t.b FROM t ORDER BY 1").rows == [(1, 2), (2, 3), (3, 1)]

    def test_limit_offset(self, db):
        result = db.execute("SELECT r1.cname FROM r1 ORDER BY r1.cname LIMIT 2 OFFSET 1")
        assert result.column("cname") == ["Globex", "IBM"]

    def test_select_without_from(self, db):
        result = db.execute("SELECT 1 + 1 AS two")
        assert result.records() == [{"two": 2}]

    def test_unqualified_columns_single_table(self, db):
        result = db.execute("SELECT cname FROM r1 WHERE currency = 'JPY'")
        assert result.column("cname") == ["NTT"]


class TestJoins:
    def test_comma_join_with_condition(self, db):
        result = db.execute(
            "SELECT r1.cname, r2.expenses FROM r1, r2 "
            "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
        )
        assert result.records() == [{"cname": "Globex", "expenses": 1000000.0}]

    def test_explicit_inner_join(self, db):
        result = db.execute("SELECT r1.cname FROM r1 JOIN r2 ON r1.cname = r2.cname")
        assert len(result) == 3

    def test_left_join_pads_with_nulls(self, db):
        result = db.execute(
            "SELECT r1.cname, r2.expenses FROM r1 LEFT JOIN r2 ON r1.cname = r2.cname "
            "ORDER BY r1.cname"
        )
        records = {record["cname"]: record["expenses"] for record in result.records()}
        assert records["Acme"] is None
        assert records["IBM"] == 1500000.0

    def test_right_join(self, db):
        db.execute("CREATE TABLE r3 (cname varchar)")
        db.execute("INSERT INTO r3 VALUES ('Nowhere')")
        result = db.execute("SELECT r1.cname, r3.cname FROM r1 RIGHT JOIN r3 ON r1.cname = r3.cname")
        assert result.rows == [(None, "Nowhere")]

    def test_cross_join(self, db):
        result = db.execute("SELECT r1.cname FROM r1 CROSS JOIN r2")
        assert len(result) == 12

    def test_derived_table(self, db):
        result = db.execute(
            "SELECT big.cname FROM (SELECT r1.cname FROM r1 WHERE r1.revenue > 2000000) big"
        )
        assert result.column("cname") == ["Globex"]

    def test_join_on_a_case_that_may_hold_booleans_keeps_sql_equality(self):
        # The derived column reads an ANY column in one branch, so it is ANY
        # and the join does not hash: TRUE = 1 and TRUE = 2 both hold.
        database = Database("case")
        database.execute("CREATE TABLE t (k integer, v any, x integer)")
        database.tables["t"].rows = [(1, True, 0), (5, False, 1)]
        database.execute("CREATE TABLE u (n integer, tag varchar)")
        database.execute("INSERT INTO u VALUES (1, 'one'), (2, 'two')")
        result = database.execute(
            "SELECT d.key, u.tag FROM (SELECT CASE WHEN t.x > 0 THEN t.k ELSE t.v END AS key "
            "FROM t) d, u WHERE d.key = u.n")
        assert result.rows == [(True, "one"), (True, "two")]

    def test_self_join_with_aliases(self, db):
        result = db.execute(
            "SELECT a.cname FROM r1 a, r1 b WHERE a.cname = b.cname AND a.currency = 'JPY'"
        )
        assert result.column("cname") == ["NTT"]


class TestAggregation:
    def test_global_aggregates(self, db):
        result = db.execute("SELECT COUNT(*) AS n, SUM(r2.expenses) AS total, AVG(r2.expenses) AS mean FROM r2")
        record = result.records()[0]
        assert record["n"] == 3
        assert record["total"] == 7_500_000
        assert record["mean"] == pytest.approx(2_500_000)

    def test_min_max(self, db):
        record = db.execute("SELECT MIN(r1.revenue) AS lo, MAX(r1.revenue) AS hi FROM r1").records()[0]
        assert record["lo"] == 250_000
        assert record["hi"] == 4_000_000

    def test_group_by_with_having(self, db):
        result = db.execute(
            "SELECT r1.currency, COUNT(*) AS n FROM r1 GROUP BY r1.currency "
            "HAVING COUNT(*) > 1 ORDER BY n DESC"
        )
        assert result.records() == [{"currency": "USD", "n": 2}]

    def test_having_without_group_by_is_one_implicit_group(self, db):
        # Regression: the flat path never looked at HAVING and kept every row.
        assert db.execute(
            "SELECT r1.cname FROM r1 HAVING r1.revenue > 500000").rows == [("IBM",)]
        assert db.execute(
            "SELECT r1.cname FROM r1 HAVING r1.revenue > 5000000").rows == []
        assert db.execute(
            "SELECT r1.cname FROM r1 WHERE r1.currency = 'EUR' HAVING COUNT(*) = 1"
        ).rows == [("Acme",)]
        # Over no rows the one group is still there, its columns NULL.
        assert db.execute(
            "SELECT r1.cname FROM r1 WHERE r1.revenue < 0 HAVING r1.cname IS NULL"
        ).rows == [(None,)]

    def test_group_by_expression_in_output(self, db):
        result = db.execute(
            "SELECT r1.currency, SUM(r1.revenue) / 1000 AS k FROM r1 GROUP BY r1.currency ORDER BY r1.currency"
        )
        assert result.column("currency") == ["EUR", "JPY", "USD"]

    def test_count_distinct(self, db):
        record = db.execute("SELECT COUNT(DISTINCT r1.currency) AS c FROM r1").records()[0]
        assert record["c"] == 3

    def test_aggregate_over_empty_input(self, db):
        record = db.execute("SELECT COUNT(*) AS n, SUM(r1.revenue) AS s FROM r1 WHERE r1.revenue < 0").records()[0]
        assert record["n"] == 0
        assert record["s"] is None

    def test_aggregate_ignores_nulls(self, db):
        db.execute("CREATE TABLE t (v float)")
        db.execute("INSERT INTO t VALUES (1), (NULL), (3)")
        record = db.execute("SELECT COUNT(t.v) AS c, AVG(t.v) AS a FROM t").records()[0]
        assert record["c"] == 2
        assert record["a"] == 2.0


class TestSubqueriesAndUnion:
    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT r1.cname FROM r1 WHERE r1.cname IN (SELECT r2.cname FROM r2 WHERE r2.expenses > 2000000)"
        )
        assert result.column("cname") == ["NTT"]

    def test_exists_subquery(self, db):
        result = db.execute("SELECT r1.cname FROM r1 WHERE EXISTS (SELECT r2.cname FROM r2) ORDER BY r1.cname")
        assert len(result) == 4

    def test_scalar_subquery(self, db):
        result = db.execute(
            "SELECT r1.cname FROM r1 WHERE r1.revenue > (SELECT AVG(r1.revenue) FROM r1)"
        )
        assert result.column("cname") == ["Globex"]

    def test_union_distinct_and_all(self, db):
        distinct = db.execute("SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' UNION SELECT r2.cname FROM r2")
        # USD companies {IBM, Globex} union r2's {IBM, NTT, Globex} -> 3 distinct names.
        assert len(distinct) == 3
        union_all = db.execute("SELECT r1.cname FROM r1 UNION ALL SELECT r2.cname FROM r2")
        assert len(union_all) == 7

    def test_union_column_names_from_first_branch(self, db):
        result = db.execute("SELECT r1.cname AS company FROM r1 UNION SELECT r2.cname FROM r2")
        assert result.schema.names == ["company"]


class TestClausesAfterTheLastUnionBranch:
    """ORDER BY, LIMIT and OFFSET after a union's last branch finish the whole
    union, as in sqlite3: they parse to the finish over a derived union the
    mediator also emits."""

    @staticmethod
    def _paper_rows():
        from repro.demo.datasets import paper_r1, paper_r2

        return {"r1": paper_r1(), "r2": paper_r2()}

    @pytest.mark.parametrize("sql", [
        "SELECT r2.cname FROM r2 UNION SELECT r1.cname FROM r1 ORDER BY cname DESC LIMIT 1",
        "SELECT r2.cname FROM r2 UNION ALL SELECT r1.cname FROM r1 ORDER BY cname LIMIT 2 OFFSET 1",
        "SELECT r1.cname, r1.revenue FROM r1 UNION ALL SELECT r2.cname, r2.expenses FROM r2 "
        "ORDER BY 2 DESC, 1",
        "SELECT m.cname FROM (SELECT r1.cname FROM r1 UNION ALL SELECT r2.cname FROM r2) m "
        "ORDER BY m.cname DESC",
    ])
    def test_the_answer_is_sqlite3s(self, sql):
        import sqlite3

        tables = self._paper_rows()
        connection = sqlite3.connect(":memory:")
        try:
            for name, relation in tables.items():
                columns = relation.schema.names
                connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
                connection.executemany(
                    f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
                    relation.rows)
            expected = connection.execute(sql).fetchall()
        finally:
            connection.close()
        assert QueryProcessor.over_tables(tables).execute(sql).rows == expected

    def test_the_paper_rows_answer_one_company(self):
        sql = "SELECT r2.cname FROM r2 UNION SELECT r1.cname FROM r1 ORDER BY cname DESC LIMIT 1"
        assert QueryProcessor.over_tables(self._paper_rows()).execute(sql).rows == [("NTT",)]


class TestOperatorTree:
    """A statement runs as one operator tree, built as plans lower."""

    @staticmethod
    def _operators(db, sql):
        tree = QueryProcessor.over_tables(dict(db.tables)).lower(sql).explain()
        return [line.strip() for line in tree.splitlines()]

    def test_conjuncts_filter_their_item_join_at_their_step_or_filter_on_top(self, db):
        assert self._operators(db, (
            "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND r1.currency = 'USD' "
            "AND 1 = 1 AND r2.cname IN (SELECT r2.cname FROM r2)"
        )) == [
            "Project(cname)",
            "Filter(1 = 1 AND r2.cname IN ((SELECT r2.cname FROM r2)))",
            "HashJoin(r1.cname = r2.cname, residual r1.cname = r2.cname)",
            "Filter(r1.currency = 'USD')",
            "Scan(r1, 4 rows)",
            "Scan(r2, 3 rows)",
        ]

    def test_explicit_joins_are_leaves_and_union_is_a_deduplicated_union_all(self, db):
        assert self._operators(db, (
            "SELECT r1.cname FROM r1 LEFT JOIN r2 ON r1.cname = r2.cname "
            "WHERE r2.expenses IS NULL UNION SELECT r2.cname FROM r2"
        )) == [
            "Distinct",
            "UnionAll",
            "Project(cname)",
            "Filter(r2.expenses IS NULL)",
            "NestedLoopJoin(LEFT r1.cname = r2.cname)",
            "Scan(r1, 4 rows)",
            "Scan(r2, 3 rows)",
            "Project(cname)",
            "Scan(r2, 3 rows)",
        ]

    @pytest.mark.parametrize("where, message", [
        ("r1.nope = r2.cname", "unknown attribute r1.nope"),
        ("cname = 'IBM'", "ambiguous attribute reference 'cname'"),
    ])
    def test_a_column_no_item_resolves_raises_over_the_joined_row(self, db, where, message):
        with pytest.raises(SchemaError, match=message):
            db.execute(f"SELECT r1.cname FROM r1, r2 WHERE {where}")


class TestProcessorMisc:
    def test_over_tables_unknown_table(self):
        processor = QueryProcessor.over_tables({})
        with pytest.raises(ExecutionError):
            processor.execute("SELECT x FROM missing")

    def test_execute_rejects_non_select(self, db):
        processor = QueryProcessor.over_tables(dict(db.tables))
        with pytest.raises(SQLUnsupportedError):
            processor.execute("CREATE TABLE z (a integer)")

    def test_lower_select_over_a_scan_matches_execute(self, db):
        """The finish lowered over a scan of the FROM rows equals a normal
        execution: the processor adds nothing to it."""
        from repro.relational.compile import KernelScope
        from repro.relational.operators import TableScan
        from repro.relational.query import lower_select
        from repro.sql.parser import parse

        select = parse(
            "SELECT r1.currency, COUNT(*) AS n FROM r1 GROUP BY r1.currency ORDER BY n DESC, r1.currency"
        )
        processor = QueryProcessor.over_tables(dict(db.tables))
        expected = processor.execute(select)

        scan = TableScan(db.table("r1"), "r1")
        finalized = lower_select(select, scan, KernelScope()).to_relation()
        assert finalized.rows == expected.rows
