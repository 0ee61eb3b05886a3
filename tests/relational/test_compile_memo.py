"""The compiled-closure memo: identity across executions, isolation rules."""

import pytest

from repro.relational.compile import ExpressionCompiler, clear_compiled_memo
from repro.relational.schema import Schema
from repro.sql.parser import parse


def where_of(sql: str):
    return parse(sql).where


class TestCompiledMemo:
    def setup_method(self):
        clear_compiled_memo()

    def test_same_node_and_schema_share_one_closure(self):
        schema = Schema.of("a:integer", "b:float", qualifier="t")
        condition = where_of("SELECT t.a FROM t WHERE t.a > 5")
        first = ExpressionCompiler(schema).predicate(condition)
        second = ExpressionCompiler(schema).predicate(condition)
        assert first is second

    def test_equal_schema_objects_share_via_token(self):
        condition = where_of("SELECT t.a FROM t WHERE t.a > 5")
        one = ExpressionCompiler(Schema.of("a:integer", qualifier="t")).predicate(condition)
        two = ExpressionCompiler(Schema.of("a:integer", qualifier="t")).predicate(condition)
        assert one is two

    def test_different_schemas_compile_separately(self):
        condition = where_of("SELECT t.a FROM t WHERE t.a > 5")
        first = ExpressionCompiler(
            Schema.of("a:integer", "b:float", qualifier="t")
        ).predicate(condition)
        second = ExpressionCompiler(
            Schema.of("b:float", "a:integer", qualifier="t")
        ).predicate(condition)
        assert first is not second
        assert first((10, 1.0)) is True
        assert second((1.0, 10)) is True

    def test_structurally_equal_but_distinct_nodes_do_not_collide(self):
        # Identity keys: two parses of the same text are different objects.
        schema = Schema.of("a:integer", qualifier="t")
        one = ExpressionCompiler(schema).predicate(where_of("SELECT t.a FROM t WHERE t.a > 5"))
        two = ExpressionCompiler(schema).predicate(where_of("SELECT t.a FROM t WHERE t.a > 5"))
        assert one((10,)) is True and two((10,)) is True

    def test_subquery_expressions_stay_private(self):
        schema = Schema.of("a:integer", qualifier="t")
        condition = where_of("SELECT t.a FROM t WHERE t.a IN (SELECT s.a FROM s)")
        calls = []

        def executor(select):
            calls.append(select)
            from repro.relational.relation import Relation

            result = Relation(Schema.of("a:integer"))
            result.append((5,))
            return result

        first = ExpressionCompiler(schema, executor).predicate(condition)
        second = ExpressionCompiler(schema, executor).predicate(condition)
        assert first is not second  # each execution folds its own subquery run

    def test_projection_memo_shares_closures(self):
        schema = Schema.of("a:integer", "b:float", qualifier="t")
        select = parse("SELECT t.b, t.a FROM t")
        expressions = tuple(item.expr for item in select.items)
        first = ExpressionCompiler(schema).projection(expressions)
        second = ExpressionCompiler(schema).projection(expressions)
        assert first is second
        assert first((1, 2.5)) == (2.5, 1)

    @pytest.mark.parametrize("sql", [
        "SELECT t.a, COUNT(*) AS n, SUM(t.b) + 1 FROM t WHERE t.b > 0 GROUP BY t.a "
        "HAVING COUNT(*) > 1 AND MAX(t.b) < 100 ORDER BY SUM(t.b) DESC, t.a",
        "SELECT * FROM t ORDER BY t.b DESC",
        "SELECT DISTINCT t.a FROM t ORDER BY t.b",
    ])
    def test_a_source_re_running_one_statement_adds_nothing(self, sql):
        # The rewritten select list, HAVING and ORDER BY (and the aggregate
        # columns' schema) are derived once per statement: every later
        # lowering presents the same nodes and hits.
        from repro.relational import compile as kernels
        from repro.sources.memory import MemorySQLSource

        source = MemorySQLSource("db")
        source.load_sql("CREATE TABLE t (a integer, b float)",
                        "INSERT INTO t VALUES (1, 2.0), (1, 3.0), (2, 4.0), (3, 5.0), (3, 6.0)")
        statement = parse(sql)
        first = source.execute_sql(statement)
        assert source.execute_sql(statement).rows == first.rows
        scanned = source.database.table("t").schema.with_qualifier("t")
        warm = len(kernels._MEMO), len(scanned._derived)
        for _ in range(98):
            assert source.execute_sql(statement).rows == first.rows
        assert (len(kernels._MEMO), len(scanned._derived)) == warm
