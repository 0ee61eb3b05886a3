"""Unit tests for the SQL parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SQLError, SQLSyntaxError, SQLUnsupportedError
from repro.sql.ast import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    CreateTable,
    Exists,
    FunctionCall,
    InList,
    Insert,
    IsNull,
    Join,
    Like,
    Literal,
    Select,
    Star,
    Subquery,
    TableRef,
    UnaryOp,
    Union,
)
from repro.sql.parser import DerivedTable, parse, parse_expression


class TestSelectBasics:
    def test_simple_select(self):
        statement = parse("SELECT r1.cname FROM r1")
        assert isinstance(statement, Select)
        assert statement.items[0].expr == ColumnRef("cname", "r1")
        assert statement.tables == (TableRef("r1"),)

    def test_select_star(self):
        statement = parse("SELECT * FROM t")
        assert isinstance(statement.items[0].expr, Star)

    def test_qualified_star(self):
        statement = parse("SELECT t.* FROM t")
        assert statement.items[0].expr == Star("t")

    def test_aliases_with_and_without_as(self):
        statement = parse("SELECT a AS x, b y FROM t")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"

    def test_table_alias(self):
        statement = parse("SELECT x.a FROM very_long_name x")
        table = statement.tables[0]
        assert table.name == "very_long_name"
        assert table.alias == "x"
        assert table.binding == "x"

    def test_source_qualified_table(self):
        statement = parse("SELECT a FROM oracle1.financials")
        table = statement.tables[0]
        assert table.source == "oracle1"
        assert table.name == "financials"

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct is True
        assert parse("SELECT ALL a FROM t").distinct is False

    def test_where_comparison(self):
        statement = parse("SELECT a FROM t WHERE t.a > 10")
        assert isinstance(statement.where, BinaryOp)
        assert statement.where.op == ">"

    def test_group_by_having_order_limit(self):
        statement = parse(
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 1 "
            "ORDER BY n DESC, a LIMIT 5 OFFSET 2"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None
        assert statement.order_by[0].ascending is False
        assert statement.order_by[1].ascending is True
        assert statement.limit == 5
        assert statement.offset == 2

    def test_select_without_from(self):
        statement = parse("SELECT 1 + 2")
        assert statement.tables == ()

    def test_trailing_semicolon_accepted(self):
        assert isinstance(parse("SELECT a FROM t;"), Select)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM t garbage extra")


class TestExpressions:
    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "*"

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryOp)

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, UnaryOp)
        assert expr.op == "NOT"

    def test_unary_minus(self):
        expr = parse_expression("-5")
        assert isinstance(expr, UnaryOp)
        assert expr.operand == Literal(5)

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.items) == 3

    def test_not_in(self):
        expr = parse_expression("x NOT IN (1)")
        assert expr.negated is True

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, Between)
        assert expr.low == Literal(1)
        assert expr.high == Literal(10)

    def test_like(self):
        expr = parse_expression("name LIKE 'A%'")
        assert isinstance(expr, Like)

    def test_is_null_and_is_not_null(self):
        assert parse_expression("x IS NULL") == IsNull(ColumnRef("x"), False)
        assert parse_expression("x IS NOT NULL") == IsNull(ColumnRef("x"), True)

    def test_literals(self):
        assert parse_expression("NULL") == Literal(None)
        assert parse_expression("TRUE") == Literal(True)
        assert parse_expression("FALSE") == Literal(False)
        assert parse_expression("'text'") == Literal("text")
        assert parse_expression("2.5") == Literal(2.5)

    def test_function_call(self):
        expr = parse_expression("ROUND(price, 2)")
        assert isinstance(expr, FunctionCall)
        assert expr.name == "ROUND"
        assert len(expr.args) == 2

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr.args[0], Star)

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert expr.distinct is True

    def test_case_expression(self):
        expr = parse_expression("CASE WHEN x = 1 THEN 'one' ELSE 'other' END")
        assert isinstance(expr, Case)
        assert len(expr.whens) == 1
        assert expr.default == Literal("other")

    def test_string_concatenation(self):
        expr = parse_expression("a || b")
        assert expr.op == "||"

    def test_neq_normalized(self):
        assert parse_expression("a != b").op == "<>"

    def test_trailing_input_after_expression_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("a = 1 extra")


class TestJoinsAndSubqueries:
    def test_comma_join(self):
        statement = parse("SELECT r1.a FROM r1, r2, r3")
        assert len(statement.tables) == 3

    def test_explicit_inner_join(self):
        statement = parse("SELECT a FROM t JOIN u ON t.id = u.id")
        join = statement.tables[0]
        assert isinstance(join, Join)
        assert join.kind == "INNER"
        assert join.condition is not None

    def test_left_outer_join(self):
        statement = parse("SELECT a FROM t LEFT OUTER JOIN u ON t.id = u.id")
        assert statement.tables[0].kind == "LEFT"

    def test_cross_join(self):
        statement = parse("SELECT a FROM t CROSS JOIN u")
        assert statement.tables[0].kind == "CROSS"
        assert statement.tables[0].condition is None

    def test_derived_table(self):
        statement = parse("SELECT d.a FROM (SELECT a FROM t) d")
        derived = statement.tables[0]
        assert isinstance(derived, DerivedTable)
        assert derived.alias == "d"

    def test_derived_table_requires_alias(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM (SELECT a FROM t)")

    def test_in_subquery(self):
        statement = parse("SELECT a FROM t WHERE a IN (SELECT b FROM u)")
        in_list = statement.where
        assert isinstance(in_list, InList)
        assert isinstance(in_list.items[0], Subquery)

    def test_exists(self):
        statement = parse("SELECT a FROM t WHERE EXISTS (SELECT b FROM u)")
        assert isinstance(statement.where, Exists)

    def test_scalar_subquery(self):
        statement = parse("SELECT a FROM t WHERE a > (SELECT MAX(b) FROM u)")
        assert isinstance(statement.where.right, Subquery)


class TestUnion:
    def test_union_of_two_selects(self):
        statement = parse("SELECT a FROM t UNION SELECT b FROM u")
        assert isinstance(statement, Union)
        assert len(statement.selects) == 2
        assert statement.all is False

    def test_union_all(self):
        statement = parse("SELECT a FROM t UNION ALL SELECT b FROM u")
        assert statement.all is True

    def test_union_of_three(self):
        statement = parse("SELECT a FROM t UNION SELECT b FROM u UNION SELECT c FROM v")
        assert len(statement.selects) == 3

    def test_mixed_union_and_union_all_rejected(self):
        with pytest.raises(SQLUnsupportedError):
            parse("SELECT a FROM t UNION SELECT b FROM u UNION ALL SELECT c FROM v")

    def test_paper_mediated_query_parses(self):
        from repro.baselines.loose import PAPER_MANUAL_QUERY

        statement = parse(PAPER_MANUAL_QUERY)
        assert isinstance(statement, Union)
        assert len(statement.selects) == 3


class TestDDLAndDML:
    def test_create_table(self):
        statement = parse("CREATE TABLE r1 (cname varchar, revenue integer)")
        assert isinstance(statement, CreateTable)
        assert [column.name for column in statement.columns] == ["cname", "revenue"]
        assert statement.columns[1].type_name == "integer"

    def test_insert_values(self):
        statement = parse("INSERT INTO r1 VALUES ('IBM', 100), ('NTT', 200)")
        assert isinstance(statement, Insert)
        assert len(statement.rows) == 2

    def test_insert_with_columns(self):
        statement = parse("INSERT INTO r1 (cname, revenue) VALUES ('IBM', 100)")
        assert statement.columns == ("cname", "revenue")

    def test_unknown_statement_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("DELETE FROM t")


class TestErrors:
    def test_an_error_after_a_multi_line_identifier_is_placed_on_its_line(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            parse('SELECT "a\nb" FROM r1 WHERE')
        assert (excinfo.value.line, excinfo.value.column) == (2, 17)

    def test_a_superscript_digit_is_a_syntax_error(self):
        with pytest.raises(SQLSyntaxError, match="unexpected character"):
            parse("SELECT ² FROM t")

    def test_a_numeric_literal_past_the_float_range_is_a_syntax_error(self):
        # It would be Literal(inf), which prints as ``inf``: a column name.
        with pytest.raises(SQLSyntaxError, match="numeric literal out of range") as excinfo:
            parse("SELECT a,\n  1e999 FROM t")
        assert (excinfo.value.line, excinfo.value.column) == (2, 3)
        with pytest.raises(SQLSyntaxError, match="out of range"):
            parse_expression("-1.5e400")
        assert parse_expression("1e308") == Literal(1e308)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from(list("SELECT FROM WHERE 1.e'\"()-*/²½٣")),
                                      st.characters()), max_size=40))
    def test_arbitrary_text_raises_only_sql_errors(self, text):
        for parser in (parse, parse_expression):
            try:
                parser(text)
            except SQLError:
                pass
