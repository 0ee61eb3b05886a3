"""Unit tests for the SQL printer (AST -> text)."""

import pytest

from repro.errors import SQLUnsupportedError
from repro.sql.ast import BinaryOp, ColumnRef, Literal, Select, SelectItem, TableRef, UnaryOp
from repro.sql.parser import parse, parse_expression
from repro.sql.printer import format_literal, to_sql


def roundtrip(sql: str) -> str:
    return to_sql(parse(sql))


class TestLiteralFormatting:
    def test_null(self):
        assert format_literal(None) == "NULL"

    def test_booleans(self):
        assert format_literal(True) == "TRUE"
        assert format_literal(False) == "FALSE"

    def test_integers_and_floats(self):
        assert format_literal(42) == "42"
        assert format_literal(2.5) == "2.5"
        assert format_literal(3.0) == "3"

    def test_string_escaping(self):
        assert format_literal("it's") == "'it''s'"


class TestStatementPrinting:
    def test_simple_select(self):
        assert roundtrip("SELECT r1.cname FROM r1") == "SELECT r1.cname FROM r1"

    def test_keywords_normalized(self):
        assert roundtrip("select a from t where a > 1") == "SELECT a FROM t WHERE a > 1"

    def test_alias_rendering(self):
        assert roundtrip("SELECT a x FROM t y") == "SELECT a AS x FROM t y"

    def test_union(self):
        text = roundtrip("SELECT a FROM t UNION SELECT b FROM u")
        assert text == "SELECT a FROM t UNION SELECT b FROM u"

    def test_union_all(self):
        assert "UNION ALL" in roundtrip("SELECT a FROM t UNION ALL SELECT b FROM u")

    def test_group_order_limit(self):
        text = roundtrip(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 3"
        )
        assert "GROUP BY a" in text
        assert "HAVING COUNT(*) > 1" in text
        assert "ORDER BY a DESC" in text
        assert "LIMIT 3" in text

    def test_join_rendering(self):
        text = roundtrip("SELECT a FROM t LEFT JOIN u ON t.id = u.id")
        assert "LEFT JOIN u ON t.id = u.id" in text

    def test_derived_table(self):
        text = roundtrip("SELECT d.a FROM (SELECT a FROM t) d")
        assert text == "SELECT d.a FROM (SELECT a FROM t) d"

    def test_create_and_insert(self):
        assert roundtrip("CREATE TABLE t (a integer, b varchar)") == "CREATE TABLE t (a integer, b varchar)"
        assert roundtrip("INSERT INTO t VALUES (1, 'x')") == "INSERT INTO t VALUES (1, 'x')"


class TestExpressionPrinting:
    def test_precedence_parentheses_added_when_needed(self):
        assert to_sql(parse_expression("(1 + 2) * 3")) == "(1 + 2) * 3"

    def test_no_spurious_parentheses(self):
        assert to_sql(parse_expression("1 + 2 * 3")) == "1 + 2 * 3"

    def test_left_associative_subtraction_stable(self):
        text = to_sql(parse_expression("10 - 2 - 3"))
        # Re-parsing and re-printing must not change the meaning or the text.
        assert to_sql(parse_expression(text)) == text

    def test_in_between_like(self):
        assert to_sql(parse_expression("x IN (1, 2)")) == "x IN (1, 2)"
        assert to_sql(parse_expression("x NOT BETWEEN 1 AND 2")) == "x NOT BETWEEN 1 AND 2"
        assert to_sql(parse_expression("x LIKE 'a%'")) == "x LIKE 'a%'"

    def test_case(self):
        text = to_sql(parse_expression("CASE WHEN a = 1 THEN 'x' ELSE 'y' END"))
        assert text == "CASE WHEN a = 1 THEN 'x' ELSE 'y' END"

    def test_exists(self):
        text = to_sql(parse("SELECT a FROM t WHERE EXISTS (SELECT b FROM u)"))
        assert "EXISTS (SELECT b FROM u)" in text

    def test_boolean_grouping_preserved(self):
        text = to_sql(parse_expression("(a = 1 OR b = 2) AND c = 3"))
        assert text == "(a = 1 OR b = 2) AND c = 3"


class TestStability:
    PAPER_BRANCH = (
        "SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r2, r3 "
        "WHERE r1.currency = 'JPY' AND r1.cname = r2.cname AND r3.fromCur = r1.currency "
        "AND r3.toCur = 'USD' AND r1.revenue * 1000 * r3.rate > r2.expenses"
    )

    def test_print_parse_print_fixpoint(self):
        once = roundtrip(self.PAPER_BRANCH)
        assert to_sql(parse(once)) == once

    def test_manual_ast_rendering(self):
        statement = Select(
            items=(SelectItem(ColumnRef("cname", "r1")),),
            tables=(TableRef("r1"),),
            where=BinaryOp(">", ColumnRef("revenue", "r1"), Literal(10)),
        )
        assert to_sql(statement) == "SELECT r1.cname FROM r1 WHERE r1.revenue > 10"


class TestMediatedText:
    """The mediated statement's text is the statement: it parses back to the
    mediator's tree."""

    @pytest.fixture(scope="class")
    def federation(self):
        from repro.demo.scenarios import build_paper_federation

        return build_paper_federation().federation

    @pytest.mark.parametrize("sql", [
        "SELECT r1.cname FROM r1 WHERE (r1.cname IS NULL) = FALSE",
        "SELECT -(-r1.revenue) FROM r1",
        "SELECT r1.cname || (r1.revenue - 1) FROM r1",
    ])
    def test_printed_mediation_parses_to_the_mediated_tree(self, federation, sql):
        result = federation.mediate_only(sql)
        assert parse(result.sql) == result.mediated

    def test_a_unary_minus_never_meets_a_minus(self):
        assert to_sql(parse_expression("-(-a)")) == "-(-a)"
        assert to_sql(parse_expression("-(-1)")) == "-(-1)"
        assert to_sql(UnaryOp("-", Literal(-1))) == "-(-1)"

    def test_a_predicate_is_parenthesized_as_an_operand(self):
        assert to_sql(parse_expression("(a IS NULL) = FALSE")) == "(a IS NULL) = FALSE"
        assert to_sql(parse_expression("a IN ((b = c))")) == "a IN ((b = c))"
        assert to_sql(parse_expression("a || (b - 1)")) == "a || (b - 1)"


class TestNameQuoting:
    """A name prints bare only when the lexer scans it back as that one
    identifier."""

    @pytest.mark.parametrize("sql, printed", [
        # Bare, ``weird name`` parsed back as column ``weird`` aliased ``name``.
        ('SELECT "weird name" FROM t', 'SELECT "weird name" FROM t'),
        ('SELECT t."a b" FROM t', 'SELECT t."a b" FROM t'),
        # Bare, a reserved word does not parse as a column at all.
        ('SELECT "select" FROM t', 'SELECT "select" FROM t'),
        ('SELECT "Order".x AS "from" FROM "Order"', 'SELECT "Order".x AS "from" FROM "Order"'),
        ('SELECT "1a", "", _x, café FROM "my src"."my t" "t 2"',
         'SELECT "1a", "", _x, café FROM "my src"."my t" "t 2"'),
        # ``ſ`` upper-cases to ``S``: bare, it would scan as SELECT.
        ('SELECT "ſelect" FROM t', 'SELECT "ſelect" FROM t'),
    ])
    def test_a_name_that_would_not_scan_back_is_quoted(self, sql, printed):
        assert to_sql(parse(sql)) == printed
        assert parse(printed) == parse(sql)

    def test_a_plain_name_stays_bare(self):
        assert roundtrip('SELECT "a", r1.cname FROM "r1"') == "SELECT a, r1.cname FROM r1"

    def test_a_name_holding_a_double_quote_is_refused(self):
        with pytest.raises(SQLUnsupportedError, match="cannot print the name"):
            to_sql(ColumnRef('a"b'))
        with pytest.raises(SQLUnsupportedError):
            to_sql(Select(items=(SelectItem(ColumnRef("a")),), tables=(TableRef('t"'),)))
