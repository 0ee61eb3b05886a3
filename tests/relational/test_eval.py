"""Unit tests for SQL expression evaluation over rows."""

import pytest

from repro.errors import EvaluationError
from reference_eval import ExpressionEvaluator
from repro.relational import evaluate_literal_expression, expression_type, like_to_regex
from repro.relational.relation import relation_from_rows
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.sql.parser import parse_expression


@pytest.fixture
def evaluator():
    schema = Schema.of("cname:string", "revenue:float", "currency:string", qualifier="r1")
    return ExpressionEvaluator(schema)


ROW = ("NTT", 1_000_000.0, "JPY")
NULL_ROW = ("X", None, None)


def run(evaluator, text, row=ROW):
    return evaluator.evaluate(parse_expression(text), row)


class TestBasicEvaluation:
    def test_column_reference(self, evaluator):
        assert run(evaluator, "r1.cname") == "NTT"
        assert run(evaluator, "revenue") == 1_000_000.0

    def test_arithmetic(self, evaluator):
        assert run(evaluator, "r1.revenue * 1000 * 0.0096") == pytest.approx(9_600_000)
        assert run(evaluator, "r1.revenue + 1 - 1") == 1_000_000
        assert run(evaluator, "10 / 4") == 2.5
        assert run(evaluator, "10 % 3") == 1

    def test_division_by_zero_is_null(self, evaluator):
        assert run(evaluator, "1 / 0") is None

    def test_unary_minus(self, evaluator):
        assert run(evaluator, "-r1.revenue") == -1_000_000

    def test_string_concatenation(self, evaluator):
        assert run(evaluator, "r1.cname || '-' || r1.currency") == "NTT-JPY"

    def test_arithmetic_on_string_raises(self, evaluator):
        with pytest.raises(EvaluationError):
            run(evaluator, "r1.cname + 1")


class TestNullPropagation:
    def test_arithmetic_with_null(self, evaluator):
        assert evaluator.evaluate(parse_expression("r1.revenue * 2"), NULL_ROW) is None

    def test_comparison_with_null(self, evaluator):
        assert evaluator.evaluate(parse_expression("r1.revenue > 10"), NULL_ROW) is None

    def test_kleene_and(self, evaluator):
        # FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
        assert evaluator.evaluate(parse_expression("1 = 2 AND r1.revenue > 0"), NULL_ROW) is False
        assert evaluator.evaluate(parse_expression("1 = 1 AND r1.revenue > 0"), NULL_ROW) is None

    def test_kleene_or(self, evaluator):
        assert evaluator.evaluate(parse_expression("1 = 1 OR r1.revenue > 0"), NULL_ROW) is True
        assert evaluator.evaluate(parse_expression("1 = 2 OR r1.revenue > 0"), NULL_ROW) is None

    def test_not_null_is_null(self, evaluator):
        assert evaluator.evaluate(parse_expression("NOT (r1.revenue > 0)"), NULL_ROW) is None

    def test_is_null(self, evaluator):
        assert evaluator.evaluate(parse_expression("r1.revenue IS NULL"), NULL_ROW) is True
        assert evaluator.evaluate(parse_expression("r1.revenue IS NOT NULL"), NULL_ROW) is False


class TestPredicates:
    def test_comparisons(self, evaluator):
        assert run(evaluator, "r1.currency = 'JPY'") is True
        assert run(evaluator, "r1.currency <> 'JPY'") is False
        assert run(evaluator, "r1.revenue >= 1000000") is True
        assert run(evaluator, "r1.revenue < 1000000") is False

    def test_in_list(self, evaluator):
        assert run(evaluator, "r1.currency IN ('USD', 'JPY')") is True
        assert run(evaluator, "r1.currency NOT IN ('USD', 'EUR')") is True
        assert run(evaluator, "r1.currency IN ('USD', 'EUR')") is False

    def test_in_list_null_semantics(self, evaluator):
        # value NOT IN (...) with a NULL member and no match is unknown.
        assert run(evaluator, "r1.currency NOT IN ('USD', NULL)") is None

    def test_between(self, evaluator):
        assert run(evaluator, "r1.revenue BETWEEN 1 AND 2000000") is True
        assert run(evaluator, "r1.revenue NOT BETWEEN 1 AND 10") is True

    def test_like(self, evaluator):
        assert run(evaluator, "r1.cname LIKE 'N%'") is True
        assert run(evaluator, "r1.cname LIKE '_TT'") is True
        assert run(evaluator, "r1.cname NOT LIKE 'I%'") is True
        assert run(evaluator, "r1.cname LIKE 'X%'") is False

    def test_case(self, evaluator):
        value = run(evaluator, "CASE WHEN r1.currency = 'JPY' THEN 1000 ELSE 1 END")
        assert value == 1000
        value = run(evaluator, "CASE WHEN r1.currency = 'USD' THEN 1000 END")
        assert value is None


class TestScalarFunctions:
    def test_numeric_functions(self, evaluator):
        assert run(evaluator, "ABS(-3)") == 3
        assert run(evaluator, "ROUND(2.567, 2)") == 2.57
        assert run(evaluator, "FLOOR(2.9)") == 2
        assert run(evaluator, "CEIL(2.1)") == 3

    def test_string_functions(self, evaluator):
        assert run(evaluator, "UPPER(r1.cname)") == "NTT"
        assert run(evaluator, "LOWER('AbC')") == "abc"
        assert run(evaluator, "LENGTH(r1.cname)") == 3
        assert run(evaluator, "SUBSTR('2026-06-17', 1, 4)") == "2026"
        assert run(evaluator, "TRIM('  x ')") == "x"
        assert run(evaluator, "CONCAT('a', 'b', 1)") == "ab1"

    def test_coalesce_and_nullif(self, evaluator):
        assert run(evaluator, "COALESCE(NULL, NULL, 5)") == 5
        assert run(evaluator, "NULLIF(3, 3)") is None
        assert run(evaluator, "NULLIF(3, 4)") == 3

    def test_unknown_function_raises(self, evaluator):
        with pytest.raises(EvaluationError):
            run(evaluator, "FROBNICATE(1)")

    def test_aggregate_outside_grouping_raises(self, evaluator):
        with pytest.raises(EvaluationError):
            run(evaluator, "SUM(r1.revenue)")


class TestHelpers:
    def test_like_to_regex_escapes_metacharacters(self):
        assert like_to_regex("a.b%").match("a.bXYZ")
        assert not like_to_regex("a.b%").match("aXb")

    def test_evaluate_literal_expression(self):
        assert evaluate_literal_expression(parse_expression("2 * 3 + 1")) == 7

    def test_expression_type_inference(self):
        schema = Schema.of("price:float", "name:string", qualifier="t")
        assert expression_type(parse_expression("t.price * 2"), schema) is DataType.FLOAT
        assert expression_type(parse_expression("t.name"), schema) is DataType.STRING
        assert expression_type(parse_expression("t.price > 2"), schema) is DataType.BOOLEAN
        assert expression_type(parse_expression("COUNT(*)"), schema) is DataType.INTEGER

    def test_predicate_wrapper(self):
        schema = Schema.of("a:integer")
        evaluator = ExpressionEvaluator(schema)
        predicate = evaluator.predicate(parse_expression("a > 5"))
        assert predicate((10,)) is True
        assert predicate((1,)) is False
        assert predicate((None,)) is None
