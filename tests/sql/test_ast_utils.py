"""Unit tests for AST structural helpers (walk, transform, conjuncts...)."""

import gc

import pytest

from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Literal,
    Select,
    column_refs,
    conjoin,
    conjuncts,
    contains_aggregate,
    disjoin,
    is_aggregate_call,
    transform,
    walk,
)
from repro.sql.parser import parse, parse_expression
from repro.sql.printer import to_sql


class TestWalk:
    def test_walk_yields_all_nodes(self):
        statement = parse("SELECT a, b FROM t WHERE a > 1 AND b < 2")
        nodes = list(walk(statement))
        assert statement in nodes
        assert sum(1 for node in nodes if isinstance(node, ColumnRef)) == 4

    def test_column_refs_order(self):
        expr = parse_expression("r1.a + r2.b * r1.c")
        refs = column_refs(expr)
        assert [ref.qualified for ref in refs] == ["r1.a", "r2.b", "r1.c"]


class TestTransform:
    def test_replace_column_with_expression(self):
        statement = parse("SELECT r1.revenue FROM r1 WHERE r1.revenue > 10")
        replacement = parse_expression("r1.revenue * 1000")

        def substitute(node):
            if isinstance(node, ColumnRef) and node.name == "revenue":
                return replacement
            return node

        rewritten = transform(statement, substitute)
        text = to_sql(rewritten)
        assert text.count("r1.revenue * 1000") == 2
        # The original statement is untouched (transform is persistent/functional).
        assert "1000" not in to_sql(statement)

    def test_identity_transform_returns_equal_tree(self):
        statement = parse("SELECT a FROM t WHERE a IN (1, 2)")
        assert transform(statement, lambda node: node) == statement

    def test_transform_literals(self):
        expr = parse_expression("1 + 2")

        def double(node):
            if isinstance(node, Literal):
                return Literal(node.value * 2)
            return node

        assert to_sql(transform(expr, double)) == "2 + 4"

    def test_transform_leaves_no_cyclic_garbage(self):
        """The rewriter's intermediate objects die by reference count: with
        the cycle collector off, a transform leaves it nothing to find."""
        statement = parse(
            "SELECT t.a, (SELECT MAX(u.b) FROM u WHERE u.k = t.k) FROM t "
            "WHERE t.a IN (1, 2) AND EXISTS (SELECT v.c FROM v WHERE v.c > 3)")

        def bump(node):
            if isinstance(node, Literal) and isinstance(node.value, int):
                return Literal(node.value + 1)
            return node

        gc.collect()
        gc.disable()
        try:
            rewritten = transform(statement, bump)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert "IN (2, 3)" in to_sql(rewritten)


class TestConjuncts:
    def test_split_nested_ands(self):
        expr = parse_expression("a = 1 AND (b = 2 AND c = 3) AND d = 4")
        parts = conjuncts(expr)
        assert len(parts) == 4

    def test_or_is_a_single_conjunct(self):
        expr = parse_expression("a = 1 OR b = 2")
        assert len(conjuncts(expr)) == 1

    def test_none_gives_empty(self):
        assert conjuncts(None) == []

    def test_conjoin_roundtrip(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        rebuilt = conjoin(conjuncts(expr))
        assert to_sql(rebuilt) == to_sql(expr)

    def test_conjoin_empty_is_none(self):
        assert conjoin([]) is None

    def test_disjoin(self):
        parts = [parse_expression("a = 1"), parse_expression("b = 2")]
        assert to_sql(disjoin(parts)) == "a = 1 OR b = 2"
        assert disjoin([]) is None


class TestAggregateDetection:
    def test_is_aggregate_call(self):
        assert is_aggregate_call(parse_expression("SUM(x)"))
        assert is_aggregate_call(parse_expression("count(*)"))
        assert not is_aggregate_call(parse_expression("ROUND(x, 2)"))

    def test_contains_aggregate(self):
        assert contains_aggregate(parse_expression("1 + SUM(x)"))
        assert not contains_aggregate(parse_expression("1 + x"))


class TestOutputNames:
    def test_select_output_names(self):
        statement = parse("SELECT a, b AS total, a + 1 FROM t")
        assert statement.output_names == ["a", "total", "col_3"]

    def test_union_output_names_follow_first_branch(self):
        statement = parse("SELECT a AS x FROM t UNION SELECT b FROM u")
        assert statement.output_names == ["x"]
