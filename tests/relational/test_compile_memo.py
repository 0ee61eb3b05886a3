"""The kernel memos: sharing by structure across statements, identity within
a plan, and what is never shared."""

import math
import sys
import threading
from decimal import Decimal

import pytest

from repro.errors import EvaluationError
from repro.relational import compile as compile_module
from repro.relational.compile import (
    ExpressionCompiler,
    KernelMemo,
    KernelScope,
    clear_compiled_memo,
)
from repro.relational.schema import Schema
from repro.sql.ast import BinaryOp, ColumnRef, FunctionCall, Literal
from repro.sql.normalize import expression_form
from repro.sql.parser import parse, parse_expression


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

    def test_structurally_equal_nodes_share_one_kernel(self):
        # Structural keys: two parses of the same text are the same expression.
        schema = Schema.of("a:integer", qualifier="t")
        one = ExpressionCompiler(schema).predicate(where_of("SELECT t.a FROM t WHERE t.a > 5"))
        two = ExpressionCompiler(schema).predicate(where_of("SELECT t.a FROM t WHERE t.a > 5"))
        assert one is two and one((10,)) is True
        other = ExpressionCompiler(schema).predicate(where_of("SELECT t.a FROM t WHERE t.a > 6"))
        assert other is not one and other((6,)) is False

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
        # columns' schema) are derived per lowering but spell the same
        # structures: every later lowering recalls the same kernels.
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


SCHEMA = Schema.of("a", "b", qualifier="t")
A = ColumnRef("a", "t")


def compiled(node, scope=None):
    return ExpressionCompiler(SCHEMA, scope=scope).compile(node)


@pytest.fixture
def kernel_builds(monkeypatch):
    """``(entry point, canonical forms of its expressions)`` of every kernel
    generated rather than recalled."""
    built = []
    generate = compile_module.ExpressionCompiler._generate

    def recording(self, kind, nodes, detail):
        built.append((kind, tuple(map(expression_form, nodes))))
        return generate(self, kind, nodes, detail)

    monkeypatch.setattr(compile_module.ExpressionCompiler, "_generate", recording)
    return built


class TestStructuralIdentity:
    """What the shared table's key tells apart, and what it does not."""

    def setup_method(self):
        clear_compiled_memo()

    def test_an_integer_a_float_and_a_boolean_one_are_three_kernels(self):
        by_int, by_float, by_bool = (
            compiled(BinaryOp("*", A, Literal(value))) for value in (1, 1.0, True))
        assert len({id(by_int), id(by_float), id(by_bool)}) == 3
        assert by_int((3, 0)).__class__ is int and by_float((3, 0)).__class__ is float
        with pytest.raises(EvaluationError):
            by_bool((3, 0))
        # ... although the three literals are equal, and hash alike, as values.
        assert Literal(1) == Literal(1.0) == Literal(True)

    def test_negative_zero_is_not_zero(self):
        plus, minus = (compiled(BinaryOp("+", A, Literal(value))) for value in (0.0, -0.0))
        assert plus is not minus
        assert math.copysign(1, plus((-0.0, 0))) == 1.0
        assert math.copysign(1, minus((-0.0, 0))) == -1.0

    def test_decimals_of_different_scale_are_different_literals(self):
        short, long = (compiled(FunctionCall("COALESCE", (A, Literal(Decimal(text)))))
                       for text in ("1.0", "1.00"))
        assert short is not long
        assert str(short((None, 0))) == "1.0" and str(long((None, 0))) == "1.00"

    def test_keyword_case_is_not_structure(self):
        lower = compiled(BinaryOp("and", BinaryOp(">", A, Literal(1)), Literal(True)))
        upper = compiled(BinaryOp("AND", BinaryOp(">", A, Literal(1)), Literal(True)))
        assert lower is upper and len(compile_module._MEMO) == 1
        assert compiled(parse_expression("T.a > 1")) is compiled(parse_expression("t.a > 1"))

    def test_a_nan_literal_is_a_literal_like_any_other(self):
        one = compiled(BinaryOp("=", A, Literal(float("nan"))))
        two = compiled(BinaryOp("=", A, Literal(float("nan"))))
        assert one is two
        clear_compiled_memo()
        fresh = compiled(BinaryOp("=", A, Literal(float("nan"))))
        assert fresh is not one
        for row in ((1, 0), (float("nan"), 0), (None, 0), ("x", 0)):
            assert fresh(row) is one(row)

    def test_the_schema_is_part_of_the_key(self):
        node = parse_expression("t.a + 1")
        here = ExpressionCompiler(Schema.of("a", "b", qualifier="t")).compile(node)
        there = ExpressionCompiler(Schema.of("b", "a", qualifier="t")).compile(node)
        assert here is not there and here((1, 10)) == 2 and there((1, 10)) == 11


class TestTwoLevels:
    """A plan's identity front over the process-wide structural table."""

    def setup_method(self):
        clear_compiled_memo()

    def test_a_plan_scope_contributes_to_and_recalls_from_the_shared_table(self):
        front = KernelMemo()
        planned = compiled(parse_expression("t.a * 2"), KernelScope(memo=front))
        assert len(front) == 1 and len(compile_module._MEMO) == 1
        # Another plan, another parse of the same text, another front: recalled.
        assert compiled(parse_expression("t.a * 2"), KernelScope(memo=KernelMemo())) is planned
        # A source's default scope has no front and finds it too.
        assert compiled(parse_expression("t.a * 2")) is planned

    def test_the_front_answers_by_identity_without_serializing(self, monkeypatch):
        node = parse_expression("t.a * 2")
        scope = KernelScope(memo=KernelMemo())
        kernel = compiled(node, scope)
        monkeypatch.setattr(compile_module, "expression_form", None)  # would raise
        assert compiled(node, scope) is kernel

    def test_dropping_a_plans_memo_leaves_the_shared_entry_and_vice_versa(self):
        front = KernelMemo()
        node = parse_expression("t.a * 2")
        kernel = compiled(node, KernelScope(memo=front))
        front.clear()
        assert compiled(parse_expression("t.a * 2")) is kernel
        compiled(node, KernelScope(memo=front))  # back in the front
        clear_compiled_memo()
        assert len(compile_module._MEMO) == 0
        assert compiled(node, KernelScope(memo=front)) is kernel
        # ... and a front hit does not re-enter the table it skipped.
        assert len(compile_module._MEMO) == 0

    def test_a_subquery_kernel_is_kept_nowhere(self):
        from repro.relational.relation import Relation

        def executor_returning(value):
            def executor(select):
                result = Relation(Schema.of("a:integer"))
                result.append((value,))
                return result
            return executor

        text = "t.a IN (SELECT s.a FROM s)"
        front = KernelMemo()
        first_scope = KernelScope(executor_returning(5), front)
        first = ExpressionCompiler(SCHEMA, scope=first_scope).predicate(parse_expression(text))
        second = ExpressionCompiler(SCHEMA, executor_returning(7)).predicate(
            parse_expression(text))
        assert first is not second and first_scope.private
        assert first((5, 0)) is True and second((5, 0)) is False and second((7, 0)) is True
        assert len(front) == 0 and len(compile_module._MEMO) == 0

    def test_a_new_constant_generates_only_the_kernels_that_name_it(self, kernel_builds):
        from repro.demo.scenarios import build_paper_federation

        federation = build_paper_federation().federation
        statement = ("SELECT r1.cname, r1.revenue FROM r1, r2 WHERE r1.cname = r2.cname "
                     "AND r1.revenue > r2.expenses AND r1.revenue > {}")
        first = federation.query(statement.format(5))
        generated_cold = len(kernel_builds)
        del kernel_builds[:]
        second = federation.query(statement.format(7))
        assert second.mediation is not first.mediation  # a different statement throughout
        assert second.execution.plan is not first.execution.plan
        assert 0 < len(kernel_builds) < generated_cold / 2
        for _kind, forms in kernel_builds:
            assert any("Literal(7)" in form for form in forms), forms
        del kernel_builds[:]
        federation.query(statement.format(7))  # the cached plan: nothing at all
        assert kernel_builds == []

    def test_eight_threads_leave_with_one_kernel_per_shape(self):
        texts = [f"t.a * {n} + t.b" for n in range(24)]
        barrier = threading.Barrier(8)
        results, errors = [], []

        def work():
            try:
                barrier.wait(timeout=10)
                results.append([
                    compiled(parse_expression(text), KernelScope(memo=KernelMemo()))
                    for text in texts])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        for position, text in enumerate(texts):
            kernels = {id(result[position]) for result in results}
            assert len(kernels) == 1, text
            assert results[0][position]((2, 1)) == 2 * position + 1
        assert len(compile_module._MEMO) == len(texts)
