"""The generated kernels themselves: what their source may contain, how the
code cache behaves, oversized expressions, threads and tracebacks.

Value equivalence with the interpreter lives in ``test_compile.py``; these
tests pin the properties of the *emitter* — the source is a function of
expression shape and schema positions alone, the builtin ``compile()`` is
paid per shape, and any expression compiles.
"""

import builtins
import linecache
from decimal import Decimal
import sys
import threading
import traceback
from pathlib import Path

import pytest

from repro.errors import EvaluationError
from repro.relational import compile as compile_module
from repro.relational.compile import ExpressionCompiler, clear_compiled_memo
from reference_eval import ExpressionEvaluator
from repro.relational.schema import Schema
from repro.sql.ast import BinaryOp, ColumnRef, InList, Literal, conjoin
from repro.sql.parser import parse, parse_expression

SCHEMA = Schema.of("a", "b", "s")
REPO = Path(__file__).resolve().parents[2]


def source_of(kernel) -> str:
    """How to dump a kernel: its code object names the linecache entry."""
    return "".join(linecache.getlines(kernel.__code__.co_filename))


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_compiled_memo()
    yield
    clear_compiled_memo()


@pytest.fixture
def compile_calls(monkeypatch):
    """Counts calls of the builtin ``compile()`` made by the code cache."""
    calls = []

    def counting_compile(source, filename, mode, *args, **kwargs):
        calls.append(filename)
        return builtins.compile(source, filename, mode, *args, **kwargs)

    monkeypatch.setattr(compile_module, "compile", counting_compile, raising=False)
    return calls


class TestSourceHygiene:
    HOSTILE = '"""\nimport os #'

    def test_constants_never_reach_the_source(self, compile_calls):
        plain = ExpressionCompiler(SCHEMA).predicate(
            BinaryOp("=", ColumnRef("s"), Literal("abc")))
        hostile = ExpressionCompiler(SCHEMA).predicate(
            BinaryOp("=", ColumnRef("s"), Literal(self.HOSTILE)))
        assert source_of(plain) == source_of(hostile)
        assert plain.__code__ is hostile.__code__  # one code object, two closures
        assert len(compile_calls) == 1
        assert "abc" not in source_of(plain) and "import" not in source_of(plain)
        assert plain((1, 2, "abc")) is True and plain((1, 2, self.HOSTILE)) is False
        assert hostile((1, 2, self.HOSTILE)) is True and hostile((1, 2, "abc")) is False

    def test_parsed_statement_text_never_reaches_the_source(self, compile_calls):
        tame = parse("SELECT a + 1 AS total FROM t WHERE s LIKE 'a%' AND UPPER(s) <> 'x'")
        wild = parse("SELECT a + 7 AS \"'); import os #\" FROM t "
                     "WHERE s LIKE '%''); import os #' AND UPPER(s) <> '\\n\"\"\"'")
        kernels = []
        for select in (tame, wild):
            compiler = ExpressionCompiler(SCHEMA)
            kernels.append((compiler.predicate(select.where),
                            compiler.projection([item.expr for item in select.items])))
        for tame_kernel, wild_kernel in zip(*kernels):
            assert source_of(tame_kernel) == source_of(wild_kernel)
            assert tame_kernel.__code__ is wild_kernel.__code__
        assert len(compile_calls) == 2  # one predicate shape, one projection shape
        assert kernels[1][1]((1, 2, "x")) == (8,)

    def test_columns_appear_as_integer_positions_only(self):
        kernel = ExpressionCompiler(Schema.of("x", "weird", qualifier="t")).compile(
            parse_expression("t.weird * 2"))
        assert "row[1]" in source_of(kernel) and "weird" not in source_of(kernel)

    def test_generated_source_never_warns(self):
        # Under ``-W error::SyntaxWarning`` (see CI) a merely warning source fails.
        kernel = ExpressionCompiler(SCHEMA).compile(parse_expression(
            "CASE WHEN nosuch IS NULL OR NOSUCHFN(1) THEN -a ELSE a || s END"))
        with pytest.raises(Exception):
            kernel((1, 2, "x"))


class TestCodeCache:
    def test_builtin_compile_is_paid_per_shape_not_per_statement(self, compile_calls):
        sys.path[:0] = [str(REPO / "benchmarks" / "e2e")]
        try:
            from coinbench import statements
            from coinbench.federations import build_federation
        finally:
            del sys.path[0]
        federation = build_federation(16, 20).federation
        working_set = statements.cold_compile_set(seed=1)
        assert len({statement.sql for statement in working_set}) == 640
        for statement in working_set:
            federation.query(statement.sql, statement.context)
        assert 0 < len(compile_calls) <= 200, len(compile_calls)
        assert len(set(compile_calls)) == len(compile_calls)  # never the same source twice
        assert len(compile_module._CODE) == len(compile_calls)

    def test_cache_is_bounded_and_evicts_its_linecache_entries(self, monkeypatch):
        monkeypatch.setattr(compile_module._CODE, "capacity", 8)
        filenames = []
        for width in range(1, 30):
            kernel = ExpressionCompiler(SCHEMA).projection(
                [parse_expression("a + 1")] * width)
            filenames.append(kernel.__code__.co_filename)
            assert len(compile_module._CODE) <= 8
        assert len(set(filenames)) == 29
        assert sum(name in linecache.cache for name in filenames) == 8
        assert filenames[-1] in linecache.cache and filenames[0] not in linecache.cache

    def test_clear_compiled_memo_empties_both_caches(self):
        node = parse_expression("a + 1")
        kernel = ExpressionCompiler(SCHEMA).compile(node)
        filename = kernel.__code__.co_filename
        assert len(compile_module._CODE) == 1 and len(compile_module._MEMO) == 1
        assert filename.startswith("<repro-kernel:") and filename in linecache.cache
        clear_compiled_memo()
        assert len(compile_module._CODE) == 0 and len(compile_module._MEMO) == 0
        assert filename not in linecache.cache
        assert ExpressionCompiler(SCHEMA).compile(node) is not kernel

    def test_a_fresh_conjunction_of_cached_conjuncts_hits_the_memo(self, compile_calls):
        # Executors conjoin a plan's cached conditions anew for every execution.
        conjuncts = [parse_expression("a > 1"), parse_expression("s = 'abc'")]
        first = ExpressionCompiler(SCHEMA).predicate(conjoin(conjuncts))
        second = ExpressionCompiler(SCHEMA).predicate(conjoin(conjuncts))
        assert first is second and len(compile_calls) == 1
        assert first((2, None, "abc")) is True and first((2, None, None)) is None


class TestOversizedExpressions:
    """Shapes bind joins and generated SQL build; Python refuses them as one
    nested expression (recursion, 100 indentation levels, 20 nested blocks)."""

    ROWS = [(1, 2.0, "abc"), (None, 1, "x"), (0, None, None), (2.5, True, "")]

    def assert_agrees(self, node, rows=ROWS):
        compiler = ExpressionCompiler(SCHEMA)
        compiled, predicate = compiler.compile(node), compiler.predicate(node)
        got = [(compiled(row), predicate(row)) for row in rows]
        # The interpreter recurses once per level: only the reference needs a
        # deeper stack, the kernels ran within the default limit.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10 * limit)
        try:
            evaluator = ExpressionEvaluator(SCHEMA)
            expected = [(evaluator.evaluate(node, row), evaluator.predicate(node)(row))
                        for row in rows]
        finally:
            sys.setrecursionlimit(limit)
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("op", ["AND", "OR"])
    def test_a_500_operand_chain(self, op):
        operands = [BinaryOp(">" if index % 3 else "<>", ColumnRef("a"), Literal(index % 5))
                    for index in range(500)]
        left_deep = operands[0]
        for operand in operands[1:]:
            left_deep = BinaryOp(op, left_deep, operand)
        right_deep = operands[-1]
        for operand in reversed(operands[:-1]):
            right_deep = BinaryOp(op, operand, right_deep)
        self.assert_agrees(left_deep)
        self.assert_agrees(right_deep)

    def test_300_deep_arithmetic(self):
        node = ColumnRef("a")
        for index in range(300):
            node = BinaryOp("+-*"[index % 3], node, Literal(1 + index % 2))
        self.assert_agrees(node)
        constant = Literal(1)
        for index in range(300):
            constant = BinaryOp("+", constant, Literal(index))
        self.assert_agrees(BinaryOp("<", ColumnRef("a"), constant))

    def test_alternating_and_or_nesting_40_deep(self):
        node = BinaryOp(">", ColumnRef("a"), Literal(0))
        for index in range(40):
            other = BinaryOp("=", ColumnRef("s"), Literal("abc" if index % 2 else "x"))
            node = BinaryOp("OR" if index % 2 else "AND", node, other)
        self.assert_agrees(node)

    def test_a_1000_item_in_list(self):
        literal_items = InList(ColumnRef("a"), tuple(Literal(index + 0.5) for index in range(999))
                               + (Literal(1),))
        computed_items = InList(ColumnRef("a"), tuple(
            BinaryOp("+", ColumnRef("b"), Literal(index)) for index in range(1000)), negated=True)
        self.assert_agrees(literal_items)
        self.assert_agrees(computed_items, rows=[(1, 2.0, "abc"), (3, 1, "x"), (None, 1, "")])


class TestInListProbe:
    """An all-literal IN list of one exact class is a ``frozenset`` probe for
    a value of that class; everything else stays on the ``_in_list`` loop."""

    NAN = float("nan")
    PROBES = [None, 0, 1, 2, 3, 1.0, 2.5, True, False, Decimal("1"), "1", "abc", "",
              2 ** 53, 2 ** 53 + 1, 10 ** 400, NAN]
    LISTS = {
        # name: (members, probed)
        "ints": ((1, 2, 3), True),
        "one_int": ((2,), True),
        "past_2_53": ((2 ** 53, 7), True),         # 2**53 + 1 equals it, as floats
        "strs": (("abc", "", "1"), True),
        "unfloatable": ((1, 10 ** 400), False),    # float() of a member overflows
        "null_member": ((1, None), False),
        "only_null": ((None,), False),
        "int_and_float": ((1, 2.5), False),
        "floats": ((1.0, NAN), False),
        "bool_and_int": ((True, 2), False),
        "decimals": ((Decimal("1"), Decimal("2.5")), False),
        "int_and_str": ((1, "1"), False),
    }

    @pytest.mark.parametrize("negated", [False, True], ids=["in", "not_in"])
    @pytest.mark.parametrize("name", sorted(LISTS))
    def test_agrees_with_the_interpreter_for_every_probe_class(self, name, negated):
        members, probed = self.LISTS[name]
        node = InList(ColumnRef("a"), tuple(Literal(member) for member in members), negated)
        kernel = ExpressionCompiler(SCHEMA).compile(node)
        assert ((" not in k" if negated else " in k") in source_of(kernel)) == probed
        evaluator = ExpressionEvaluator(SCHEMA)

        def outcome(thunk):
            try:
                return repr(thunk())
            except Exception as exc:  # noqa: BLE001 - compared, not handled
                return type(exc).__name__, str(exc)

        for probe in self.PROBES:
            row = (probe, None, None)
            assert outcome(lambda: kernel(row)) == outcome(
                lambda: evaluator.evaluate(node, row)), (name, negated, probe)

    def test_a_bind_joins_key_list_is_probed_not_walked(self, monkeypatch):
        keys = tuple(Literal(key) for key in range(0, 102, 2))  # 51 keys
        kernel = ExpressionCompiler(SCHEMA).predicate(InList(ColumnRef("a"), keys))
        monkeypatch.setattr(compile_module, "sql_equal", None)  # the loop would crash
        rows = [(value, None, None) for value in range(200)]
        assert [row[0] for row in rows if kernel(row) is True] == list(range(0, 102, 2))


class TestThreads:
    def test_concurrent_compilation_and_evaluation_match_single_threaded_results(self):
        texts = ["a > b * 1000 * a", "a + 1", "s = 'abc' AND a < 2", "a / b", "UPPER(s)",
                 "CASE WHEN a > 1 THEN s ELSE 'small' END", "a IN (1, 2, 3)", "1 + 2 * 3"]
        rows = [(1, 2.0, "abc"), (None, 1, "x"), (3, 0, None), (2.5, 0.5, "")]
        shared = [parse_expression(text) for text in texts]
        evaluator = ExpressionEvaluator(SCHEMA)
        expected = [[evaluator.evaluate(node, row) for row in rows] for node in shared]
        clear_compiled_memo()
        failures = []
        barrier = threading.Barrier(8)

        def worker(index):
            try:
                barrier.wait(timeout=30)
                for round_number in range(60):
                    # The same nodes (one memo entry, raced) and private parses
                    # of the same and of different shapes (one code cache entry).
                    own = [parse_expression(text) for text in texts[index % 3:]]
                    for nodes, answers in ((shared, expected), (own, expected[index % 3:])):
                        for node, answer in zip(nodes, answers):
                            kernel = ExpressionCompiler(SCHEMA).compile(node)
                            got = [kernel(row) for row in rows]
                            if got != answer:
                                failures.append((index, round_number, node, got))
                    if round_number % 20 == 19:
                        clear_compiled_memo()
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append((index, repr(exc)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestDebuggability:
    def test_traceback_through_a_kernel_shows_generated_source(self):
        kernel = ExpressionCompiler(SCHEMA).compile(parse_expression("a + s"))
        with pytest.raises(EvaluationError) as info:
            kernel((1, None, "x"))
        assert str(info.value) == "arithmetic on non-numeric value 'x'"
        rendered = "".join(traceback.format_exception(info.value))
        assert 'File "<repro-kernel:' in rendered
        assert "_arith_slow('+', " in rendered  # the generated line itself

    def test_deferred_errors_read_as_interpreted(self):
        for text in ("nosuch + 1", "NOSUCHFN(a)", "LENGTH(a, b)", "-s", "a < s"):
            node = parse_expression(text)
            with pytest.raises(Exception) as interpreted:
                ExpressionEvaluator(SCHEMA).evaluate(node, (1, 2, "x"))
            kernel = ExpressionCompiler(SCHEMA).compile(node)
            for _repeat in range(2):  # a deferred error is raised anew each time
                with pytest.raises(type(interpreted.value)) as compiled:
                    kernel((1, 2, "x"))
                assert str(compiled.value) == str(interpreted.value)
