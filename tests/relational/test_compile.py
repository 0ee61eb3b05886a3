"""Equivalence of the compiled expression pipeline and the interpreter.

The kernels generated by :mod:`repro.relational.compile` must be
observationally identical to :class:`ExpressionEvaluator` — same values,
same NULL propagation, same errors — because the operators run compiled
while the interpreter remains the executable specification.  These tests
sweep a corpus of expressions over a grid of mixed-type rows (property
style: same rows in, same rows out), then generated expression trees over
generated rows, through every entry point of the compiler, and compare the
two implementations outcome by outcome.
"""

import itertools
import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.relational.budget import estimate_row_bytes
from repro.relational.compile import ExpressionCompiler, compile_projection
from reference_eval import ExpressionEvaluator
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import sort_key
from repro.sql.ast import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Exists,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    Subquery,
    UnaryOp,
)
from repro.sql.parser import parse, parse_expression

#: Columns: ``a`` numeric-ish, ``b`` numeric/boolean, ``s`` string-ish.
SCHEMA = Schema.of("a", "b", "s")

NAN, INF = float("nan"), float("inf")


class Money(int):
    """An ``int`` subclass: numeric to ``isinstance``, not to an exact-class test."""


A_VALUES = [None, 0, 1, 2.5, -3, 2 ** 53, 2 ** 53 + 1, 10 ** 400, NAN, INF, -INF,
            Decimal("2.5"), True, Money(2), "7"]
B_VALUES = [None, 1, 2.0, True, NAN, Decimal("1")]
S_VALUES = [None, "abc", "", "2"]

ROWS = [row for row in itertools.product(A_VALUES, B_VALUES, S_VALUES)]

EXPRESSIONS = [
    # Arithmetic, NULL propagation, division by zero.
    "a + 1", "a - 2.5", "a * 3", "a / 2", "a / 0", "a % 2", "a % 0", "-a",
    "a + b", "a * b", "a / b", "a + s", "1000 * a", "2 - a",
    # Comparisons, numeric coercion, type errors (number vs string).
    "a = 1", "a <> 1", "a < 2", "a <= 2", "a > b", "a >= b", "2 <= a",
    "s = 'abc'", "s <> 'abc'", "s < 'b'", "a < s", "b = 1", "a = b", "a <> b",
    "'abc' = s", "b = TRUE", "TRUE <= a", "a = NULL", "s >= s",
    # Boolean connectives (Kleene three-valued).
    "a > 1 AND s = 'abc'", "a > 1 OR s IS NULL", "NOT a > 1",
    "a > 0 AND b > 0 AND s <> ''", "a IS NULL OR b IS NOT NULL",
    "a AND b", "a OR b", "NOT b", "(a > 1 OR b > 1) AND (s = '2' OR a < 0)",
    # Predicates.
    "a IN (1, 2.0)", "a IN (1, NULL)", "s NOT IN ('abc', 'x')", "a IN (b, 1 + 1)",
    "a BETWEEN 0 AND 2", "a NOT BETWEEN b AND 3", "a BETWEEN NULL AND s",
    "s LIKE 'a%'", "s NOT LIKE '_bc'", "s LIKE s", "s LIKE '2'", "a LIKE NULL",
    # CASE.
    "CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE s END",
    "CASE WHEN s IS NULL THEN 0 END", "CASE WHEN b THEN a + 1 ELSE a + s END",
    # Scalar functions.
    "UPPER(s)", "LOWER(s)", "LENGTH(s)", "TRIM(s)",
    "SUBSTR(s, 2)", "SUBSTR(s, 1, 2)", "ABS(a)", "ROUND(a, 1)",
    "FLOOR(a)", "CEIL(a)", "COALESCE(s, 'none')", "NULLIF(a, 1)",
    "CONCAT(s, '-', a)", "s || 'x'", "a || s", "LENGTH(s, s)",
    # Constant folding candidates.
    "1 + 2 * 3", "'x' || 'y'", "1 = 1.0", "NULL + 1", "a > 1 / 0", "1 + 'x'",
    # Large integers: the interpreter float-coerces comparisons at 2**53.
    "a = 9007199254740993", "a < 9007199254740993", "a >= 9007199254740993",
    "a <> 9007199254740993",
]


def _outcome(thunk):
    """The value (by repr: 1, 1.0 and True differ, two NaNs do not) or the
    exception type of a call."""
    try:
        return ("value", repr(thunk()))
    except Exception as exc:
        return ("error", type(exc).__name__)


class TestCompiledMatchesInterpreted:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_expression_equivalence(self, text):
        node = parse_expression(text)
        evaluator = ExpressionEvaluator(SCHEMA)
        compiled = ExpressionCompiler(SCHEMA).compile(node)
        for row in ROWS:
            interpreted = _outcome(lambda: evaluator.evaluate(node, row))
            fast = _outcome(lambda: compiled(row))
            assert interpreted == fast, f"{text!r} diverged on row {row!r}"

    @pytest.mark.parametrize("text", [
        "a > 1 AND s = 'abc'", "a IN (1, NULL)", "s LIKE 'a%'",
        "a BETWEEN 0 AND 2", "NOT b", "s IS NULL", "a", "b", "a + 1", "1",
    ])
    def test_predicate_equivalence(self, text):
        node = parse_expression(text)
        interpreted = ExpressionEvaluator(SCHEMA).predicate(node)
        compiled = ExpressionCompiler(SCHEMA).predicate(node)
        for row in ROWS:
            assert _outcome(lambda: interpreted(row)) == _outcome(lambda: compiled(row))

    def test_unknown_column_raises_at_evaluation_not_compilation(self):
        node = parse_expression("nosuch + 1")
        compiled = ExpressionCompiler(SCHEMA).compile(node)  # must not raise here
        with pytest.raises(Exception):
            compiled((1, 2, "x"))

    def test_unknown_function_raises_at_evaluation_not_compilation(self):
        node = parse_expression("NOSUCHFN(a)")
        compiled = ExpressionCompiler(SCHEMA).compile(node)
        with pytest.raises(Exception):
            compiled((1, 2, "x"))

    @pytest.mark.parametrize("text, skipping_row, reaching_row", [
        ("a > 1 AND nosuch = 1", (0, 1, "x"), (2, 1, "x")),
        ("a > 1 OR NOSUCHFN(a)", (2, 1, "x"), (0, 1, "x")),
        ("CASE WHEN a > 1 THEN nosuch ELSE 0 END", (0, 1, "x"), (2, 1, "x")),
    ])
    def test_branches_sql_would_not_evaluate_never_raise(self, text, skipping_row, reaching_row):
        node = parse_expression(text)
        compiled = ExpressionCompiler(SCHEMA).compile(node)
        assert compiled(skipping_row) == ExpressionEvaluator(SCHEMA).evaluate(node, skipping_row)
        with pytest.raises(Exception):
            compiled(reaching_row)

    @pytest.mark.parametrize("text", ["a <= 2", "a >= b", "a < b", "a > 2", "TRUE <= a",
                                      "a BETWEEN 0 AND 2"])
    def test_every_ordering_comparison_with_nan_is_false(self, text):
        node = parse_expression(text)
        for row in [(NAN, 1, "x"), (NAN, NAN, "x")]:
            assert ExpressionEvaluator(SCHEMA).evaluate(node, row) is False
            assert ExpressionCompiler(SCHEMA).compile(node)(row) is False
        equal, unequal = parse_expression("a = a"), parse_expression("a <> a")
        assert ExpressionCompiler(SCHEMA).compile(equal)((NAN, 1, "x")) is False
        assert ExpressionCompiler(SCHEMA).compile(unequal)((NAN, 1, "x")) is True


class TestProjectionCompilation:
    def test_column_only_projection_matches_interpreter(self):
        exprs = [parse_expression("s"), parse_expression("a")]
        project = compile_projection(exprs, SCHEMA)
        evaluator = ExpressionEvaluator(SCHEMA)
        for row in ROWS:
            expected = tuple(evaluator.evaluate(expr, row) for expr in exprs)
            assert repr(project(row)) == repr(expected)

    def test_single_column_projection_yields_one_tuples(self):
        project = compile_projection([parse_expression("a")], SCHEMA)
        assert project((7, None, "x")) == (7,)

    def test_unknown_column_projection_raises_per_row(self):
        project = compile_projection([parse_expression("a"), parse_expression("nosuch")], SCHEMA)
        with pytest.raises(Exception):
            project((7, None, "x"))

    def test_mixed_projection_matches_interpreter(self):
        exprs = [parse_expression(text) for text in ("a * 2", "UPPER(s)", "b", "a > b")]
        project = compile_projection(exprs, SCHEMA)
        evaluator = ExpressionEvaluator(SCHEMA)
        for row in [(1, 2.0, "abc"), (None, None, None), (2.5, True, "")]:
            expected = tuple(evaluator.evaluate(expr, row) for expr in exprs)
            assert project(row) == expected


class TestSubqueryCompilation:
    def test_uncorrelated_subquery_executes_once(self):
        calls = []

        def executor(select):
            calls.append(select)
            result = Relation(Schema.of("v"), name="sub")
            result.rows = [(1,)]
            return result

        node = parse_expression("a IN (SELECT v FROM sub)")
        compiled = ExpressionCompiler(SCHEMA, executor).compile(node)
        results = [compiled((value, None, None)) for value in (1, 2, 1.0, None)]
        assert results == [True, False, True, None]
        assert len(calls) == 1  # folded: the dialect has no correlation

    def test_exists_matches_interpreter(self):
        empty = Relation(Schema.of("v"), name="sub")

        def executor(select):
            return empty

        select = parse("SELECT a FROM t WHERE EXISTS (SELECT v FROM sub)")
        node = select.where
        interpreted = ExpressionEvaluator(SCHEMA, executor).predicate(node)
        compiled = ExpressionCompiler(SCHEMA, executor).predicate(node)
        row = (1, 2, "x")
        assert interpreted(row) == compiled(row) is False


# ---------------------------------------------------------------------------
# Generated expression trees: every node kind the parser produces, depth <= 4
# ---------------------------------------------------------------------------

_SUBQUERY_ROWS = {"none": [], "one": [(1,)], "many": [(1,), (None,), ("abc",)]}
_SUBQUERIES = {name: parse(f"SELECT v FROM {name}") for name in _SUBQUERY_ROWS}


def _subquery_executor(select):
    result = Relation(Schema.of("v"), name="sub")
    result.rows = list(_SUBQUERY_ROWS[select.tables[0].name])
    return result


_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2.0, 2.0),
    st.sampled_from([2 ** 53, 2 ** 53 + 1, 10 ** 400, NAN, INF, -INF, 0.0, -0.0,
                     Decimal("1"), Decimal("2.5"), Money(2), "", "abc", "2", "a%", "_bc"]),
)
_LITERALS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from(["", "abc", "2", "a%", "_bc", 2 ** 53 + 1, 0, 0.0]),
).map(Literal)
_COLUMNS = st.sampled_from(
    [ColumnRef("a"), ColumnRef("b"), ColumnRef("s"), ColumnRef("A"), ColumnRef("nosuch"),
     ColumnRef("a", "t")]
)
_SUBQUERY_NODES = st.sampled_from(sorted(_SUBQUERIES)).map(lambda name: Subquery(_SUBQUERIES[name]))
_BINARY_OPS = ["AND", "OR", "and", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
               "||", "^"]
_FUNCTIONS = ["ABS", "ROUND", "FLOOR", "CEIL", "UPPER", "lower", "TRIM", "LENGTH", "SUBSTR",
              "COALESCE", "NULLIF", "CONCAT", "NOSUCHFN", "COUNT"]


def _literal_lists(values):
    return st.lists(values.map(Literal), min_size=1, max_size=4).map(tuple)


#: All-literal IN lists.  One exact class (int, or str) compiles to a set
#: probe, which must agree with the interpreter's ``sql_equal`` loop for every
#: probe value — ints past 2**53 (equal as floats) and 10**400 (no float at
#: all) included; a NULL, float, bool or mixed-class member keeps the loop.
_IN_LISTS = st.one_of(
    _literal_lists(st.one_of(st.integers(-3, 3),
                             st.sampled_from([2 ** 53, 2 ** 53 + 1, 10 ** 400]))),
    _literal_lists(st.sampled_from(["", "abc", "2", "a%", "_bc"])),
    _literal_lists(st.one_of(st.none(), st.integers(-3, 3))),
    _literal_lists(st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0, allow_nan=False),
                             st.sampled_from([NAN, True, Decimal("1"), "2"]))),
)


def _compound(children):
    few = st.lists(children, min_size=0, max_size=3).map(tuple)
    return st.one_of(
        st.builds(InList, children, _IN_LISTS, st.booleans()),
        st.builds(BinaryOp, st.sampled_from(_BINARY_OPS), children, children),
        st.builds(UnaryOp, st.sampled_from(["NOT", "not", "-", "+"]), children),
        st.builds(FunctionCall, st.sampled_from(_FUNCTIONS), few),
        st.just(FunctionCall("COUNT", (Star(),))),
        st.builds(InList, children, st.lists(children, min_size=1, max_size=3).map(tuple),
                  st.booleans()),
        st.builds(InList, children, _SUBQUERY_NODES.map(lambda sub: (sub,)), st.booleans()),
        st.builds(Between, children, children, children, st.booleans()),
        st.builds(Like, children, children, st.booleans()),
        st.builds(IsNull, children, st.booleans()),
        st.builds(Case, st.lists(st.tuples(children, children), min_size=1, max_size=3)
                  .map(tuple), st.one_of(st.none(), children)),
    )


_LEAVES = st.one_of(_LITERALS, _COLUMNS, _COLUMNS, _SUBQUERY_NODES,
                    st.builds(Exists, _SUBQUERY_NODES, st.booleans()), st.just(Star()))
_LEVEL1 = _compound(_LEAVES)
_LEVEL2 = _compound(st.one_of(_LEAVES, _LEVEL1))
_LEVEL3 = _compound(st.one_of(_LEAVES, _LEVEL1, _LEVEL2))
EXPRESSION_TREES = st.one_of(_LEAVES, _LEVEL1, _LEVEL2, _LEVEL3)  # depth <= 4
GENERATED_ROWS = st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=6)


def _reference_bucket_key(evaluator, nodes, row):
    """A hash join's key of ``row``: a number as its float, a boolean tagged,
    anything else itself; None (no key) at the first NULL or NaN part."""
    parts = []
    for node in nodes:
        value = evaluator.evaluate(node, row)
        if isinstance(value, bool):
            value = ("b", value)
        elif isinstance(value, (int, float, Decimal)):
            value = float(value)
            if math.isnan(value):
                return None
        if value is None:
            return None
        parts.append(value)
    return parts[0] if len(parts) == 1 else tuple(parts)


def _reference_build(evaluator, nodes, row):
    """What a build of ``row`` alone makes: the key, its hash and the row a
    Grace partitioning scatters, the buckets and the sizes of an in-memory
    build."""
    key = _reference_bucket_key(evaluator, nodes, row)
    if key is None:
        return [], {}, []
    return [(key, hash(key), row)], {key: [row]}, [estimate_row_bytes(row)]


def _build(kernel, row):
    """The build kernel's three modes over the batch ``[row]``."""
    keys, rows = kernel([row], None, None)
    buckets, sizes = {}, []
    kernel([row], buckets, sizes)
    unsized = {}
    kernel([row], unsized, None)
    assert unsized == buckets
    return [(key, hash(key), keyed) for key, keyed in zip(keys, rows)], buckets, sizes


class TestGeneratedExpressions:
    @settings(max_examples=400, deadline=None)
    @given(nodes=st.lists(EXPRESSION_TREES, min_size=1, max_size=3), rows=GENERATED_ROWS)
    @example(nodes=[Like(Literal(False), Literal(0), False),
                    Like(Literal(False), Literal(False), False)],
             rows=[(None, None, None)])
    def test_every_entry_point_agrees_with_the_interpreter(self, nodes, rows):
        node = nodes[0]
        compiler = ExpressionCompiler(SCHEMA, _subquery_executor)
        compiled = compiler.compile(node)
        predicate = compiler.predicate(node)
        projection = compiler.projection(nodes)
        order_key = compiler.order_key([(node, True)])
        build = compiler.build(nodes)
        for row in rows:
            # A fresh interpreter per row: it caches nothing across rows that
            # the kernels' folded subqueries could disagree with.
            evaluator = ExpressionEvaluator(SCHEMA, _subquery_executor)
            context = f"{nodes!r} on {row!r}"
            assert (_outcome(lambda: compiled(row))
                    == _outcome(lambda: evaluator.evaluate(node, row))), context
            assert (_outcome(lambda: predicate(row))
                    == _outcome(lambda: evaluator.predicate(node)(row))), context
            assert (_outcome(lambda: projection(row)) == _outcome(
                lambda: tuple(evaluator.evaluate(each, row) for each in nodes))), context
            assert (_outcome(lambda: order_key(row))
                    == _outcome(lambda: sort_key(evaluator.evaluate(node, row)))), context
            assert (_outcome(lambda: _build(build, row)) == _outcome(
                lambda: _reference_build(evaluator, nodes, row))), context
