"""Grouped SELECTs through the one finish ``lower_select`` builds.

Grouping is an operator (``Aggregate``) beneath the ordinary ``Filter`` →
``Project`` → ``Sort`` → ``Distinct`` → ``Limit`` chain, reading aggregate
values as columns.  Pinned here:

* generated GROUP BY / HAVING / aggregate-in-ORDER-BY / DISTINCT / LIMIT
  statements — over NULLs, Decimals, mixed-type keys and empty inputs — give
  the rows, the row order, the column names and the column types of
  ``reference_select`` (plain Python grouping over the interpreted
  evaluator), at every batch size and under budgets small enough to spill;
* ORDER BY may name an aggregate, in the select list or not; a nested
  aggregate is refused by name;
* ``COUNT(DISTINCT ...)`` is linear in its input and still counts ``1``,
  ``1.0`` and ``Decimal(1)`` once.

(That re-running one grouped statement adds nothing to the kernel memo is
pinned in ``test_compile_memo.py``.)
"""

import time
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from reference_eval import reference_select
from test_batch_equivalence import RAMPS, batch_ramp
from repro.errors import EvaluationError
from repro.relational import Database
from repro.relational.budget import MemoryBudget
from repro.relational.compile import KernelScope
from repro.relational.operators import TableScan
from repro.relational.query import expand_star_items, lower_select, output_names
from repro.relational.relation import Relation
from repro.relational.schema import Schema, expression_type
from repro.relational.types import DataType
from repro.sql.parser import parse

SCHEMA = Schema.of("k:any", "v:integer", "s:string", "d:any", qualifier="t")

ROWS = st.lists(
    st.tuples(
        st.sampled_from([None, 1, 2, 1.0, 2.5, Decimal("1"), Decimal("2.5"), "a", "1"]),
        st.one_of(st.none(), st.integers(0, 5)),
        st.sampled_from("abc"),
        st.sampled_from([None, Decimal("0.5"), Decimal("1.25"), Decimal("3")]),
    ),
    min_size=0, max_size=24,
)

GROUP_KEYS = ["t.k", "t.s", "t.v", "t.v % 2"]
AGGREGATES = [
    "COUNT(*)", "COUNT(t.v)", "COUNT(DISTINCT t.k)", "COUNT(DISTINCT t.s)",
    "SUM(t.v)", "SUM(DISTINCT t.v)", "AVG(t.v)", "MIN(t.v)", "MAX(t.s)",
    "SUM(t.d)", "AVG(t.d)", "MIN(t.d)", "MAX(t.v * 2)", "SUM(t.v) + COUNT(*)",
    "CASE WHEN COUNT(*) > 2 THEN 'many' ELSE 'few' END",
]
HAVING = [
    "COUNT(*) > 1", "SUM(t.v) IS NOT NULL", "MAX(t.v) >= 3 OR t.s = 'a'",
    "MIN(t.d) = 0.5", "AVG(t.d) IS NOT NULL", "t.s <> 'b'", "COUNT(DISTINCT t.k) = 1",
]


@st.composite
def statements(draw):
    group_by = draw(st.lists(st.sampled_from(GROUP_KEYS), max_size=2, unique=True))
    items = []
    for index, text in enumerate(
            group_by + draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3))):
        items.append(f"{text} AS c{index}" if draw(st.booleans()) else text)
    if draw(st.booleans()):
        items.append("t.s")  # a plain column of a group: its first row's
    sql = f"SELECT {'DISTINCT ' if draw(st.booleans()) else ''}{', '.join(items)} FROM t"
    if group_by:
        sql += f" GROUP BY {', '.join(group_by)}"
    if draw(st.booleans()):
        sql += f" HAVING {draw(st.sampled_from(HAVING))}"
    order = draw(st.lists(st.sampled_from(
        AGGREGATES[:-1] + GROUP_KEYS + ["1", str(len(items))]
        + [item.rsplit(" AS ", 1)[1] for item in items if " AS " in item]
    ), max_size=2))
    if order:
        sql += " ORDER BY " + ", ".join(
            f"{key}{'' if draw(st.booleans()) else ' DESC'}" for key in order)
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 4))}"
        if draw(st.booleans()):
            sql += f" OFFSET {draw(st.integers(0, 3))}"
    return sql


def _relation(rows):
    relation = Relation(SCHEMA, name="t", validate=False)
    relation.rows = list(rows)
    return relation


def _bind(operator, budget):
    if isinstance(operator, TableScan):
        return operator
    return operator.rebind([_bind(child, budget) for child in operator.children], budget)


def _run(select, rows, limit_bytes):
    """Lower ``select`` over ``rows`` and drain a copy drawing on a budget."""
    budget = MemoryBudget(limit_bytes) if limit_bytes is not None else None
    bound = _bind(lower_select(select, TableScan(_relation(rows)), KernelScope()), budget)
    answer = [repr(row) for row in bound]
    assert budget is None or budget.used_bytes == 0
    return answer, bound.schema.names, [attribute.type for attribute in bound.schema]


class TestGroupedStatementsEqualTheReference:
    @settings(max_examples=200, deadline=None)
    @given(statements(), ROWS, st.sampled_from([None, 150, 600]))
    def test_rows_order_names_and_types(self, sql, rows, limit_bytes):
        select = parse(sql)
        items = expand_star_items(select.items, SCHEMA)
        expected = (
            [repr(row) for row in reference_select(select, rows, SCHEMA)],
            output_names(items),
            # The type of a select item is that of the expression as written.
            [expression_type(item.expr, SCHEMA) for item in items],
        )
        for ramp in RAMPS:
            with batch_ramp(ramp):
                assert _run(select, rows, limit_bytes) == expected, (sql, ramp)

    @pytest.mark.parametrize("sql, types", [
        ("SELECT COUNT(*), SUM(t.v), AVG(t.v), MIN(t.v), MAX(t.s) FROM t",
         [DataType.INTEGER, DataType.FLOAT, DataType.FLOAT, DataType.ANY, DataType.ANY]),
        ("SELECT t.s, COUNT(t.k) AS n FROM t GROUP BY t.s HAVING COUNT(*) > 0 ORDER BY n",
         [DataType.STRING, DataType.INTEGER]),
    ])
    def test_aggregate_columns_keep_their_types_over_an_empty_input(self, sql, types):
        _rows, _names, found = _run(parse(sql), [], None)
        assert found == types

    def test_an_empty_input_is_one_implicit_group_and_no_explicit_one(self):
        implicit, _names, _types = _run(
            parse("SELECT COUNT(*), SUM(t.v), t.s FROM t"), [], None)
        assert implicit == ["(0, None, None)"]
        explicit, _names, _types = _run(
            parse("SELECT t.s, COUNT(*) FROM t GROUP BY t.s"), [], None)
        assert explicit == []


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a integer, b float)")
    database.execute("INSERT INTO t VALUES (1, 2.0), (2, 9.0), (1, 5.0), (3, 1.0), (3, 1.5), "
                     "(3, 0.5)")
    return database


class TestOrderByAnAggregate:
    def test_in_the_select_list(self, db):
        rows = db.execute("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY COUNT(*) DESC").rows
        assert rows == [(3, 3), (1, 2), (2, 1)]
        aliased = db.execute("SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY n DESC").rows
        assert aliased == rows

    def test_not_in_the_select_list(self, db):
        assert db.execute("SELECT a FROM t GROUP BY a ORDER BY SUM(b)").rows == [(3,), (1,), (2,)]
        assert db.execute(
            "SELECT a FROM t GROUP BY a ORDER BY SUM(b) DESC LIMIT 1").rows == [(2,)]

    def test_an_expression_over_aggregates(self, db):
        rows = db.execute("SELECT a FROM t GROUP BY a ORDER BY SUM(b) / COUNT(*) DESC, a").rows
        assert rows == [(2,), (1,), (3,)]

    def test_a_nested_aggregate_is_refused_by_name(self, db):
        for sql in ("SELECT MAX(SUM(b)) FROM t GROUP BY a",
                    "SELECT a FROM t GROUP BY a HAVING MIN(COUNT(*) + 1) > 0",
                    "SELECT a FROM t GROUP BY a ORDER BY SUM(AVG(b))"):
            with pytest.raises(EvaluationError, match="aggregate calls cannot be nested"):
                db.execute(sql)

    def test_a_subquerys_aggregates_are_its_own(self, db):
        rows = db.execute("SELECT a, (SELECT COUNT(*) FROM t) FROM t WHERE a < 3").rows
        assert rows == [(1, 6), (2, 6), (1, 6)]
        grouped = db.execute("SELECT a, COUNT(*) FROM t GROUP BY a "
                             "HAVING COUNT(*) < (SELECT COUNT(*) FROM t) - 3 ORDER BY a").rows
        assert grouped == [(1, 2), (2, 1)]


class TestDistinctAggregates:
    def test_one_one_point_zero_and_decimal_one_count_once(self):
        rows = [(value, 0, "a", None) for value in (1, 1.0, Decimal(1), True, "1", 2, None)]
        answer, _names, _types = _run(
            parse("SELECT COUNT(DISTINCT t.k), COUNT(t.k) FROM t"), rows, None)
        # TRUE equals 1 too, as it always did (Python equality of row values).
        assert answer == ["(3, 6)"]

    def test_sum_distinct_adds_first_occurrences_in_input_order(self):
        values = [0.1, 0.7, 0.1, 1e16, 0.7, 3.0]
        rows = [(value, 0, "a", None) for value in values]
        answer, _names, _types = _run(parse("SELECT SUM(DISTINCT t.k) FROM t"), rows, None)
        assert answer == [repr((0 + 0.1 + 0.7 + 1e16 + 3.0,))]

    def test_count_distinct_is_linear(self):
        def seconds(count):
            rows = [(index, 0, "a", None) for index in range(count)]
            select = parse("SELECT COUNT(DISTINCT t.k) FROM t")
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                answer, _names, _types = _run(select, rows, None)
                best = min(best, time.perf_counter() - started)
                assert answer == [f"({count},)"]
            return best

        # The list scan this replaced took 16x the time for 4x the input.
        assert seconds(16_000) < 20 * seconds(2_000)
