"""Property-based tests on relational-algebra equivalences.

These are the invariants the planner relies on when it pushes work around:
pushing a selection below a join, splitting conjunctive selections, and the
equivalence of hash and nested-loop joins must never change query answers.
"""

from hypothesis import given, settings, strategies as st

from repro.relational.operators import Distinct, Filter, HashJoin, NestedLoopJoin, TableScan
from repro.relational.query import QueryProcessor
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.parser import parse_expression


# -- data generators -----------------------------------------------------------

names = st.sampled_from(["IBM", "NTT", "Acme", "Globex", "Initech", "Umbrella"])
currencies = st.sampled_from(["USD", "JPY", "EUR"])
amounts = st.integers(min_value=0, max_value=5_000_000)

left_rows = st.lists(st.tuples(names, amounts, currencies), min_size=0, max_size=12)
right_rows = st.lists(st.tuples(names, amounts), min_size=0, max_size=12)


def left_relation(rows):
    schema = Schema.of("cname:string", "revenue:float", "currency:string")
    return Relation(schema, rows=rows, name="r1")


def right_relation(rows):
    schema = Schema.of("cname:string", "expenses:float")
    return Relation(schema, rows=rows, name="r2")


def as_bag(relation):
    return sorted(tuple(row) for row in relation.rows)


class TestJoinEquivalences:
    @settings(max_examples=60, deadline=None)
    @given(left_rows, right_rows)
    def test_hash_join_equals_nested_loop_join(self, lrows, rrows):
        left, right = left_relation(lrows), right_relation(rrows)
        condition = parse_expression("r1.cname = r2.cname")
        nested = NestedLoopJoin(TableScan(left, "r1"), TableScan(right, "r2"), condition)
        hashed = HashJoin(TableScan(left, "r1"), TableScan(right, "r2"),
                          parse_expression("r1.cname"), parse_expression("r2.cname"))
        assert sorted(list(nested)) == sorted(list(hashed))

    @settings(max_examples=60, deadline=None)
    @given(left_rows, right_rows)
    def test_selection_pushdown_below_join(self, lrows, rrows):
        """sigma_p(r1 join r2) == sigma_p(r1) join r2 when p touches only r1."""
        left, right = left_relation(lrows), right_relation(rrows)
        join_condition = parse_expression("r1.cname = r2.cname")
        predicate = parse_expression("r1.currency = 'JPY'")

        filtered_after = Filter(
            NestedLoopJoin(TableScan(left, "r1"), TableScan(right, "r2"), join_condition),
            predicate,
        )
        pushed_down = NestedLoopJoin(
            Filter(TableScan(left, "r1"), predicate), TableScan(right, "r2"), join_condition
        )
        assert sorted(list(filtered_after)) == sorted(list(pushed_down))

    @settings(max_examples=60, deadline=None)
    @given(left_rows)
    def test_conjunctive_selection_splits(self, lrows):
        """sigma_{p AND q}(r) == sigma_p(sigma_q(r))."""
        relation = left_relation(lrows)
        combined = Filter(TableScan(relation, "r1"),
                          parse_expression("r1.currency = 'USD' AND r1.revenue > 1000"))
        chained = Filter(
            Filter(TableScan(relation, "r1"), parse_expression("r1.revenue > 1000")),
            parse_expression("r1.currency = 'USD'"),
        )
        assert sorted(list(combined)) == sorted(list(chained))


class TestSQLLevelEquivalences:
    @settings(max_examples=40, deadline=None)
    @given(left_rows, right_rows)
    def test_comma_join_equals_explicit_join(self, lrows, rrows):
        tables = {"r1": left_relation(lrows), "r2": right_relation(rrows)}
        processor = QueryProcessor.over_tables(tables)
        comma = processor.execute(
            "SELECT r1.cname, r2.expenses FROM r1, r2 WHERE r1.cname = r2.cname"
        )
        explicit = processor.execute(
            "SELECT r1.cname, r2.expenses FROM r1 JOIN r2 ON r1.cname = r2.cname"
        )
        assert as_bag(comma) == as_bag(explicit)

    @settings(max_examples=40, deadline=None)
    @given(left_rows)
    def test_union_all_counts_add_up(self, lrows):
        tables = {"r1": left_relation(lrows)}
        processor = QueryProcessor.over_tables(tables)
        usd = processor.execute("SELECT r1.cname FROM r1 WHERE r1.currency = 'USD'")
        other = processor.execute("SELECT r1.cname FROM r1 WHERE r1.currency <> 'USD'")
        union_all = processor.execute(
            "SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' "
            "UNION ALL SELECT r1.cname FROM r1 WHERE r1.currency <> 'USD'"
        )
        assert len(union_all) == len(usd) + len(other)

    @settings(max_examples=40, deadline=None)
    @given(left_rows)
    def test_group_by_counts_sum_to_total(self, lrows):
        tables = {"r1": left_relation(lrows)}
        processor = QueryProcessor.over_tables(tables)
        grouped = processor.execute(
            "SELECT r1.currency, COUNT(*) AS n FROM r1 GROUP BY r1.currency"
        )
        assert sum(row[1] for row in grouped.rows) == len(lrows)

    @settings(max_examples=40, deadline=None)
    @given(left_rows)
    def test_distinct_is_idempotent_and_subset(self, lrows):
        tables = {"r1": left_relation(lrows)}
        processor = QueryProcessor.over_tables(tables)
        once = processor.execute("SELECT DISTINCT r1.currency FROM r1")
        assert len(once) <= max(len(lrows), 0) if lrows else len(once) == 0
        twice = Distinct(TableScan(once), key=tuple).to_relation()
        assert as_bag(once) == as_bag(twice)
