"""Property-based tests on relational-algebra equivalences.

These are the invariants the planner relies on when it pushes work around:
pushing a selection below a join, splitting conjunctive selections, and the
equivalence of hash and nested-loop joins must never change query answers.
"""

from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.budget import MemoryBudget
from repro.relational.operators import Distinct, Filter, HashJoin, NestedLoopJoin, TableScan
from repro.relational.query import QueryProcessor
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import sql_equal
from repro.sql.ast import BinaryOp
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


#: Join key values of every class a hash bucket holds: NULL, ints, floats
#: (-0.0 beside 0), binary-exact Decimals and strings.  1, 1.0 and
#: Decimal("1") are one key, 0 and -0.0 another, "1" a third.  The one NaN
#: object lands on both sides: equal to nothing, itself included.
keys = st.sampled_from([None, 0, 1, 2, -0.0, 1.0, 2.5, Decimal("1"), Decimal("2.5"),
                        Decimal("-0"), "a", "b", "1", "", float("nan")])
#: A boolean key equals only a boolean in a bucket, while ``TRUE = 1`` in
#: SQL: booleans are drawn only against booleans (``types.may_hash`` keeps
#: boolean keys out of hash joins).
bool_keys = st.sampled_from([None, True, False])
payloads = st.one_of(st.none(), st.integers(0, 4))


def keyed_rows(draw_keys):
    return st.lists(st.tuples(draw_keys, draw_keys, payloads), min_size=0, max_size=10)


def keyed_sides(draw_keys):
    return st.tuples(keyed_rows(draw_keys), keyed_rows(draw_keys))


def keyed_scan(rows, alias):
    relation = Relation(Schema.of("k1", "k2", "v"), name=alias, validate=False)
    relation.rows = rows
    return TableScan(relation, alias)


def exact(rows):
    """A bag of rows that tells 1 from 1.0 and 0.0 from -0.0."""
    return Counter(tuple((type(value), repr(value)) for value in row) for row in rows)


def hash_join(lrows, rrows, parts, residual=None, spill=False, anti=False):
    budget = MemoryBudget(1) if spill else None
    join = HashJoin(keyed_scan(lrows, "l"), keyed_scan(rrows, "r"),
                    [parse_expression(f"l.k{part}") for part in range(1, parts + 1)],
                    [parse_expression(f"r.k{part}") for part in range(1, parts + 1)],
                    residual=residual, budget=budget, anti=anti)
    rows = list(join)
    # The tiny budget forces the Grace path whenever a build row has a key:
    # no part NULL or NaN.
    assert join.spilled == (spill and any(
        all(row[part] is not None and row[part] == row[part] for part in range(parts))
        for row in rrows))
    if budget is not None:
        assert budget.used_bytes == 0
    return rows


class TestJoinEquivalences:
    @pytest.mark.parametrize("spill", [False, True], ids=["in-memory", "grace"])
    @pytest.mark.parametrize("residual", [None, "l.v < r.v"])
    @pytest.mark.parametrize("parts", [1, 2])
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(keyed_sides(keys), keyed_sides(bool_keys)))
    def test_hash_join_equals_nested_loop_join(self, parts, residual, spill, sides):
        lrows, rrows = sides
        conjuncts = [f"l.k{part} = r.k{part}" for part in range(1, parts + 1)]
        condition = parse_expression(" AND ".join(conjuncts + [residual] * bool(residual)))
        nested = list(NestedLoopJoin(keyed_scan(lrows, "l"), keyed_scan(rrows, "r"), condition))
        hashed = hash_join(lrows, rrows, parts,
                           residual and parse_expression(residual), spill)
        if spill:
            assert exact(hashed) == exact(nested)
        else:
            # In memory, probe order is the nested loop's: left rows in
            # order, each one's matches in build order.
            assert hashed == nested

    @pytest.mark.parametrize("spill", [False, True], ids=["in-memory", "grace"])
    @pytest.mark.parametrize("parts", [1, 2])
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(keyed_sides(keys), keyed_sides(bool_keys)))
    def test_anti_join_keeps_the_left_rows_that_match_nothing(self, parts, spill, sides):
        lrows, rrows = sides
        unmatched = [left for left in lrows if not any(
            all(sql_equal(left[part], right[part]) is True for part in range(parts))
            for right in rrows)]
        hashed = hash_join(lrows, rrows, parts, spill=spill, anti=True)
        if spill:
            assert exact(hashed) == exact(unmatched)
        else:
            assert hashed == unmatched

    @pytest.mark.parametrize("depth", [1, 14, 15, 16, 17, 40])
    def test_a_residual_of_any_depth_probes_as_the_nested_loop_joins(self, depth):
        """Alternating AND/OR levels nest one block each: past
        ``MAX_KERNEL_DEPTH`` a subtree is its own kernel over the joined row,
        and the probe kernel's two loops around the rest still compile.  The
        key may be an expression of the left row."""
        residual = parse_expression("l.v < r.v")
        for level in range(depth):
            residual = BinaryOp("OR" if level % 2 else "AND", residual,
                                parse_expression(f"l.k2 <> {level % 3}"))
        rows = [(key, key, value) for key in (None, 0, 1, 2.0) for value in (None, 0, 3)]
        nested = list(NestedLoopJoin(keyed_scan(rows, "l"), keyed_scan(rows, "r"),
                                     BinaryOp("AND", parse_expression("l.k1 + 1 = r.k1"),
                                              residual)))
        for budget in (None, MemoryBudget(1)):
            join = HashJoin(keyed_scan(rows, "l"), keyed_scan(rows, "r"),
                            [parse_expression("l.k1 + 1")], [parse_expression("r.k1")],
                            residual=residual, budget=budget)
            assert exact(join) == exact(nested)
            assert join.spilled == (budget is not None)

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
