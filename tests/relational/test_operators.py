"""Unit tests for the physical operators."""

import pytest

from repro.errors import ExecutionError, SchemaError
from repro.relational import operators
from repro.relational.operators import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    PhysicalOperator,
    Project,
    Sort,
    TableScan,
    UnionAll,
)
from repro.relational.relation import relation_from_rows
from repro.sql.parser import parse_expression


@pytest.fixture
def r1():
    return relation_from_rows(
        "r1",
        ["cname:string", "revenue:float", "currency:string"],
        [("IBM", 1_000_000, "USD"), ("NTT", 1_000_000, "JPY"), ("Acme", 250_000, "EUR")],
        qualifier=None,
    )


@pytest.fixture
def r2():
    return relation_from_rows(
        "r2",
        ["cname:string", "expenses:float"],
        [("IBM", 1_500_000), ("NTT", 5_000_000)],
        qualifier=None,
    )


class _CountingChild(PhysicalOperator):
    """A scan handing out one-row batches and counting the requests."""

    def __init__(self, relation):
        self.relation = relation
        self.rows_requested = 0
        self.started = False

    @property
    def schema(self):
        return self.relation.schema

    def batches(self):
        self.started = True
        for row in self.relation.rows:
            self.rows_requested += 1
            yield [row]


class TestScanAndFilter:
    def test_scan_requalifies(self, r1):
        scan = TableScan(r1, "x")
        assert scan.schema.qualified_names[0] == "x.cname"
        assert len(list(scan)) == 3
        assert scan.estimated_rows == 3

    def test_filter(self, r1):
        scan = TableScan(r1, "r1")
        filtered = Filter(scan, parse_expression("r1.currency = 'JPY'"))
        assert [row[0] for row in filtered] == ["NTT"]

    def test_filter_drops_null_predicate_rows(self):
        relation = relation_from_rows("t", ["a:integer"], [(1,), (None,), (3,)], qualifier=None)
        filtered = Filter(TableScan(relation, "t"), parse_expression("t.a > 0"))
        assert len(list(filtered)) == 2

    def test_explain_mentions_condition(self, r1):
        plan = Filter(TableScan(r1, "r1"), parse_expression("r1.revenue > 10"))
        text = plan.explain()
        assert "Filter" in text and "Scan" in text and "r1.revenue > 10" in text


class TestProject:
    def test_project_expressions(self, r1):
        scan = TableScan(r1, "r1")
        project = Project(
            scan,
            [parse_expression("r1.cname"), parse_expression("r1.revenue * 2")],
            ["cname", "double_revenue"],
        )
        rows = list(project)
        assert rows[0] == ("IBM", 2_000_000)
        assert project.schema.names == ["cname", "double_revenue"]

    def test_mismatched_names_raise(self, r1):
        with pytest.raises(ExecutionError):
            Project(TableScan(r1, "r1"), [parse_expression("r1.cname")], ["a", "b"])


class TestJoins:
    def test_nested_loop_join(self, r1, r2):
        join = NestedLoopJoin(
            TableScan(r1, "r1"), TableScan(r2, "r2"),
            parse_expression("r1.cname = r2.cname AND r1.revenue > r2.expenses"),
        )
        assert list(join) == []

    def test_nested_loop_join_without_condition_is_cross(self, r1, r2):
        join = NestedLoopJoin(TableScan(r1, "r1"), TableScan(r2, "r2"), None)
        assert len(list(join)) == 6

    @pytest.mark.parametrize("outer, expected", [
        ("LEFT", [("IBM", "IBM"), ("NTT", None), ("Acme", None)]),
        ("RIGHT", [("IBM", "IBM"), (None, "NTT")]),
    ])
    def test_outer_nested_loop_join_pads_the_unmatched_in_driving_order(
            self, r1, r2, outer, expected):
        join = NestedLoopJoin(
            TableScan(r1, "r1"), TableScan(r2, "r2"),
            parse_expression("r1.cname = r2.cname AND r2.expenses < 2000000"), outer=outer,
        )
        assert [(row[0], row[3]) for row in join] == expected
        assert join.explain().startswith(f"NestedLoopJoin({outer} r1.cname = r2.cname")

    def test_hash_join(self, r1, r2):
        join = HashJoin(
            TableScan(r1, "r1"), TableScan(r2, "r2"),
            parse_expression("r1.cname"), parse_expression("r2.cname"),
        )
        assert sorted(row[0] for row in join) == ["IBM", "NTT"]

    def test_hash_join_with_residual(self, r1, r2):
        join = HashJoin(
            TableScan(r1, "r1"), TableScan(r2, "r2"),
            parse_expression("r1.cname"), parse_expression("r2.cname"),
            residual=parse_expression("r2.expenses > 2000000"),
        )
        assert [row[0] for row in join] == ["NTT"]

    def test_hash_join_skips_null_keys(self):
        left = relation_from_rows("l", ["k:string"], [(None,), ("a",)], qualifier=None)
        right = relation_from_rows("r", ["k:string"], [(None,), ("a",)], qualifier=None)
        join = HashJoin(TableScan(left, "l"), TableScan(right, "r"),
                        parse_expression("l.k"), parse_expression("r.k"))
        assert len(list(join)) == 1

    def test_hash_join_numeric_key_coercion(self):
        left = relation_from_rows("l", ["k:integer"], [(1,)], qualifier=None)
        right = relation_from_rows("r", ["k:float"], [(1.0,)], qualifier=None)
        join = HashJoin(TableScan(left, "l"), TableScan(right, "r"),
                        parse_expression("l.k"), parse_expression("r.k"))
        assert len(list(join)) == 1


class TestOrderingAndSetOperators:
    def test_sort(self, r1):
        ordered = Sort(TableScan(r1, "r1"), [(parse_expression("r1.revenue"), False),
                                             (parse_expression("r1.cname"), True)])
        assert [row[0] for row in ordered] == ["IBM", "NTT", "Acme"]

    def test_limit_offset(self, r1):
        limited = Limit(TableScan(r1, "r1"), count=1, offset=1)
        assert [row[0] for row in limited] == ["NTT"]
        assert limited.estimated_rows == 1

    def test_limit_none_passes_everything(self, r1):
        assert len(list(Limit(TableScan(r1, "r1"), count=None))) == 3

    def test_limit_stops_requesting_input_once_the_count_is_produced(self):
        # Regression: Limit used to pull one row past its count, so LIMIT 0
        # drove its whole child and LIMIT 5 OFFSET 3 pulled 9 rows.
        relation = relation_from_rows(
            "t", ["a:integer"], [(index,) for index in range(100)], qualifier=None
        )
        child = _CountingChild(relation)
        assert list(Limit(child, count=5, offset=3)) == [(index,) for index in range(3, 8)]
        assert child.rows_requested == 8

        child = _CountingChild(relation)
        assert list(Limit(child, count=0, offset=3)) == []
        assert child.rows_requested == 0
        assert not child.started

    def test_limit_cuts_inside_and_across_batches(self, monkeypatch):
        relation = relation_from_rows(
            "t", ["a:integer"], [(index,) for index in range(40)], qualifier=None
        )
        monkeypatch.setattr(operators, "BATCH_RAMP", (7,))
        for count, offset in [(1, 0), (7, 0), (8, 6), (14, 7), (None, 38), (50, 35), (3, 40)]:
            rows = list(Limit(TableScan(relation), count, offset))
            stop = None if count is None else offset + count
            assert rows == relation.rows[offset:stop], (count, offset)

    def test_distinct(self):
        relation = relation_from_rows("t", ["a:integer"], [(1,), (1,), (2,)], qualifier=None)
        assert len(list(Distinct(TableScan(relation, "t")))) == 2

    def test_union_all(self, r2):
        union = UnionAll([TableScan(r2, "a"), TableScan(r2, "b")])
        assert len(list(union)) == 4
        assert union.estimated_rows == 4

    def test_union_all_arity_check(self, r1, r2):
        # Checked when an input's turn comes, so inputs may be lazy.
        union = UnionAll([TableScan(r1, "a"), TableScan(r2, "b")])
        with pytest.raises(SchemaError, match="same arity"):
            list(union)

    def test_union_all_requires_input(self):
        with pytest.raises(ExecutionError):
            UnionAll([])


class TestOnePath:
    def test_iteration_is_defined_once_as_the_flattening_of_batches(self, r1):
        from repro.engine.executor import _InstrumentedOperator  # registers the subclass

        def subclasses(cls):
            for subclass in cls.__subclasses__():
                yield subclass
                yield from subclasses(subclass)

        concrete = list(subclasses(PhysicalOperator))
        assert _InstrumentedOperator in concrete
        for subclass in concrete:
            if subclass.__module__.startswith("repro."):
                assert "__iter__" not in vars(subclass), subclass
                assert "batches" in vars(subclass), subclass
        scan = TableScan(r1, "r1")
        assert list(scan) == [row for batch in scan.batches() for row in batch]
        assert all(isinstance(batch, list) and batch for batch in scan.batches())


class TestToRelation:
    def test_to_relation(self, r1):
        relation = TableScan(r1, "r1").to_relation(name="copy")
        assert relation.name == "copy"
        assert len(relation) == 3
