"""Spill-path equivalence: budget-bounded operators vs their in-memory twins.

The streaming execution core's contract is that a memory budget changes *how*
an operator computes, never *what*: a spilled ``Sort`` produces byte-identical
rows in byte-identical order, a spilled ``Distinct`` preserves exact
first-occurrence order, and a Grace-partitioned ``HashJoin`` produces the
same multiset of joined rows.  These tests pin that contract with budgets
small enough to force heavy spilling.
"""

from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExecutionError
from repro.relational.budget import (
    ROW_OVERHEAD_BYTES,
    MemoryBudget,
    SpillFile,
    _estimate_value_bytes,
    estimate_row_bytes,
)
from repro.relational.compile import ExpressionCompiler, row_sizes
from repro.relational.operators import Distinct, HashJoin, Sort, TableScan
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.ast import ColumnRef
from repro.sql.parser import parse_expression


class _Cents(int):
    """Subclasses are sized by the per-value rule, not the exact-class table."""


class _Label(str):
    pass


class _Ratio(float):
    pass


def _relation(rows):
    schema = Schema.of("k:integer", "v:float", "s:string", qualifier="t")
    relation = Relation(schema, name="t", validate=False)
    relation.rows = rows
    return relation


def _bulk_rows(count):
    return [
        ((index * 37) % 101, float((index * 13) % 29), f"s{index % 7}")
        for index in range(count)
    ]


class TestMemoryBudget:
    def test_try_reserve_refuses_past_the_limit(self):
        budget = MemoryBudget(100)
        assert budget.try_reserve(60)
        assert not budget.try_reserve(60)
        assert budget.used_bytes == 60
        budget.release(60)
        assert budget.try_reserve(100)

    def test_peak_tracks_high_water_mark_even_unbounded(self):
        budget = MemoryBudget(None)
        budget.reserve(500)
        budget.release(400)
        budget.reserve(50)
        assert budget.peak_bytes == 500
        assert budget.used_bytes == 150

    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_row_estimate_charges_every_value(self):
        small = estimate_row_bytes((1, None))
        large = estimate_row_bytes((1, "x" * 1000))
        assert large > small

    @given(row=st.lists(st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=20),
        st.decimals(allow_nan=False), st.binary(max_size=8), st.tuples(st.integers()),
        st.sampled_from([_Cents(7), _Label("abc"), _Ratio(0.5), float("nan"), 10 ** 400]),
    ), max_size=8))
    def test_row_estimate_is_the_per_value_rule_for_every_value(self, row):
        # The exact-class table is a shortcut, never a different answer.
        assert estimate_row_bytes(tuple(row)) == ROW_OVERHEAD_BYTES + sum(
            _estimate_value_bytes(value) for value in row)
        assert estimate_row_bytes((None, True, 7, 7.5, Decimal("7.5"), "seven", _Cents(7),
                                   _Label("abc"), b"xy")) == 56 + 1 + 1 + 8 + 8 + 16 + 5 + 8 + 3 + 5


#: Values of every class a size is computed for: each exact class the
#: generated size loops test inline, and past them subclasses, big ints,
#: Decimals (NaN included) and values sized by their text.
_SIZED_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2 ** 63, 2 ** 80), st.floats(),
    st.decimals(), st.text(max_size=12), st.binary(max_size=4),
    st.sampled_from([float("nan"), float("inf"), -0.0, "", "ß€😀", 10 ** 400, _Cents(7),
                     _Cents(-2 ** 70), _Label(""), _Label("é"), _Ratio(0.5)]),
)


def _sized_rows(width, values=_SIZED_VALUES):
    return st.lists(st.tuples(*[values] * width), max_size=6)


class TestGeneratedSizes:
    """The size loops the operators run are :func:`estimate_row_bytes`,
    value for value: the budget's accounting does not depend on where a
    size is computed."""

    @given(st.integers(0, 5).flatmap(lambda width: st.tuples(st.just(width),
                                                              _sized_rows(width))))
    def test_the_size_loop_is_the_row_estimate(self, drawn):
        width, rows = drawn
        assert row_sizes(width)(rows) == list(map(estimate_row_bytes, rows))

    @given(st.integers(0, 4).flatmap(lambda width: _sized_rows(width)),
           st.lists(st.one_of(st.none(), st.integers(-2, 2), st.floats(-2, 2), st.text(max_size=2),
                              st.just(float("nan"))), max_size=6))
    def test_the_build_kernel_sizes_each_keyed_row_as_the_row_estimate(self, payloads, keys):
        rows = [(key,) + payload for key, payload in zip(keys, payloads)]
        width = len(rows[0]) if rows else 1
        schema = Schema.of(*[f"c{index}" for index in range(width)], qualifier="t")
        build = ExpressionCompiler(schema).build([parse_expression("t.c0")])
        buckets, sizes = {}, []
        build(rows, buckets, sizes)
        keyed = [row for row in rows if row[0] is not None and row[0] == row[0]]
        assert sizes == list(map(estimate_row_bytes, keyed))
        assert sorted(map(repr, (row for bucket in buckets.values() for row in bucket))) == sorted(
            map(repr, keyed))


class TestSpillFile:
    def test_roundtrips_items_in_order(self):
        with SpillFile() as spill:
            items = [(index, f"row-{index}") for index in range(2000)]
            spill.extend(items)
            assert list(spill.read()) == items
            # A second read re-streams from the start.
            assert list(spill.read()) == items


class TestSortSpill:
    KEYS = [("t.v", True), ("t.k", False)]

    def _sort(self, relation, **kwargs):
        keys = [(parse_expression(text), asc) for text, asc in self.KEYS]
        return Sort(TableScan(relation), keys, **kwargs)

    def test_spilled_sort_is_byte_identical_to_in_memory(self):
        relation = _relation(_bulk_rows(4000))
        expected = list(self._sort(relation))
        budget = MemoryBudget(16_000)
        operator = self._sort(relation, budget=budget)
        assert list(operator) == expected
        assert operator.spill_runs > 1
        assert budget.spill_count == operator.spill_runs
        assert budget.spilled_rows > 0

    def test_spilled_sort_is_stable_across_runs(self):
        # Heavy duplication: every comparison ties, so order must be exactly
        # the input order — across run boundaries too.
        rows = [(index, 1.0, "same") for index in range(3000)]
        relation = _relation(rows)
        keys = [(parse_expression("t.v"), True)]
        budget = MemoryBudget(12_000)
        operator = Sort(TableScan(relation), keys, budget=budget)
        assert list(operator) == rows
        assert operator.spill_runs > 1

    def test_top_k_heap_matches_full_sort_prefix(self):
        relation = _relation(_bulk_rows(4000))
        expected = list(self._sort(relation))[:25]
        budget = MemoryBudget(16_000)
        operator = self._sort(relation, budget=budget, limit=25)
        assert list(operator) == expected
        # Top-k is bounded: no spilling needed despite the tiny budget.
        assert operator.spill_runs == 0

    def test_budget_peak_stays_bounded_while_spilling(self):
        relation = _relation(_bulk_rows(4000))
        limit = 16_000
        budget = MemoryBudget(limit)
        list(self._sort(relation, budget=budget))
        # One force-reserved row may momentarily exceed the limit; anything
        # beyond that means the budget was not honoured.
        assert budget.peak_bytes <= limit + estimate_row_bytes(relation.rows[0])

    def test_pinned_budget_does_not_degenerate_into_per_row_runs(self):
        # Another operator holds the whole budget: Sort must force-reserve
        # and keep accumulating minimum-sized runs, not spill one open temp
        # file per row (which exhausts file descriptors).
        relation = _relation(_bulk_rows(1000))
        budget = MemoryBudget(10_000)
        budget.reserve(10_000)  # pinned elsewhere for the whole iteration
        operator = self._sort(relation, budget=budget)
        expected = list(self._sort(relation))
        assert list(operator) == expected
        assert operator.spill_runs <= 20


class TestDistinctSpill:
    def test_spilled_distinct_preserves_first_occurrence_order(self):
        # ~700 distinct rows, each repeated; duplicates interleaved.
        rows = _bulk_rows(4000)
        relation = _relation(rows)
        expected = list(Distinct(TableScan(relation)))
        budget = MemoryBudget(4_000)
        operator = Distinct(TableScan(relation), budget=budget)
        assert list(operator) == expected
        assert operator.spilled
        assert budget.spill_count >= 1

    def test_unbudgeted_distinct_unchanged(self):
        relation = _relation([(1, 1.0, "a"), (1, 1.0, "a"), (2, 1.0, "b")])
        assert list(Distinct(TableScan(relation))) == [(1, 1.0, "a"), (2, 1.0, "b")]

    def test_early_termination_releases_the_seen_set_reservation(self):
        # A downstream LIMIT stops pulling: closing the suspended generator
        # must release the seen-set bytes (no reservation outlives the scan).
        relation = _relation(_bulk_rows(500))
        budget = MemoryBudget(1_000_000)
        batches = Distinct(TableScan(relation), budget=budget).batches()
        next(batches)
        assert budget.used_bytes > 0
        batches.close()
        assert budget.used_bytes == 0


class TestHashJoinSpill:
    def _sides(self, count):
        left_schema = Schema.of("id:integer", "val:float", qualifier="l")
        right_schema = Schema.of("id:integer", "score:float", qualifier="r")
        left = Relation(left_schema, name="l", validate=False)
        right = Relation(right_schema, name="r", validate=False)
        left.rows = [(index % 400, float(index)) for index in range(2500)]
        right.rows = [(index % 400, float(index * 2)) for index in range(2500)]
        return left, right

    def test_grace_fallback_matches_in_memory_multiset(self):
        left, right = self._sides(2500)
        in_memory = list(HashJoin(
            TableScan(left), TableScan(right),
            ColumnRef("id", "l"), ColumnRef("id", "r"),
        ))
        budget = MemoryBudget(8_000)
        operator = HashJoin(
            TableScan(left), TableScan(right),
            ColumnRef("id", "l"), ColumnRef("id", "r"), budget=budget,
        )
        spilled = list(operator)
        assert operator.spilled
        assert sorted(spilled) == sorted(in_memory)

    def test_grace_fallback_applies_residual_conditions(self):
        left, right = self._sides(2500)
        residual = parse_expression("l.val < r.score")
        in_memory = list(HashJoin(
            TableScan(left), TableScan(right),
            ColumnRef("id", "l"), ColumnRef("id", "r"), residual=residual,
        ))
        budget = MemoryBudget(8_000)
        spilled = list(HashJoin(
            TableScan(left), TableScan(right),
            ColumnRef("id", "l"), ColumnRef("id", "r"), residual=residual,
            budget=budget,
        ))
        assert sorted(spilled) == sorted(in_memory)
        assert all(l_val < r_score for _l, l_val, _r, r_score in spilled)

    def test_anti_join_emits_unmatched_left_rows_in_memory_and_spilled(self):
        left, right = self._sides(2500)
        left.rows += [(None, 1.0), (None, 2.0)]  # a NULL key matches nothing
        right.rows = [row for row in right.rows if row[0] % 7]
        matched = {other[0] for other in right.rows}
        expected = [row for row in left.rows if row[0] is None or row[0] not in matched]

        def anti(budget):
            return HashJoin(TableScan(left), TableScan(right), ColumnRef("id", "l"),
                            ColumnRef("id", "r"), budget=budget, anti=True)

        in_memory = anti(None)
        assert in_memory.schema == left.schema
        assert list(in_memory) == expected
        spilled = anti(MemoryBudget(8_000))
        assert sorted(spilled, key=repr) == sorted(expected, key=repr)
        assert spilled.spilled
        with pytest.raises(ExecutionError, match="no residual"):
            HashJoin(TableScan(left), TableScan(right), ColumnRef("id", "l"),
                     ColumnRef("id", "r"), residual=parse_expression("l.val < r.score"),
                     anti=True)

    def test_budget_released_after_in_memory_join(self):
        left, right = self._sides(2500)
        budget = MemoryBudget(None)
        list(HashJoin(
            TableScan(left), TableScan(right),
            ColumnRef("id", "l"), ColumnRef("id", "r"), budget=budget,
        ))
        assert budget.used_bytes == 0
        assert budget.peak_bytes > 0
