"""The one generated order key against the stable per-key cascade.

``ExpressionCompiler.order_key`` lowers a whole ORDER BY to one ``row -> flat
tuple``; ``Sort`` compares nothing else — in memory, sorting a run, merging
runs and in the top-k heap.  Pinned here:

* generated rows over every value class the engine moves (NULL, booleans,
  ints past 2**53 and past the floats, ±0.0, ±inf, NaN, Decimals, strings
  with ``""``), 1–3 keys of both directions and both kinds of source
  (expression, row position): ``Sort`` — unbudgeted, under a 64 KiB and a
  4 KiB budget, and as a top-k — yields the rows of the reference cascade
  (``sorted(key=sort_key, reverse=...)`` from the last key to the first,
  ties in input order) at every batch size;
* a NaN has one place — after every number, before every string, mirrored
  descending — and no longer unsorts the rows around it, for every consumer
  of ``types.sort_key``;
* ``_Descending`` wraps the text of a descending *string* key and nothing
  else: an all-numeric ``DESC`` key is floats, ints and ``""``.
"""

import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from reference_eval import ExpressionEvaluator
from test_batch_equivalence import batch_ramp
from repro.relational.budget import MemoryBudget
from repro.relational.compile import ExpressionCompiler, _Descending
from repro.relational.operators import Sort, TableScan
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import sort_key
from repro.sql.parser import parse_expression

NAN = float("nan")
SCHEMA = Schema.of("id:integer", "a:any", "b:any", "c:any", qualifier="t")

VALUES = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 3), st.sampled_from([2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1,
                                         10 ** 400, -(10 ** 400)]),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf"), float("-inf"), NAN,
                     float(2 ** 53)]),
    st.sampled_from([Decimal("1"), Decimal("2.5"), Decimal("-0.5"), Decimal("NaN"),
                     Decimal("1e400")]),
    st.sampled_from(["", "a", "b", "ab", "B", "1"]),
)
POOLS = st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=12)

#: Key sources: row positions, the same columns as expressions, and an
#: expression that is no plain column.
SOURCES = [1, 2, 3, parse_expression("t.a"), parse_expression("t.b"),
           parse_expression("t.c"), parse_expression("COALESCE(t.a, t.b)")]
KEYS = st.lists(st.tuples(st.sampled_from(SOURCES), st.booleans()), min_size=1, max_size=3)

BATCH_SIZES = (1, 64, 1024)


def _relation(rows):
    relation = Relation(SCHEMA, name="t", validate=False)
    relation.rows = rows
    return relation


def _rows(pool, count, seed):
    """``count`` rows drawn from ``pool``, each with its input position."""
    rng = random.Random(seed)
    return [(index, *rng.choice(pool)) for index in range(count)]


def _value(source, row):
    if isinstance(source, int):
        return row[source]
    return ExpressionEvaluator(SCHEMA).evaluate(source, row)


def cascade(rows, keys):
    """The specification: stable sorts, last key first."""
    ordered = list(rows)
    for source, ascending in reversed(keys):
        ordered = sorted(ordered, key=lambda row: sort_key(_value(source, row)),
                         reverse=not ascending)
    return ordered


def _reprs(rows):
    # repr tells 1 from 1.0 from True and -0.0 from 0.0, and survives the
    # pickle round trip of a spilled NaN, which ``==`` does not.
    return [repr(row) for row in rows]


class TestSortEqualsTheCascade:
    @settings(max_examples=60, deadline=None)
    @given(pool=POOLS, keys=KEYS, count=st.sampled_from([1, 7, 90, 700]),
           seed=st.integers(0, 9))
    def test_in_memory_spilled_and_top_k_at_every_batch_size(self, pool, keys, count, seed):
        rows = _rows(pool, count, seed)
        expected = _reprs(cascade(rows, keys))
        for size in BATCH_SIZES:
            with batch_ramp((size,)):
                assert _reprs(Sort(TableScan(_relation(rows)), keys)) == expected, size
                for limit_bytes in (64 * 1024, 4 * 1024):
                    budget = MemoryBudget(limit_bytes)
                    operator = Sort(TableScan(_relation(rows)), keys, budget=budget)
                    assert _reprs(operator) == expected, (size, limit_bytes)
                    assert budget.used_bytes == 0
                    assert operator.spill_runs == budget.spill_count
                    if count == 700 and limit_bytes == 4 * 1024:
                        assert operator.spill_runs > 1  # 46 KiB of rows at the least
                for top in (0, 1, count // 2, count):
                    budget = MemoryBudget(4 * 1024)
                    operator = Sort(TableScan(_relation(rows)), keys, budget=budget, limit=top)
                    assert _reprs(operator) == expected[:top], (size, top)
                    assert budget.used_bytes == 0 and operator.spill_runs == 0

    @settings(max_examples=200, deadline=None)
    @given(pool=POOLS, keys=KEYS)
    def test_key_parts_are_sort_key_negated_and_wrap_only_descending_strings(self, pool, keys):
        order_key = ExpressionCompiler(SCHEMA).order_key(keys)
        for row in _rows(pool, len(pool), 0):
            key = order_key(row)
            assert len(key) == 3 * len(keys)
            for at, (source, ascending) in enumerate(keys):
                rank, number, text = sort_key(_value(source, row))
                got = key[3 * at:3 * at + 3]
                if ascending:
                    assert got == (rank, number, text)
                    continue
                assert got[:2] == (-rank, -number)
                if rank == 3:
                    assert got[2].__class__ is _Descending and got[2].value == text
                else:
                    assert got[2] == "" and got[2].__class__ is str


class TestDescendingWrapsStringsOnly:
    def test_an_all_numeric_descending_key_holds_no_wrapper(self):
        order_key = ExpressionCompiler(SCHEMA).order_key(
            [(1, False), (parse_expression("t.b * 2"), False), (3, False)])
        for row in [(0, 1.5, 3, Decimal("2")), (1, -0.0, 10 ** 400, True),
                    (2, NAN, None, float("inf"))]:
            key = order_key(row)
            assert not any(isinstance(part, _Descending) for part in key), key
            assert all(part.__class__ in (int, float, str) for part in key), key

    def test_a_descending_string_key_holds_one(self):
        order_key = ExpressionCompiler(SCHEMA).order_key([(1, False), (2, True), (3, False)])
        key = order_key((0, "x", "y", 2.0))
        assert [part.__class__ for part in key].count(_Descending) == 1
        assert key[2].value == "x" and key[5] == "y"

    def test_wrapped_strings_order_descending_and_tie_stably(self):
        rows = [(0, "b", 1, None), (1, "", 2, None), (2, "b", 3, None), (3, "a", 4, None)]
        ordered = list(Sort(TableScan(_relation(rows)), [(1, False)]))
        assert [row[0] for row in ordered] == [0, 2, 3, 1]


class TestNaNHasOnePlace:
    VALUES = [3.0, NAN, 1.0, 2.0, 5.0, 4.0]

    def _sort(self, values, ascending, **kwargs):
        rows = [(index, value, None, None) for index, value in enumerate(values)]
        return [row[1] for row in Sort(TableScan(_relation(rows)), [(1, ascending)], **kwargs)]

    def test_a_nan_no_longer_unsorts_the_other_rows(self):
        # The parent answered [3.0, nan, 1.0, 2.0, 4.0, 5.0] and, as a top-3,
        # [2.0, nan, 1.0]: ``(1, nan, "")`` is not totally ordered.
        assert _reprs(self._sort(self.VALUES, True)) == _reprs([1.0, 2.0, 3.0, 4.0, 5.0, NAN])
        assert self._sort(self.VALUES, True, limit=3) == [1.0, 2.0, 3.0]
        assert _reprs(self._sort(self.VALUES, False)) == _reprs([NAN, 5.0, 4.0, 3.0, 2.0, 1.0])
        assert _reprs(self._sort(self.VALUES, False, limit=2)) == _reprs([NAN, 5.0])

    def test_after_every_number_before_every_string_mirrored_descending(self):
        values = ["", NAN, float("inf"), None, 10 ** 400, Decimal("NaN"), "a", -1]
        ascending = [None, -1, float("inf"), 10 ** 400, NAN, Decimal("NaN"), "", "a"]
        assert _reprs(sorted(values, key=sort_key)) == _reprs(ascending)
        assert _reprs(self._sort(values, True)) == _reprs(ascending)
        assert _reprs(self._sort(values, False)) == _reprs(
            ["a", "", NAN, Decimal("NaN"), float("inf"), 10 ** 400, -1, None])

    def test_spilled_equals_in_memory_with_a_nan_in_the_input(self):
        values = [float((index * 37) % 101) for index in range(3000)]
        values[1234] = NAN
        budget = MemoryBudget(16_000)
        rows = [(index, value, None, None) for index, value in enumerate(values)]
        spilled = Sort(TableScan(_relation(rows)), [(1, True)], budget=budget)
        assert _reprs(spilled) == _reprs(Sort(TableScan(_relation(rows)), [(1, True)]))
        assert spilled.spill_runs > 1

    @pytest.mark.parametrize("ascending", [True, False])
    def test_relation_order_by_inherits_it(self, ascending):
        relation = _relation([(index, value, None, None)
                              for index, value in enumerate(self.VALUES)])
        ordered = [row[1] for row in relation.order_by(["a"], [ascending]).rows]
        assert _reprs(ordered) == _reprs(self._sort(self.VALUES, ascending))
