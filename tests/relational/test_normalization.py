"""Join-key / distinct-key normalization across mixed value types.

``Decimal`` values come out of financial feeds and must join and deduplicate
against plain ints and floats; booleans must *not* silently merge with 0/1
(they are a distinct domain in the hash-key normalization, matching the
deductive layer's constant equality); NULL and NaN join keys never match
anything, not even the same NaN object.
Also covers the OFFSET-aware ``Limit.estimated_rows`` fix.
"""

import sqlite3
from decimal import Decimal

import pytest

from repro.relational.budget import MemoryBudget
from repro.relational.operators import (
    Distinct, HashJoin, Limit, NestedLoopJoin, Sort, TableScan, _hash_key,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.ast import ColumnRef
from repro.sql.parser import parse_expression


def _relation(name, specs, rows, qualifier=None):
    schema = Schema.of(*specs, qualifier=qualifier)
    relation = Relation(schema, name=name, validate=False)
    relation.rows = [tuple(row) for row in rows]
    return relation


class TestHashKeyNormalization:
    def test_numeric_forms_share_a_bucket(self):
        assert _hash_key(1) == _hash_key(1.0) == _hash_key(Decimal("1"))

    def test_booleans_stay_distinct_from_numbers(self):
        assert _hash_key(True) != _hash_key(1)
        assert _hash_key(False) != _hash_key(0)

    def test_strings_do_not_collide_with_numbers(self):
        assert _hash_key("1") != _hash_key(1)

    def test_nan_is_no_key_part(self):
        assert _hash_key(float("nan")) is None
        assert _hash_key(Decimal("NaN")) is None
        assert _hash_key(None) is None


class TestHashJoinNormalization:
    def test_decimal_joins_int_and_float_keys(self):
        left = _relation("l", ["tag", "key"],
                         [("a", 1), ("b", 2.0), ("c", Decimal("3")), ("d", True), ("e", None)],
                         qualifier="l")
        right = _relation("r", ["key", "score"],
                          [(1.0, 10), (2, 20), (3, 30), (1, 11)],
                          qualifier="r")
        join = HashJoin(
            TableScan(left), TableScan(right),
            ColumnRef("key", "l"), ColumnRef("key", "r"),
        )
        matched = sorted((row[0], row[3]) for row in join)
        # Decimal("3") matched 3; True matched nothing; None dropped.
        assert matched == [("a", 10), ("a", 11), ("b", 20), ("c", 30)]

    def test_composite_keys(self):
        left = _relation("l", ["k1", "k2"], [(1, "x"), (1, "y"), (2, "x")], qualifier="l")
        right = _relation("r", ["k1", "k2", "v"],
                          [(1.0, "x", "a"), (1, "y", "b"), (2, "y", "c")], qualifier="r")
        join = HashJoin(
            TableScan(left), TableScan(right),
            [ColumnRef("k1", "l"), ColumnRef("k2", "l")],
            [ColumnRef("k1", "r"), ColumnRef("k2", "r")],
        )
        assert sorted(row[4] for row in join) == ["a", "b"]

    @pytest.mark.parametrize("budget", [None, 1], ids=["in-memory", "grace"])
    def test_a_nan_key_matches_nothing_not_even_itself(self, budget):
        # One NaN object on both sides: a bucket table matches by identity
        # first, so this joined the NaN row to itself.
        nan = float("nan")
        rows = [(nan,), (1.0,)]
        left, right = (_relation(name, ["x"], rows, qualifier=name) for name in ("l", "r"))

        def join(anti=False):
            return list(HashJoin(TableScan(left), TableScan(right), ColumnRef("x", "l"),
                                 ColumnRef("x", "r"), budget=budget and MemoryBudget(budget),
                                 anti=anti))

        nested = list(NestedLoopJoin(TableScan(left), TableScan(right),
                                     parse_expression("l.x = r.x")))
        with sqlite3.connect(":memory:") as connection:
            for name in ("l", "r"):
                connection.execute(f"CREATE TABLE {name} (x REAL)")
                connection.executemany(f"INSERT INTO {name} VALUES (?)", rows)
            oracle = connection.execute("SELECT l.x, r.x FROM l JOIN r ON l.x = r.x").fetchall()
        connection.close()
        assert join() == nested == oracle == [(1.0, 1.0)]
        # An anti-join emits the NaN row: nothing is equal to it.
        assert [repr(row) for row in join(anti=True)] == ["(nan,)"]

    def test_a_nan_of_any_numeric_class_matches_nothing(self):
        left = _relation("l", ["x"], [(float("nan"),), (Decimal("NaN"),), (2,)], qualifier="l")
        right = _relation("r", ["x"], [(Decimal("NaN"),), (float("nan"),), (2.0,)],
                          qualifier="r")
        join = HashJoin(TableScan(left), TableScan(right), ColumnRef("x", "l"),
                        ColumnRef("x", "r"))
        assert list(join) == [(2, 2.0)]


class TestDistinctNormalization:
    def test_mixed_numeric_forms_deduplicate(self):
        relation = _relation("t", ["v"],
                             [(1,), (1.0,), (Decimal("1"),), (True,), (None,), (None,), ("1",)])
        distinct = list(Distinct(TableScan(relation)))
        # 1 == 1.0 == Decimal("1"); True, None and "1" are separate values.
        assert distinct == [(1,), (True,), (None,), ("1",)]

    def test_multi_column_rows(self):
        relation = _relation("t", ["a", "b"],
                             [(1, "x"), (1.0, "x"), (1, "y"), (Decimal("1"), "x")])
        assert list(Distinct(TableScan(relation))) == [(1, "x"), (1, "y")]


class TestLocalJoinParity:
    """The local processor's INNER-join hash path must return exactly the
    nested loop's rows, including SQL equality's coercion quirks."""

    def _db(self, left_rows, right_rows):
        from repro.relational.query import Database

        db = Database("parity")
        db.execute("CREATE TABLE l (k any, a varchar)")
        db.execute("CREATE TABLE r (k any, b varchar)")
        db.tables["l"].rows = [tuple(row) for row in left_rows]
        db.tables["r"].rows = [tuple(row) for row in right_rows]
        return db

    def test_boolean_keys_match_numbers_like_sql_equal(self):
        # sql_equal(True, 1) is True: the bool forces the nested-loop path.
        db = self._db([(True, "x")], [(1, "p"), (0, "q")])
        result = db.execute("SELECT l.a, r.b FROM l JOIN r ON l.k = r.k")
        assert sorted(result.rows) == [("x", "p")]

    def test_decimal_float_keys_use_exact_equality(self):
        # Decimal("0.1") == 0.1 is False even though both bucket to 0.1;
        # the full-condition recheck must drop the pair.
        db = self._db([(Decimal("0.1"), "x"), (Decimal("1"), "y")],
                      [(0.1, "p"), (1, "q")])
        result = db.execute("SELECT l.a, r.b FROM l JOIN r ON l.k = r.k")
        assert sorted(result.rows) == [("y", "q")]

    def test_plain_keys_still_hash_join(self):
        db = self._db([(index, f"a{index}") for index in range(50)],
                      [(index, f"b{index}") for index in range(0, 50, 2)])
        result = db.execute("SELECT l.a, r.b FROM l JOIN r ON l.k = r.k")
        assert len(result.rows) == 25


class TestDecimalOrdering:
    def test_sort_orders_decimal_numerically(self):
        relation = _relation("t", ["v"], [(Decimal("10"),), (2,), (Decimal("1.5"),)])
        ordered = list(Sort(TableScan(relation, "t"), [(parse_expression("t.v"), True)]))
        assert [row[0] for row in ordered] == [Decimal("1.5"), 2, Decimal("10")]


class TestLimitEstimates:
    def _ten_rows(self):
        return TableScan(_relation("t", ["v"], [(index,) for index in range(10)]))

    def test_offset_reduces_estimate(self):
        assert Limit(self._ten_rows(), count=5, offset=8).estimated_rows == 2

    def test_count_caps_remaining_rows(self):
        assert Limit(self._ten_rows(), count=4, offset=3).estimated_rows == 4

    def test_no_count_subtracts_offset(self):
        assert Limit(self._ten_rows(), count=None, offset=3).estimated_rows == 7

    def test_offset_past_input_estimates_zero(self):
        assert Limit(self._ten_rows(), count=5, offset=20).estimated_rows == 0

    def test_estimates_match_actual_output(self):
        for count, offset in [(5, 8), (4, 3), (None, 3), (5, 20), (0, 0)]:
            operator = Limit(self._ten_rows(), count=count, offset=offset)
            assert operator.estimated_rows == len(list(operator))
