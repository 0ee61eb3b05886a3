"""Unit tests for the value type system and SQL comparison semantics."""

from decimal import Decimal

import pytest

from repro.errors import TypeMismatchError
from repro.relational.types import DataType, is_null, sort_key, sql_compare, sql_equal


class TestDataTypeNames:
    def test_aliases_resolve(self):
        assert DataType.from_name("int") is DataType.INTEGER
        assert DataType.from_name("VARCHAR") is DataType.STRING
        assert DataType.from_name("Number") is DataType.FLOAT
        assert DataType.from_name("bool") is DataType.BOOLEAN
        assert DataType.from_name("any") is DataType.ANY

    def test_unknown_name_raises(self):
        with pytest.raises(TypeMismatchError):
            DataType.from_name("geometry")


class TestValidation:
    def test_null_passes_any_type(self):
        for data_type in DataType:
            assert data_type.validate(None) is None

    def test_integer_coercion(self):
        assert DataType.INTEGER.validate(5) == 5
        assert DataType.INTEGER.validate(5.0) == 5
        assert DataType.INTEGER.validate("1,000") == 1000

    def test_integer_rejects_fraction_and_bool(self):
        with pytest.raises(TypeMismatchError):
            DataType.INTEGER.validate(5.5)
        with pytest.raises(TypeMismatchError):
            DataType.INTEGER.validate(True)

    def test_float_coercion(self):
        assert DataType.FLOAT.validate(5) == 5.0
        assert DataType.FLOAT.validate("2.5") == 2.5

    def test_string_coercion(self):
        assert DataType.STRING.validate(42) == "42"
        assert DataType.STRING.validate("x") == "x"

    def test_boolean_coercion(self):
        assert DataType.BOOLEAN.validate("true") is True
        assert DataType.BOOLEAN.validate(0) is False
        with pytest.raises(TypeMismatchError):
            DataType.BOOLEAN.validate("maybe")

    def test_any_passes_through(self):
        value = object()
        assert DataType.ANY.validate(value) is value


class TestInferenceAndUnification:
    def test_infer(self):
        assert DataType.infer(1) is DataType.INTEGER
        assert DataType.infer(1.5) is DataType.FLOAT
        assert DataType.infer("x") is DataType.STRING
        assert DataType.infer(True) is DataType.BOOLEAN
        assert DataType.infer(None) is DataType.ANY

    def test_unify_numeric(self):
        assert DataType.INTEGER.unify(DataType.FLOAT) is DataType.FLOAT
        assert DataType.FLOAT.unify(DataType.INTEGER) is DataType.FLOAT

    def test_unify_with_any(self):
        assert DataType.ANY.unify(DataType.STRING) is DataType.STRING
        assert DataType.STRING.unify(DataType.ANY) is DataType.STRING

    def test_unify_mismatched_is_any(self):
        assert DataType.STRING.unify(DataType.INTEGER) is DataType.ANY


class TestThreeValuedComparison:
    def test_equality_with_null_is_unknown(self):
        assert sql_equal(None, 1) is None
        assert sql_equal(1, None) is None

    def test_numeric_equality_across_int_float(self):
        assert sql_equal(1, 1.0) is True

    def test_bool_equality(self):
        assert sql_equal(True, True) is True
        assert sql_equal(True, False) is False

    def test_compare_orders_numbers_and_strings(self):
        assert sql_compare(1, 2) == -1
        assert sql_compare(2, 1) == 1
        assert sql_compare(2, 2) == 0
        assert sql_compare("a", "b") == -1

    def test_compare_with_null_is_unknown(self):
        assert sql_compare(None, 1) is None

    def test_compare_with_nan_is_unordered(self):
        # IEEE: no ordering test of the three-way result holds (see sql_compare).
        nan = float("nan")
        for left, right in [(nan, 1), (2.5, nan), (nan, nan), (True, nan), (nan, 2 ** 60)]:
            result = sql_compare(left, right)
            assert not (result < 0 or result <= 0 or result > 0 or result >= 0)
        assert sql_compare(float("-inf"), float("inf")) == -1
        assert sql_compare(float("inf"), float("inf")) == 0

    def test_compare_mixed_types_raises(self):
        with pytest.raises(TypeMismatchError):
            sql_compare(1, "one")

    def test_is_null(self):
        assert is_null(None)
        assert not is_null(0)


class TestSortKey:
    def test_nulls_sort_first(self):
        values = [3, None, 1]
        assert sorted(values, key=sort_key) == [None, 1, 3]

    def test_numbers_before_strings(self):
        values = ["abc", 10]
        assert sorted(values, key=sort_key) == [10, "abc"]

    def test_mixed_int_float_ordering(self):
        values = [2.5, 1, 3]
        assert sorted(values, key=sort_key) == [1, 2.5, 3]

    def test_nan_sorts_after_every_number_and_before_every_string(self):
        nan = float("nan")
        values = ["a", nan, float("inf"), 2, nan, None, ""]
        ordered = sorted(values, key=sort_key)
        assert ordered[:3] == [None, 2, float("inf")]
        assert ordered[3] is nan and ordered[4] is nan
        assert ordered[5:] == ["", "a"]
        assert sort_key(nan) == sort_key(float("-nan")) == sort_key(Decimal("NaN"))

    def test_an_int_past_the_floats_orders_as_its_infinity(self):
        assert sort_key(10 ** 400) == sort_key(float("inf"))
        assert sort_key(-(10 ** 400)) == sort_key(float("-inf"))
        assert sorted([10 ** 400, 1.5, -(10 ** 400)], key=sort_key) == [
            -(10 ** 400), 1.5, 10 ** 400]
